package remote

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// TestDomainRPCs covers the register-with-domain path end to end over
// TCP: SetProviderDomain retags providers, Health and Usage replies
// carry the domain labels for client-side grouping, SpreadAudit
// reports the chunks the retagged topology leaves co-located, and a
// repair pass re-spreads them until the audit is clean.
func TestDomainRPCs(t *testing.T) {
	mgr := memPool(4, 0)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	health := provider.NewHealthMonitor(mgr, provider.HealthConfig{})
	router.SetHealthMonitor(health)
	node, err := Listen("127.0.0.1:0", Roles{
		VM:     vmanager.New(iosim.CostModel{}),
		Meta:   metadata.NewStore(2, iosim.CostModel{}),
		Data:   router,
		Health: health,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	addr := node.Addr()
	cli := dialClient(t, Endpoints{VM: addr, Meta: addr, Data: addr})

	// A chunk written on the flat pool: replicas land on providers
	// 0 and 1 (the consecutive window).
	key := chunk.Key{Blob: 1, Version: 1}
	ids, err := cli.Put(key, []byte("racked together"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("stored %d copies, want 2", len(ids))
	}
	if audit, err := opsOf(cli).SpreadAudit(); err != nil || len(audit) != 0 {
		t.Fatalf("flat pool audit = %v, %v, want clean", audit, err)
	}

	// Register the topology after the fact: the write's two replicas
	// share rackA, the other providers form rackB.
	for _, p := range mgr.Providers() {
		name := "rackB"
		if p.ID() == ids[0] || p.ID() == ids[1] {
			name = "rackA"
		}
		if err := opsOf(cli).SetProviderDomain(p.ID(), name); err != nil {
			t.Fatal(err)
		}
	}
	sts, err := opsOf(cli).Health()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.Domain != "rackA" && st.Domain != "rackB" {
			t.Fatalf("health reply lost the domain label: %+v", st)
		}
	}
	us, err := opsOf(cli).Usage()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range us {
		if u.Domain == "" {
			t.Fatalf("usage reply lost the domain label: %+v", u)
		}
	}

	// The audit sees the exposure the retag created, and a repair pass
	// clears it by re-spreading.
	audit, err := opsOf(cli).SpreadAudit()
	if err != nil {
		t.Fatal(err)
	}
	if len(audit) != 1 || audit[0] != key {
		t.Fatalf("audit = %v, want [%s]", audit, key)
	}
	if _, err := opsOf(cli).Repair(); err != nil {
		t.Fatal(err)
	}
	if audit, err := opsOf(cli).SpreadAudit(); err != nil || len(audit) != 0 {
		t.Fatalf("audit after repair = %v, %v, want clean", audit, err)
	}
	if got, err := cli.Get(key, 0, 15); err != nil || string(got) != "racked together" {
		t.Fatalf("read after re-spread = %q, %v", got, err)
	}
}
