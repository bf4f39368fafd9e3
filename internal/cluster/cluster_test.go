package cluster

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/extent"
)

func TestEnvValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Metered().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Env{
		{Providers: 0, MetaShards: 1, ChunkSize: 1},
		{Providers: 1, MetaShards: 0, ChunkSize: 1},
		{Providers: 1, MetaShards: 1, ChunkSize: 0},
		{Providers: 2, MetaShards: 1, ChunkSize: 1, Replicas: 3},
		{Providers: 4, MetaShards: 1, ChunkSize: 1, Replicas: 2, WriteQuorum: 3},
		{Providers: 4, MetaShards: 1, ChunkSize: 1, WriteQuorum: 2}, // quorum without replication
	}
	for i, e := range bad {
		if e.Validate() == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
}

func TestMeteredModelsCharge(t *testing.T) {
	e := Metered()
	if e.DataModel.Zero() || e.MetaModel.Zero() || e.CtrlModel.Zero() {
		t.Fatal("metered env must charge")
	}
	if !Default().DataModel.Zero() {
		t.Fatal("default env must be free")
	}
}

func TestCapacityFor(t *testing.T) {
	cases := []struct {
		span, page, want int64
	}{
		{0, 64, 64},
		{64, 64, 64},
		{65, 64, 128},
		{1000, 64, 1024},
		{1024, 256, 1024},
		{1025, 256, 2048},
	}
	for i, c := range cases {
		if got := CapacityFor(c.span, c.page); got != c.want {
			t.Fatalf("case %d: CapacityFor(%d,%d) = %d, want %d", i, c.span, c.page, got, c.want)
		}
	}
}

func TestVersioningDeployment(t *testing.T) {
	env := Default()
	env.Providers = 3
	svc, err := NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(svc.Providers.Providers()); n != 3 {
		t.Fatalf("providers = %d", n)
	}
	be, err := svc.Backend(1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := extent.NewVec(extent.List{{Offset: 0, Length: 10}}, make([]byte, 10))
	if _, err := be.WriteList(vec); err != nil {
		t.Fatal(err)
	}
	got, _, err := be.ReadList(extent.List{{Offset: 0, Length: 10}})
	if err != nil || len(got) != 10 {
		t.Fatalf("read = %v, %v", got, err)
	}
}

func TestVersioningReplicatedDeployment(t *testing.T) {
	env := Default()
	env.Providers = 4
	env.Replicas = 3
	svc, err := NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Router.Replicas(); got != 3 {
		t.Fatalf("router replicas = %d, want 3", got)
	}
	if got := svc.Router.WriteQuorum(); got != 2 {
		t.Fatalf("default write quorum = %d, want 2", got)
	}
	be, err := svc.Backend(1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := extent.NewVec(extent.List{{Offset: 0, Length: 10}}, make([]byte, 10))
	if _, err := be.WriteList(vec); err != nil {
		t.Fatal(err)
	}
	// One machine down: the snapshot stays readable via failover.
	if err := svc.Providers.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	got, _, err := be.ReadList(extent.List{{Offset: 0, Length: 10}})
	if err != nil || len(got) != 10 {
		t.Fatalf("degraded read = %v, %v", got, err)
	}
}

func TestLustreDeployment(t *testing.T) {
	l, err := NewLustre(Default())
	if err != nil {
		t.Fatal(err)
	}
	f, err := l.File("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidEnvRejected(t *testing.T) {
	if _, err := NewVersioning(Env{}); err == nil {
		t.Fatal("invalid env must fail")
	}
	if _, err := NewLustre(Env{}); err == nil {
		t.Fatal("invalid env must fail")
	}
}

// Every deployment carries one shared metrics registry wired through
// all layers: a write must show up as ticket/commit/publish and chunk
// puts, a repeated read as cache traffic, and the exposition must
// render. This is the end-to-end check that NewVersioning actually
// connects every component to the registry.
func TestVersioningMetricsWired(t *testing.T) {
	env := Default()
	env.Providers = 4
	env.Replicas = 2
	env.ReadCache = true
	svc, err := NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Metrics == nil {
		t.Fatal("deployment has no metrics registry")
	}
	be, err := svc.Backend(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pipe := be.NewPipe(2)
	vec, _ := extent.NewVec(extent.List{{Offset: 0, Length: 10}}, make([]byte, 10))
	if err := pipe.Submit(vec); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := be.ReadList(extent.List{{Offset: 0, Length: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := svc.Metrics.Snapshot()
	for name, min := range map[string]float64{
		"bs_vm_ticket_total":          1,
		"bs_vm_commit_total":          1,
		"bs_vm_publish_total":         1,
		"bs_pipe_submit_total":        1,
		"bs_chunk_put_total":          1,
		"bs_chunk_put_bytes_total":    10,
		"bs_cache_hits_total":         1, // reads 2 and 3 hit the cached chunk
		"bs_vm_ticket_seconds_count":  1,
		"bs_pipe_write_seconds_count": 1,
	} {
		if got := snap[name]; got < min {
			t.Errorf("%s = %g, want >= %g", name, got, min)
		}
	}
	if got := snap["bs_pipe_inflight"]; got != 0 {
		t.Errorf("bs_pipe_inflight = %g after flush, want 0", got)
	}
	var buf strings.Builder
	if err := svc.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE bs_vm_ticket_total counter") {
		t.Fatalf("exposition missing vm family:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `bs_chunk_get_total{locality="flat"}`) {
		t.Fatalf("exposition missing locality-labeled get counter:\n%s", buf.String())
	}
}

// TestVersioningStoreURL boots deployments on every factory backend and
// checks the write path works end to end, that disk deployments isolate
// providers on the filesystem, and that FaultInjection composes with a
// URL-selected backend (the handles still kill writes at store level).
func TestVersioningStoreURL(t *testing.T) {
	dir := t.TempDir()
	for _, url := range []string{"mem://", "disk://" + dir + "/chunks", "null://"} {
		env := Default()
		env.Providers = 3
		env.StoreURL = url
		svc, err := NewVersioning(env)
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		be, err := svc.Backend(1, 100000)
		if err != nil {
			t.Fatal(err)
		}
		vec, _ := extent.NewVec(extent.List{{Offset: 0, Length: 10}}, make([]byte, 10))
		if _, err := be.WriteList(vec); err != nil {
			t.Fatalf("%s: write: %v", url, err)
		}
		// null discards payloads; only real backends must read back.
		if url != "null://" {
			got, _, err := be.ReadList(extent.List{{Offset: 0, Length: 10}})
			if err != nil || len(got) != 10 {
				t.Fatalf("%s: read = %v, %v", url, got, err)
			}
		}
	}
	// Disk providers got their own subdirectories.
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(fmt.Sprintf("%s/chunks/p%d", dir, i)); err != nil {
			t.Fatalf("provider %d disk dir: %v", i, err)
		}
	}

	// Fault injection composes with the factory.
	env := Default()
	env.Providers = 1
	env.StoreURL = "mem://"
	env.FaultInjection = true
	svc, err := NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(svc.Faults))
	}
	svc.Faults[0].SetDown(true)
	be, err := svc.Backend(2, 100000)
	if err != nil {
		t.Fatal(err)
	}
	vec, _ := extent.NewVec(extent.List{{Offset: 0, Length: 10}}, make([]byte, 10))
	if _, err := be.WriteList(vec); err == nil {
		t.Fatal("write through a downed fault store must fail")
	}
}

func TestEnvValidateStoreURL(t *testing.T) {
	env := Default()
	env.StoreURL = "s3://bucket"
	if err := env.Validate(); err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("bad scheme: %v", err)
	}
	env.StoreURL = "disk://"
	if env.Validate() == nil {
		t.Fatal("pathless disk URL must fail validation")
	}
	env.StoreURL = "null://"
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
}
