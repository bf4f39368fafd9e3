package remote

import (
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// A node hosting the metrics role must answer the Node.Metrics RPC
// with a Prometheus exposition covering the instrumented components,
// the per-method RPC counters the counting codec adds, and the framed
// plane's request counters (chunk payloads are not RPCs).
func TestMetricsOverRPC(t *testing.T) {
	reg := metrics.NewRegistry()
	vm := vmanager.New(iosim.CostModel{})
	vm.SetMetrics(reg)
	mgr, _ := provider.NewPool(3, iosim.CostModel{})
	router := provider.NewRouter(mgr)
	router.SetMetrics(reg)
	node, err := Listen("127.0.0.1:0", Roles{
		VM:      vm,
		Meta:    metadata.NewStore(2, iosim.CostModel{}),
		Data:    router,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	addr := node.Addr()
	c := dialClient(t, Endpoints{VM: addr, Meta: addr, Data: addr})

	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(0, []byte("count me"), blob.WriteOptions{}); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE bs_rpc_requests_total counter",
		`bs_rpc_requests_total{method="VM.AssignTicket"}`,
		`bs_data_requests_total{op="put"} 1`,
		"bs_vm_ticket_total 1",
		"bs_chunk_put_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// Without a metrics role the Node service is absent and the RPC fails
// with a server-side error instead of hanging or panicking.
func TestMetricsRPCRequiresRole(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	if _, err := c.Metrics(); err == nil {
		t.Fatal("Metrics RPC on a node without the metrics role must fail")
	}
}
