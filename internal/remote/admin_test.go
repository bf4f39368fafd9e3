package remote

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// ops is the operator surface of a client's data node as typed calls,
// each one HTTP request through Admin — what the tests assert on.
type ops struct{ addr string }

func opsOf(c *Client) ops { return ops{c.data} }

func (o ops) Repair() (st provider.RepairStats, err error) {
	return st, Admin(o.addr, http.MethodPost, "/repair", &st)
}

func (o ops) Health() (sts []provider.HealthStatus, err error) {
	return sts, Admin(o.addr, http.MethodGet, "/health", &sts)
}

func (o ops) Scrub(sync bool) (st core.HealerStats, err error) {
	return st, Admin(o.addr, http.MethodPost, fmt.Sprintf("/scrub?sync=%t", sync), &st)
}

func (o ops) GC(sync bool) (st core.ReaperStats, err error) {
	return st, Admin(o.addr, http.MethodPost, fmt.Sprintf("/gc?sync=%t", sync), &st)
}

func (o ops) Coding() (rep CodingReply, err error) {
	return rep, Admin(o.addr, http.MethodGet, "/coding", &rep)
}

func (o ops) Usage() (us []provider.ProviderUsage, err error) {
	return us, Admin(o.addr, http.MethodGet, "/usage", &us)
}

func (o ops) ReadTier() (rt ReadTierReply, err error) {
	return rt, Admin(o.addr, http.MethodGet, "/read-tier", &rt)
}

func (o ops) SpreadAudit() (keys []chunk.Key, err error) {
	return keys, Admin(o.addr, http.MethodGet, "/spread-audit", &keys)
}

func (o ops) Metrics() (text string, err error) {
	return text, Admin(o.addr, http.MethodGet, "/metrics", &text)
}

func (o ops) SetProviderDomain(id provider.ID, domain string) error {
	return Admin(o.addr, http.MethodPost, fmt.Sprintf("/providers/%d/domain?name=%s", id, domain), nil)
}

// TestAdminRoutesOverHTTP drives the operator surface as any HTTP client
// would, on the port that also serves the framed plane: every route
// answers, its reply in JSON (the metrics in text); a route whose role
// the node lacks answers 404 with the reason; a bad provider ID is an
// error, not a panic; and every call, failed ones too, is counted under
// the name it had as an RPC.
func TestAdminRoutesOverHTTP(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := memPool(3, 0)
	node, err := Listen("127.0.0.1:0", Roles{
		VM:      vmanager.NewSharded(iosim.CostModel{}, 2),
		Meta:    metadata.NewStore(2, iosim.CostModel{}),
		Data:    provider.NewRouter(mgr),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	base := "http://" + node.Addr()
	call := func(method, path string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(method, base+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	for _, tc := range []struct {
		method, path string
		code         int
		has          string
	}{
		{"GET", "/shards", 200, `"Index":1`},
		{"GET", "/coding", 200, `"Replicas":1`},
		{"GET", "/usage", 200, `"Provider":2`},
		{"GET", "/read-tier", 200, `"CacheEnabled":false`},
		{"GET", "/spread-audit", 200, "null"},
		{"POST", "/repair", 200, `"Scanned":0`},
		{"POST", "/providers/1/down", 200, ""},
		{"POST", "/providers/1/down?down=false", 200, ""},
		{"POST", "/providers/1/domain?name=rackB", 200, ""},
		{"POST", "/providers/x/down", 500, "invalid syntax"},
		{"POST", "/providers/99/down", 500, "unknown provider 99"},
		{"GET", "/health", 404, "self-heal not enabled"},
		{"POST", "/scrub?sync=true", 404, "self-heal not enabled"},
		{"POST", "/gc", 404, "-gc"},
		{"GET", "/repair", 405, ""},
		{"GET", "/metrics", 200, `bs_rpc_requests_total{method="Data.Usage"} 1`},
	} {
		code, body := call(tc.method, tc.path)
		if code != tc.code || !strings.Contains(body, tc.has) {
			t.Errorf("%s %s = %d %q, want %d and %q", tc.method, tc.path, code, body, tc.code, tc.has)
		}
	}
	snap := reg.Snapshot()
	for method, want := range map[string]float64{
		"Data.SetProviderDown": 4, "Data.SetProviderDomain": 1, "Data.Health": 1, "Data.Scrub": 1,
		"Data.GC": 1, "VM.ShardStatus": 1, "Node.Metrics": 1, "Data.Repair": 1,
	} {
		if got := snap[`bs_rpc_requests_total{method="`+method+`"}`]; got != want {
			t.Errorf("%s counted %v times, want %v", method, got, want)
		}
	}

	// A node without the VM role, or the data role, says so.
	metaOnly, err := Listen("127.0.0.1:0", Roles{Meta: metadata.NewStore(2, iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer metaOnly.Close()
	for path, want := range map[string]string{"/shards": "without the VM role", "/usage": "without the data role", "/metrics": "no metrics registry"} {
		var out any
		if err := Admin(metaOnly.Addr(), http.MethodGet, path, &out); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("GET %s on a meta-only node: %v, want %q", path, err, want)
		}
	}
}
