package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/remote"
	"repro/internal/segtree"
)

// parseArgs parses a command line as blobseerd does, on a flag set of
// its own so that a test can parse more than once.
func parseArgs(t *testing.T, args string) (options, error) {
	t.Helper()
	fs := flag.NewFlagSet("blobseerd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parse(fs, strings.Fields(args))
}

// TestRefusals: every command line no node can serve is refused with
// the message blobseerd prints before it exits 2.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-vm-shards 0", "-vm-shards 0 must be at least 1"},
		{"-domains a,b,a", `-domains "a,b,a" names a twice`},
		{"-domains 9 -providers 8", "-domains 9 out of range (1..8 providers)"},
		{"-gc -roles vm,data", "-gc/-retain require the vm, meta and data roles on this node"},
		{"-retain 2 -roles vm,meta", "-gc/-retain require the vm, meta and data roles on this node"},
		{"-coding rs-4+2 -replicas 2", `cluster: coding "rs-4+2" is mutually exclusive with 2 replicas`},
		{"-quorum 3 -replicas 2", "cluster: write quorum 3 exceeds 2 replicas"},
		{"-store bogus://", `cluster: chunk: unknown store scheme "bogus" in "bogus://"`},
		{"-roles vm,bogus", `unknown role "bogus" (want vm, meta, data)`},
	} {
		_, err := parseArgs(t, tc.args)
		if err == nil || err.Error() != tc.want {
			t.Errorf("blobseerd %s: refused with %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestSimulateChargesTheExperimentModels: -simulate charges exactly
// the cost models the metered experiments run on, and without it
// nothing is charged.
func TestSimulateChargesTheExperimentModels(t *testing.T) {
	m := cluster.Metered()
	for _, tc := range []struct {
		args             string
		data, meta, ctrl iosim.CostModel
	}{
		{"", iosim.CostModel{}, iosim.CostModel{}, iosim.CostModel{}},
		{"-simulate", m.DataModel, m.MetaModel, m.CtrlModel},
	} {
		o, err := parseArgs(t, tc.args)
		if err != nil {
			t.Fatal(err)
		}
		if e := o.env; e.DataModel != tc.data || e.MetaModel != tc.meta || e.CtrlModel != tc.ctrl {
			t.Errorf("blobseerd %q charges data %+v, meta %+v, ctrl %+v; want %+v, %+v, %+v",
				tc.args, e.DataModel, e.MetaModel, e.CtrlModel, tc.data, tc.meta, tc.ctrl)
		}
	}
}

// TestBootServesEveryRole boots a self-healing, collecting node in
// process, writes five versions through a framed client, and has the
// operator plane run a scrub pass and a collection pass: with -retain 2
// the three oldest versions are reclaimed.
func TestBootServesEveryRole(t *testing.T) {
	o, err := parseArgs(t, "-listen 127.0.0.1:0 -self-heal -gc -retain 2 -domains 4 -replicas 2")
	if err != nil {
		t.Fatal(err)
	}
	n, err := boot(o)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var banner bytes.Buffer
	n.describe(&banner, o)
	if !strings.Contains(banner.String(), "failure domains: zone0=2 zone1=2 zone2=2 zone3=2") {
		t.Errorf("banner does not show the four domains:\n%s", banner.String())
	}

	addr := n.Addr()
	cli, err := remote.DialFramed(remote.Endpoints{VM: addr, Meta: addr, Data: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	b, err := blob.Create(cli.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		vec, err := extent.NewVec(extent.List{{Offset: int64(i) << 10, Length: 1 << 10}}, bytes.Repeat([]byte{byte(i)}, 1<<10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteList(vec, blob.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	var scrub core.HealerStats
	if err := remote.Admin(addr, http.MethodPost, "/scrub?sync=true", &scrub); err != nil {
		t.Fatal(err)
	}
	if scrub.ScrubPasses < 1 || scrub.Lost != 0 {
		t.Errorf("scrub -sync answered %+v, want a pass that lost nothing", scrub)
	}
	var gc core.ReaperStats
	if err := remote.Admin(addr, http.MethodPost, "/gc?sync=true", &gc); err != nil {
		t.Fatal(err)
	}
	if gc.Reclaimed != 3 {
		t.Errorf("gc -sync reclaimed %d versions, want 3 (%+v)", gc.Reclaimed, gc)
	}
	got, err := b.ReadList(5, extent.List{{Offset: 5 << 10, Length: 4}})
	if err != nil || !bytes.Equal(got, []byte{5, 5, 5, 5}) {
		t.Fatalf("v5 after collection reads %v, %v", got, err)
	}
	if _, err := b.ReadList(1, extent.List{{Offset: 1 << 10, Length: 4}}); err == nil {
		t.Fatal("a reclaimed version still reads")
	}
}
