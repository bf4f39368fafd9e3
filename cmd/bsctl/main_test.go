package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/vmanager"
)

func TestParseExtents(t *testing.T) {
	l, err := parseExtents("0:5,100:5")
	if err != nil {
		t.Fatal(err)
	}
	want := extent.List{{Offset: 0, Length: 5}, {Offset: 100, Length: 5}}
	if !l.Equal(want) {
		t.Fatalf("parsed = %v", l)
	}
}

func TestParseExtentsErrors(t *testing.T) {
	for _, bad := range []string{"", "5", "a:b", "1:2:3extra,", "1:", ":2"} {
		if _, err := parseExtents(bad); err == nil {
			t.Fatalf("%q must fail", bad)
		}
	}
}

func TestFill(t *testing.T) {
	out := fill([]byte("ab"), 5)
	if string(out) != "ababa" {
		t.Fatalf("fill = %q", out)
	}
	zero := fill(nil, 3)
	if len(zero) != 3 || zero[0] != 0 {
		t.Fatalf("empty fill = %v", zero)
	}
}

// TestMain runs bsctl's main instead of the tests when BSCTL_ARGS holds
// a command line (one argument a line): the tests below run bsctl as a
// process of its own, output and exit status included.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("BSCTL_ARGS"); ok {
		os.Args = append([]string{"bsctl"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// transcript runs each command line with bsctl against the node at addr
// and returns what a terminal would show: the command, its output, and
// its exit status when not 0. What varies from run to run is masked:
// clock times, which provider of a domain served each read (health's ok
// counts), and which chunk keys a spread audit lists.
func transcript(t *testing.T, addr string, lines []string) string {
	t.Helper()
	varies := regexp.MustCompile(`\d\d:\d\d:\d\d\.\d\d\d|ok \d+ *|  b\d+-v\d+-c\d+`)
	var out bytes.Buffer
	for _, line := range lines {
		args := append([]string{"-vm", addr, "-meta", addr, "-data", addr}, strings.Fields(line)...)
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "BSCTL_ARGS="+strings.Join(args, "\n"))
		got, err := cmd.CombinedOutput()
		fmt.Fprintf(&out, "$ bsctl %s\n", line)
		if strings.HasPrefix(line, "metrics") {
			// The calls counted, in name order: the other series are timings.
			var calls []string
			for _, l := range strings.Split(string(got), "\n") {
				if strings.HasPrefix(l, "bs_rpc_requests_total{") && !strings.HasSuffix(l, " 0") {
					calls = append(calls, l)
				}
			}
			sort.Strings(calls)
			fmt.Fprintln(&out, strings.Join(calls, "\n"))
		} else {
			out.Write(varies.ReplaceAllFunc(got, func(m []byte) []byte { return bytes.Repeat([]byte("_"), len(m)) }))
		}
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			fmt.Fprintf(&out, "[exit %d]\n", exit.ExitCode())
		} else if err != nil {
			t.Fatalf("bsctl %s: %v", line, err)
		}
	}
	return out.String()
}

// checkTranscript compares a transcript with testdata/<name>.golden.
func checkTranscript(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name + ".golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("bsctl's output differs from testdata/%s.golden:\n%s", name, got)
	}
}

// TestEveryCommandOnACodedNode drives every subcommand against a node
// like `blobseerd -providers 12 -domains 6 -coding rs-4+2 -self-heal -gc
// -domain zone0 -read-cache 8388608`, checking what bsctl prints.
func TestEveryCommandOnACodedNode(t *testing.T) {
	reg := metrics.NewRegistry()
	pool, _, err := provider.NewURLPoolInDomains("mem://", 12, 0, iosim.CostModel{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := pool.SetDomain(provider.ID(i), provider.DomainLabel(i, 12, 6)); err != nil {
			t.Fatal(err)
		}
	}
	router := provider.NewRouter(pool)
	router.SetMetrics(reg)
	if err := router.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	router.SetLocalDomain("zone0")
	router.SetReadCache(provider.NewReadCache(provider.ReadCacheConfig{MaxBytes: 8 << 20}))
	health := provider.NewHealthMonitor(pool, provider.HealthConfig{})
	router.SetHealthMonitor(health)
	healer := core.NewHealer(router, health, core.HealerConfig{})
	router.SetDegradedHandler(healer.EnqueueRepair)
	vm := vmanager.NewSharded(iosim.CostModel{}, 1)
	meta := metadata.NewStore(4, iosim.CostModel{})
	reaper := core.NewReaper(router, core.ReaperConfig{})
	reaper.SetCatalog(blob.Services{VM: vm, Meta: meta, Data: router}, vm)
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{
		VM: vm, Meta: meta, Data: router, Health: health, Healer: healer, Reaper: reaper, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	checkTranscript(t, "coded", transcript(t, node.Addr(), []string{
		"create -blob 1 -capacity 1048576 -page 4096",
		"create -blob 1 -capacity 1048576 -page 4096",
		// One page a write: the chunks of one write reach the router in
		// either order, and placement follows arrival order.
		"write -blob 1 -extents 0:4096 -data x",
		"write -blob 1 -extents 8192:4096 -data x",
		"write -blob 1 -extents 100:10 -data payload",
		"write -blob 1 -extents 2000000:10 -data beyond",
		"read -blob 1 -extents 96:20",
		"read -blob 1 -extents 0:4 -version 1",
		"read -blob 1 -extents 0:4 -version 9",
		"versions -blob 1",
		"status",
		"health",
		"usage",
		"readtier",
		"scrub",
		"domain -provider 11 -name zone0",
		"health",
		// Where a repair puts its copies varies run to run: nothing after
		// it reports placement.
		"down -provider 0",
		"down -provider 1",
		"read -blob 1 -extents 8192:8",
		"repair",
		"up -provider 0",
		"up -provider 1",
		"down -provider 99",
		"domain -provider 3",
		"pin -blob 1 -version 3",
		"drop -blob 1 -version 3",
		"retain -blob 1 -keep 1",
		"unpin -blob 1 -version 3",
		"versions -blob 1",
		"drop -blob 1 -version 4",
		"read -blob 1 -extents 0:4 -version 1",
		"gc",
		"gc -sync",
		"scrub -sync",
		"metrics",
		"nonsense",
	}))
}

// TestEveryCommandOnAShardedControlPlane drives the commands whose
// answers change with the version manager's shards against a node like
// `blobseerd -vm-shards 4 -replicas 2 -providers 3`, and the operator
// commands a node without -self-heal or -gc refuses.
func TestEveryCommandOnAShardedControlPlane(t *testing.T) {
	pool, _ := provider.NewPool(3, iosim.CostModel{})
	router := provider.NewRouter(pool)
	router.SetReplicas(2)
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{
		VM:   vmanager.NewSharded(iosim.CostModel{}, 4),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: router,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	lines := []string{"status"}
	for b := 1; b <= 6; b++ {
		lines = append(lines,
			fmt.Sprintf("create -blob %d -capacity 65536 -page 512", b),
			fmt.Sprintf("write -blob %d -extents 100:10 -data shard", b))
	}
	lines = append(lines,
		"write -blob 1 -extents 0:16 -data again",
		"versions -blob 1",
		"status",
		"health",
		"scrub -sync",
		"gc",
		"usage",
		"readtier",
		"repair",
	)
	checkTranscript(t, "sharded", transcript(t, node.Addr(), lines))
}
