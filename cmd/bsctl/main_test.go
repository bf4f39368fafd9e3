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

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/remote"
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

// serve boots env as a daemon does, every role built by the cluster
// constructors, and serves it on a loopback port. Its background loops
// are not started, so their counters move only when a command asks.
func serve(t *testing.T, env cluster.Env) string {
	t.Helper()
	v, err := cluster.NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{
		VM: v.VM, Meta: v.Meta, Data: v.Router, Health: v.Health, Healer: v.Healer, Reaper: v.Reaper, Metrics: v.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node.Addr()
}

// TestEveryCommandOnACodedNode drives every subcommand against a node
// like `blobseerd -providers 12 -domains 6 -coding rs-4+2 -self-heal -gc
// -domain zone0`, with a read cache, checking what bsctl prints.
func TestEveryCommandOnACodedNode(t *testing.T) {
	env := cluster.Default()
	env.Providers, env.Domains, env.Coding, env.LocalDomain = 12, 6, "rs-4+2", "zone0"
	env.MetaShards = 4
	env.SelfHeal, env.GC = true, true
	env.ReadCache, env.Cache.MaxBytes = true, 8<<20
	addr := serve(t, env)

	checkTranscript(t, "coded", transcript(t, addr, []string{
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
	env := cluster.Default()
	env.Providers, env.Replicas, env.VMShards, env.MetaShards = 3, 2, 4, 4
	addr := serve(t, env)

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
	checkTranscript(t, "sharded", transcript(t, addr, lines))
}
