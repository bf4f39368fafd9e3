// Command bsctl is the client CLI for a running storage service
// (cmd/blobseerd): create blobs, write and read (possibly
// non-contiguous) byte ranges, and inspect versions.
//
//	bsctl -vm :4000 -meta :4000 -data :4000 create -blob 1 -capacity 1073741824 -page 65536
//	bsctl write -blob 1 -extents 0:5,100:5 -data "helloworld"
//	bsctl read -blob 1 -extents 0:5,100:5 [-version 3]
//	bsctl versions -blob 1
//	bsctl down -provider 2        # mark a data provider dead
//	bsctl up -provider 2          # revive it
//	bsctl domain -provider 2 -name rackB   # register a provider's failure domain
//	bsctl repair                  # re-replicate chunks that lost copies
//	bsctl health                  # failure-detector state, grouped by domain, plus the spread audit
//	bsctl status                  # control-plane shard table: per-shard state, blobs, tickets, published
//	bsctl scrub [-sync]           # healer stats; -sync forces a full pass
//	bsctl retain -blob 1 -keep 8  # drop all but the newest 8 versions
//	bsctl drop -blob 1 -version 3 # drop one version
//	bsctl pin -blob 1 -version 3  # protect a version from retention
//	bsctl unpin -blob 1 -version 3
//	bsctl gc [-sync]              # reaper stats; -sync forces a full pass
//	bsctl usage                   # per-provider chunk count / bytes stored
//	bsctl readtier                # zone-local read locality and read-cache counters
//	bsctl metrics                 # full metrics registry, Prometheus text exposition
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/segtree"
)

func main() {
	var (
		vmAddr   = flag.String("vm", "127.0.0.1:4000", "version manager address")
		metaAddr = flag.String("meta", "127.0.0.1:4000", "metadata address")
		dataAddr = flag.String("data", "127.0.0.1:4000", "data provider address")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	blobID := sub.Uint64("blob", 1, "blob id")
	capacity := sub.Int64("capacity", 1<<30, "blob capacity (create)")
	page := sub.Int64("page", 64<<10, "page/chunk size (create)")
	extents := sub.String("extents", "", "comma-separated off:len pairs")
	data := sub.String("data", "", "payload for write (repeated/truncated to fit)")
	version := sub.Uint64("version", 0, "snapshot version for read (0 = latest)")
	providerID := sub.Int("provider", -1, "data provider id (down/up/domain)")
	domainName := sub.String("name", "", "failure-domain label (domain)")
	syncScrub := sub.Bool("sync", false, "run a full pass before reporting (scrub/gc)")
	keep := sub.Int("keep", 0, "versions to retain (retain)")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}

	cli, err := remote.DialFramed(remote.Endpoints{VM: *vmAddr, Meta: *metaAddr, Data: *dataAddr})
	if err != nil {
		fail(err)
	}
	defer cli.Close()
	svc := cli.Services()

	switch cmd {
	case "create":
		_, err := blob.Create(svc, *blobID, segtree.Geometry{Capacity: *capacity, Page: *page})
		if err != nil {
			fail(err)
		}
		fmt.Printf("created blob %d (capacity %d, page %d)\n", *blobID, *capacity, *page)

	case "write":
		b, err := blob.Open(svc, *blobID)
		if err != nil {
			fail(err)
		}
		l, err := parseExtents(*extents)
		if err != nil {
			fail(err)
		}
		buf := fill([]byte(*data), l.TotalLength())
		vec, err := extent.NewVec(l, buf)
		if err != nil {
			fail(err)
		}
		v, err := b.WriteList(vec, blob.WriteOptions{})
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d bytes across %d extents -> snapshot v%d\n", len(buf), len(l), v)

	case "read":
		b, err := blob.Open(svc, *blobID)
		if err != nil {
			fail(err)
		}
		l, err := parseExtents(*extents)
		if err != nil {
			fail(err)
		}
		v := *version
		if v == 0 {
			info, err := b.Latest()
			if err != nil {
				fail(err)
			}
			v = info.Version
		}
		out, err := b.ReadList(v, l)
		if err != nil {
			fail(err)
		}
		fmt.Printf("v%d: %q\n", v, out)

	case "versions":
		b, err := blob.Open(svc, *blobID)
		if err != nil {
			fail(err)
		}
		vs, err := b.Versions()
		if err != nil {
			fail(err)
		}
		for _, v := range vs {
			sz, err := b.Size(v)
			if err != nil {
				fail(err)
			}
			fmt.Printf("v%-4d size %d\n", v, sz)
		}

	case "repair":
		st, err := cli.Repair()
		if err != nil {
			fail(err)
		}
		fmt.Printf("repair: scanned %d, degraded %d, copied %d, repaired %d, lost %d, failed %d\n",
			st.Scanned, st.Degraded, st.Copied, st.Repaired, st.Lost, st.Failed)

	case "health":
		sts, err := cli.Health()
		if err != nil {
			fail(err)
		}
		// Placement mode first: it sets the durability promise the rest
		// of the report is judged against.
		if mode, err := cli.Coding(); err == nil {
			if mode.Coded {
				fmt.Printf("placement: erasure coded rs-%d+%d (any %d fragment losses survivable, %.2fx storage), write quorum %d/%d\n",
					mode.K, mode.M, mode.M, float64(mode.K+mode.M)/float64(mode.K), mode.Quorum, mode.K+mode.M)
			} else {
				fmt.Printf("placement: %d-way replication, write quorum %d\n", max(mode.Replicas, 1), mode.Quorum)
			}
		}
		// Group by failure domain: a domain losing machines together is
		// the loss unit the spread placement defends against.
		var domains []string
		byDomain := map[string][]provider.HealthStatus{}
		for _, st := range sts {
			if _, ok := byDomain[st.Domain]; !ok {
				domains = append(domains, st.Domain)
			}
			byDomain[st.Domain] = append(byDomain[st.Domain], st)
		}
		sort.Strings(domains)
		for _, d := range domains {
			group := byDomain[d]
			live := 0
			for _, st := range group {
				if st.State == provider.Live || st.State == provider.Suspect {
					live++
				}
			}
			label := d
			if label == "" {
				label = "(flat)"
			}
			fmt.Printf("domain %-8s %d/%d live\n", label, live, len(group))
			for _, st := range group {
				line := fmt.Sprintf("  provider %-3d %-10s fail %-6d ok %-6d consec %d",
					st.Provider, st.State, st.Failures, st.Successes, st.Consec)
				if st.State == provider.Down || st.State == provider.Probation {
					line += fmt.Sprintf("  down since %s", st.DownSince.Format("15:04:05.000"))
				}
				fmt.Println(line)
			}
		}
		// Spread audit: chunks whose live replicas share one failure
		// domain are one correlated loss from being gone. On a flat or
		// partially tagged pool the audit is inert — say so rather
		// than claiming a guarantee that was never checked.
		tagged := len(sts) > 0
		for _, st := range sts {
			if st.Domain == "" {
				tagged = false
				break
			}
		}
		if !tagged || len(byDomain) < 2 {
			fmt.Println("spread audit: n/a (flat or partially tagged pool — domain spread inactive)")
			break
		}
		violations, err := cli.SpreadAudit()
		if err != nil {
			fail(err)
		}
		if len(violations) == 0 {
			fmt.Println("spread audit: clean (no chunk's live replicas share a failure domain)")
		} else {
			fmt.Printf("spread audit: %d chunks EXPOSED to a single-domain loss:\n", len(violations))
			for i, key := range violations {
				if i == 10 {
					fmt.Printf("  ... and %d more\n", len(violations)-i)
					break
				}
				fmt.Printf("  %s\n", key)
			}
		}

	case "status":
		shards, err := cli.ShardStatus()
		if err != nil {
			fail(err)
		}
		fmt.Printf("control plane: %d shard(s)\n", len(shards))
		var blobs int
		var tickets, published uint64
		for _, sh := range shards {
			state := "up"
			if sh.Down {
				state = "DOWN"
			}
			fmt.Printf("shard %-3d %-5s %6d blobs %10d tickets %10d published\n",
				sh.Index, state, sh.Blobs, sh.Tickets, sh.Published)
			blobs += sh.Blobs
			tickets += sh.Tickets
			published += sh.Published
		}
		if len(shards) > 1 {
			fmt.Printf("total     %6d blobs %10d tickets %10d published\n", blobs, tickets, published)
		}

	case "scrub":
		st, err := cli.Scrub(*syncScrub)
		if err != nil {
			fail(err)
		}
		fmt.Printf("scrub: ticks %d, passes %d, verified %d chunks (%d errors)\n",
			st.Ticks, st.ScrubPasses, st.ScrubbedChunks, st.ScrubErrors)
		fmt.Printf("queue: enqueued %d, dup %d, dropped %d, depth %d\n",
			st.Enqueued, st.Duplicates, st.Dropped, st.QueueLen)
		fmt.Printf("repair: restored %d, healthy %d, failed %d, lost %d\n",
			st.Repaired, st.RepairHealthy, st.RepairFailed, st.Lost)

	case "retain":
		if *keep < 1 {
			fail(fmt.Errorf("bsctl: retain requires -keep >= 1"))
		}
		dropped, err := cli.Retain(*blobID, *keep)
		if err != nil {
			fail(err)
		}
		fmt.Printf("retained newest %d versions of blob %d; dropped %d: %v\n", *keep, *blobID, len(dropped), dropped)

	case "drop":
		if *version == 0 {
			fail(fmt.Errorf("bsctl: drop requires -version"))
		}
		if err := cli.DropVersion(*blobID, *version); err != nil {
			fail(err)
		}
		fmt.Printf("dropped blob %d v%d (pending reclamation)\n", *blobID, *version)

	case "pin", "unpin":
		if *version == 0 {
			fail(fmt.Errorf("bsctl: %s requires -version", cmd))
		}
		var err error
		if cmd == "pin" {
			err = cli.Pin(*blobID, *version)
		} else {
			err = cli.Unpin(*blobID, *version)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("blob %d v%d %sned\n", *blobID, *version, cmd)

	case "gc":
		st, err := cli.GC(*syncScrub)
		if err != nil {
			fail(err)
		}
		fmt.Printf("gc: ticks %d, passes %d, auto-dropped %d versions, reclaimed %d versions\n",
			st.Ticks, st.Passes, st.AutoDropped, st.Reclaimed)
		fmt.Printf("walk: %d refs (%d stale hints, %d errors), %d pending versions diffed\n",
			st.WalkedRefs, st.StaleHints, st.WalkErrors, st.PendingSeen)
		fmt.Printf("delete: %d chunks / %d replicas / %d bytes reclaimed (%d failed, %d deferred to repair)\n",
			st.Deleted, st.ReplicasRemoved, st.DeletedBytes, st.DeleteFailed, st.DeferredBusy)
		fmt.Printf("queue: enqueued %d, dup %d, dropped %d, depth %d\n",
			st.Enqueued, st.Duplicates, st.Dropped, st.QueueLen)

	case "usage":
		us, err := cli.Usage()
		if err != nil {
			fail(err)
		}
		var domains []string
		byDomain := map[string][]provider.ProviderUsage{}
		for _, u := range us {
			if _, ok := byDomain[u.Domain]; !ok {
				domains = append(domains, u.Domain)
			}
			byDomain[u.Domain] = append(byDomain[u.Domain], u)
		}
		sort.Strings(domains)
		var chunks int
		var bytes int64
		for _, d := range domains {
			var dChunks int
			var dBytes int64
			for _, u := range byDomain[d] {
				state := "live"
				if u.Down {
					state = "down"
				}
				label := u.Domain
				if label == "" {
					label = "-"
				}
				fmt.Printf("provider %-3d %-8s %-5s %6d chunks %12d bytes\n", u.Provider, label, state, u.Chunks, u.Bytes)
				if !u.Down {
					dChunks += u.Chunks
					dBytes += u.Bytes
				}
			}
			if len(domains) > 1 {
				label := d
				if label == "" {
					label = "-"
				}
				fmt.Printf("domain %-8s (live)  %6d chunks %12d bytes\n", label, dChunks, dBytes)
			}
			chunks += dChunks
			bytes += dBytes
		}
		fmt.Printf("total (live)            %6d chunks %12d bytes\n", chunks, bytes)

	case "readtier":
		rt, err := cli.ReadTier()
		if err != nil {
			fail(err)
		}
		domain := rt.LocalDomain
		if domain == "" {
			domain = "(none — flat replica rotation)"
		}
		fmt.Printf("reader domain: %s\n", domain)
		loc := rt.Locality
		fmt.Printf("locality: %d local / %d remote reads, %d local / %d remote bytes (cross-domain fraction %.3f)\n",
			loc.LocalReads, loc.RemoteReads, loc.LocalBytes, loc.RemoteBytes, loc.CrossFraction())
		if !rt.CacheEnabled {
			fmt.Println("read cache: off (enable with blobseerd -read-cache)")
			break
		}
		cs := rt.Cache
		fmt.Printf("read cache: %d entries / %d bytes, hit rate %.3f (%d hits, %d misses)\n",
			cs.Entries, cs.Bytes, cs.HitRate(), cs.Hits, cs.Misses)
		fmt.Printf("hints: %d hits, %d misses, %d fills\n", cs.HintHits, cs.HintMisses, cs.HintFills)
		fmt.Printf("churn: %d fills, %d evictions, %d invalidations\n", cs.Fills, cs.Evictions, cs.Invalidations)

	case "metrics":
		text, err := cli.Metrics()
		if err != nil {
			fail(err)
		}
		fmt.Print(text)

	case "down", "up":
		if *providerID < 0 {
			fail(fmt.Errorf("bsctl: %s requires -provider", cmd))
		}
		if err := cli.SetProviderDown(provider.ID(*providerID), cmd == "down"); err != nil {
			fail(err)
		}
		fmt.Printf("provider %d marked %s\n", *providerID, cmd)

	case "domain":
		if *providerID < 0 || *domainName == "" {
			fail(fmt.Errorf("bsctl: domain requires -provider and -name"))
		}
		if err := cli.SetProviderDomain(provider.ID(*providerID), *domainName); err != nil {
			fail(err)
		}
		fmt.Printf("provider %d registered in failure domain %s\n", *providerID, *domainName)

	default:
		usage()
	}
}

func parseExtents(s string) (extent.List, error) {
	if s == "" {
		return nil, fmt.Errorf("bsctl: -extents required (off:len,off:len,...)")
	}
	var l extent.List
	for _, pair := range strings.Split(s, ",") {
		parts := strings.SplitN(pair, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bsctl: bad extent %q", pair)
		}
		off, err1 := strconv.ParseInt(parts[0], 10, 64)
		length, err2 := strconv.ParseInt(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bsctl: bad extent %q", pair)
		}
		l = append(l, extent.Extent{Offset: off, Length: length})
	}
	return l, nil
}

// fill repeats src until the buffer reaches n bytes (zeros if empty).
func fill(src []byte, n int64) []byte {
	out := make([]byte, n)
	if len(src) == 0 {
		return out
	}
	for i := range out {
		out[i] = src[i%len(src)]
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bsctl [-vm addr] [-meta addr] [-data addr] create|write|read|versions|retain|drop|pin|unpin|gc|usage|readtier|status|metrics|repair|health|scrub|down|up|domain [flags]")
	os.Exit(2)
}
