package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/segtree"
)

// na marks a per-layer metric whose layer does not run on the
// workload. It prints as "n/a" and as 0 on the machine-readable line.
var na = math.NaN()

// layers turns one traced segment's spans and server-side counters
// into the per-layer metrics. Everything here is measured from outside
// the program: client-side decorators, server-side decorators, and the
// node's own metrics registry.
func (s *segment) layers() map[string]float64 {
	agg := s.tr.aggregate()
	w, r := &agg.write, &agg.read
	W, R := float64(w.n), float64(r.n)
	per := func(x int64, n float64) float64 {
		if n == 0 {
			return na
		}
		return float64(x) / n
	}
	reg := func(name string) float64 { return s.regEnd[name] - s.regStart[name] }
	m := map[string]float64{}

	m["client.write_p95_ms"] = quantile(durationsMs(s.writeLat), 0.95)
	m["client.read_p95_ms"] = quantile(durationsMs(s.readLat), 0.95)
	m["client.epoch_imbalance_ratio"] = na
	if len(s.imbalance) > 0 {
		m["client.epoch_imbalance_ratio"] = median(s.imbalance)
	}
	m["client.writer_lateness_p95_ms"] = na
	if len(s.lateness) > 0 {
		m["client.writer_lateness_p95_ms"] = quantile(durationsMs(s.lateness), 0.95)
	}

	// mpiio: the File call minus the core.Backend call under it.
	m["mpiio.write_self_us_per_op"], m["mpiio.read_self_us_per_op"], m["mpiio.extents_per_op"] = na, na, na
	wBase, rBase := w.opNs, r.opNs
	if w.hasCoreSpn {
		m["mpiio.write_self_us_per_op"] = per(w.opNs-w.coreNs, W) / 1e3
		m["mpiio.read_self_us_per_op"] = per(r.opNs-r.coreNs, R) / 1e3
		m["mpiio.extents_per_op"] = per(w.extents+r.extents, W+R)
		wBase, rBase = w.coreNs, r.coreNs
	}
	// blob (with core's pass-through): the call minus the time any
	// service call was outstanding: split, gather, bounding image.
	m["blob.write_self_ms_per_op"] = per(wBase-w.childNs, W) / 1e6
	m["blob.read_self_ms_per_op"] = per(rBase-r.childNs, R) / 1e6
	m["blob.pieces_per_write"] = per(w.count[spDataPut], W)
	m["blob.fragments_per_read"] = per(r.count[spDataGet], R)

	m["vmanager.ticket_us_per_op"] = per(agg.srvSumNs[spSrvTicket], float64(agg.srvCount[spSrvTicket])) / 1e3
	m["vmanager.complete_us_per_op"] = per(agg.srvSumNs[spSrvComplete], float64(agg.srvCount[spSrvComplete])) / 1e3
	m["vmanager.snapshot_us_per_op"] = per(agg.srvSumNs[spSrvSnapshot], float64(agg.srvCount[spSrvSnapshot])) / 1e3
	m["vmanager.publish_wait_ms_per_op"] = per(w.sumNs[spVMWait], W) / 1e6
	vmCalls := func(a *opAgg) int64 {
		return a.count[spVMTicket] + a.count[spVMComplete] + a.count[spVMWait] + a.count[spVMLatest] + a.count[spVMSnapshot]
	}
	m["vmanager.calls_per_write"] = per(vmCalls(w), W)
	m["vmanager.calls_per_read"] = per(vmCalls(r), R)

	m["segtree.nodes_put_per_write"] = per(w.count[spMetaPut], W)
	m["segtree.nodes_get_per_read"] = per(r.count[spMetaGet], R)
	m["metadata.put_node_ms_per_write"] = per(w.unionNs[spMetaPut], W) / 1e6
	m["metadata.get_node_ms_per_read"] = per(r.unionNs[spMetaGet], R) / 1e6
	userMiB := float64(s.preloadBytes+s.writeBytes) / mib
	m["metadata.nodes_stored_per_user_mib"] = float64(s.nodesStored) / userMiB

	// remote: every VM and Meta call of a client is one gob control
	// round trip. The data plane's number is the time an operation had
	// at least one chunk transfer outstanding; the router's own busy
	// time (from the node's registry, summed over concurrent transfers)
	// is reported beside it under provider.
	m["remote.ctrl_calls_per_write"] = per(vmCalls(w)+w.count[spMetaPut]+w.count[spMetaGet], W)
	m["remote.ctrl_calls_per_read"] = per(vmCalls(r)+r.count[spMetaPut]+r.count[spMetaGet], R)
	putMiB := float64(w.bytes[spDataPut]) / mib
	getMiB := float64(r.bytes[spDataGet]) / mib
	m["remote.data_put_ms_per_mib"] = float64(w.unionNs[spDataPut]) / 1e6 / putMiB
	m["remote.data_get_ms_per_mib"] = float64(r.unionNs[spDataGet]) / 1e6 / getMiB
	m["provider.put_busy_ms_per_mib"] = reg("bs_chunk_put_seconds_sum") * 1e3 / putMiB
	m["provider.get_busy_ms_per_mib"] = reg("bs_chunk_get_seconds_sum") * 1e3 / getMiB
	m["provider.store_gets_per_read"] = per(agg.srvCount[spStoreGet], R)
	m["provider.degraded_read_ratio"] = float64(s.degraded) / reg("bs_chunk_get_seconds_count")
	m["provider.cache_hit_ratio"] = na
	if s.c.cache != nil {
		m["provider.cache_hit_ratio"] = s.cacheStats.HitRate()
	}

	m["chunk.store_put_us_per_mib"] = float64(agg.srvSumNs[spStorePut]) / 1e3 / (float64(agg.srvBytes[spStorePut]) / mib)
	m["chunk.store_get_us_per_mib"] = float64(agg.srvSumNs[spStoreGet]) / 1e3 / (float64(agg.srvBytes[spStoreGet]) / mib)
	m["chunk.store_puts_per_write"] = per(agg.srvCount[spStorePut], W)
	for _, k := range []string{"chunk.rs_encode_mibps", "chunk.rs_reconstruct_mibps", "chunk.rs_share_of_write", "chunk.rs_share_of_read",
		"core.reap_pass_s", "core.reap_deleted_chunks", "segtree.build_us_per_write", "segtree.resolve_us_per_read", "remote.ctrl_rtt_us_p50"} {
		m[k] = na
	}

	// The accounting identity the README states: an operation is its
	// layers' self times plus the union of its service calls.
	ms := func(x int64, n float64) float64 { return per(x, n) / 1e6 }
	acc := map[string]float64{
		"write_op_ms": ms(w.opNs, W), "write_services_ms": ms(w.childNs, W),
		"read_op_ms": ms(r.opNs, R), "read_services_ms": ms(r.childNs, R),
	}
	for name, kinds := range map[string][]spanKind{
		"vm": {spVMTicket, spVMComplete, spVMWait, spVMLatest, spVMSnapshot}, "meta": {spMetaPut, spMetaGet}, "data": {spDataPut, spDataGet},
	} {
		var wu, ru int64
		for _, k := range kinds {
			wu += w.unionNs[k]
			ru += r.unionNs[k]
		}
		acc["write_"+name+"_ms"], acc["read_"+name+"_ms"] = ms(wu, W), ms(ru, R)
	}
	for k, v := range acc {
		if math.IsNaN(v) {
			delete(acc, k)
		}
	}
	s.account = acc
	return m
}

// probes adds the isolated measurements to a traced segment's layers:
// the idle control round trip, the segment tree replayed without a
// wire, the Reed-Solomon kernel, and one garbage-collection pass. They
// run after the segment's closing verification, on its still-running
// deployment.
func (s *segment) probes() error {
	m := s.layer
	// 1000 idle Geometry calls: the floor under every control RPC.
	rtt := make([]float64, 1000)
	for i := range rtt {
		t := time.Now()
		if _, err := s.c.clients[0].Geometry(blobID); err != nil {
			return err
		}
		rtt[i] = float64(time.Since(t)) / 1e3
	}
	m["remote.ctrl_rtt_us_p50"] = median(rtt)

	build, resolve, err := s.replayTree()
	if err != nil {
		return err
	}
	m["segtree.build_us_per_write"], m["segtree.resolve_us_per_read"] = build, resolve

	if s.p.CodingK > 0 {
		enc, rec, err := rsProbe(s.p.CodingK, s.p.CodingM, int(s.p.Page))
		if err != nil {
			return err
		}
		chunkMiB := float64(s.p.Page) / mib
		m["chunk.rs_encode_mibps"], m["chunk.rs_reconstruct_mibps"] = chunkMiB/enc, chunkMiB/rec
		// probe time x chunks per op / op time
		m["chunk.rs_share_of_write"] = enc * m["blob.pieces_per_write"] / (s.account["write_op_ms"] / 1e3)
		degradedPerRead := float64(s.degraded) / float64(len(s.readLat))
		m["chunk.rs_share_of_read"] = rec * degradedPerRead / (s.account["read_op_ms"] / 1e3)
	}
	if s.p.Name == wlTile || s.p.Name == wlCkpt {
		return s.reap()
	}
	return nil
}

// replayTree feeds the segment's exact tree inputs (every write's
// extents and borrow answers, every timed read's snapshot and query)
// into a segtree.Tree over a local metadata.Store: the tree's own cost
// with no wire under it. Returns microseconds per timed write and per
// timed read.
func (s *segment) replayTree() (buildUs, resolveUs float64, err error) {
	s.tr.mu.Lock()
	writes, reads := s.tr.writes, s.tr.reads
	s.tr.mu.Unlock()
	sort.Slice(writes, func(i, j int) bool { return writes[i].version < writes[j].version })
	geo, err := s.c.vm.Geometry(blobID)
	if err != nil {
		return 0, 0, err
	}
	tree := &segtree.Tree{Blob: blobID, Geo: geo, Store: metadata.NewStore(8, iosim.CostModel{})}
	roots := make(map[uint64]segtree.NodeKey, len(writes))
	var buildNs, builds int64
	for i, w := range writes {
		if w.version != uint64(i+1) {
			return na, na, nil // a failed write left a gap; nothing to replay against
		}
		pieces := w.extents.SplitAt(geo.Page)
		placed := make([]segtree.Placed, len(pieces))
		for j, e := range pieces {
			key := chunk.Key{Blob: blobID, Version: w.version, Index: uint32(j)}
			placed[j] = segtree.Placed{Ext: e, Ref: chunk.Ref{Key: key, Length: e.Length}}
		}
		t := time.Now()
		root, err := tree.Build(w.version, placed, w.borrows)
		if err != nil {
			return 0, 0, fmt.Errorf("segtree replay: build v%d: %w", w.version, err)
		}
		if w.timed {
			buildNs += int64(time.Since(t))
			builds++
		}
		roots[w.version] = root
	}
	var resolveNs int64
	for _, r := range reads {
		t := time.Now()
		if _, _, err := tree.Resolve(roots[r.version], r.query); err != nil {
			return 0, 0, fmt.Errorf("segtree replay: resolve v%d: %w", r.version, err)
		}
		resolveNs += int64(time.Since(t))
	}
	buildUs, resolveUs = na, na
	if builds > 0 {
		buildUs = float64(buildNs) / float64(builds) / 1e3
	}
	if len(reads) > 0 {
		resolveUs = float64(resolveNs) / float64(len(reads)) / 1e3
	}
	return buildUs, resolveUs, nil
}

// rsProbe times the Reed-Solomon kernel alone on one chunk: encode,
// and reconstruct with the data shard of one failure domain missing.
// Returns seconds per chunk.
func rsProbe(k, m, chunkBytes int) (encode, reconstruct float64, err error) {
	code, err := chunk.NewRSCode(k, m)
	if err != nil {
		return 0, 0, err
	}
	data := make([]byte, chunkBytes)
	for i := range data {
		data[i] = byte(i * 131)
	}
	const rounds = 32
	var shards [][]byte
	t := time.Now()
	for i := 0; i < rounds; i++ {
		shards = code.Encode(data)
	}
	encode = time.Since(t).Seconds() / rounds
	first := shards[0]
	t = time.Now()
	for i := 0; i < rounds; i++ {
		shards[0] = nil
		if err := code.Reconstruct(shards); err != nil {
			return 0, 0, err
		}
	}
	reconstruct = time.Since(t).Seconds() / rounds
	if !bytes.Equal(shards[0], first) {
		return 0, 0, fmt.Errorf("%w: RS reconstruct", errMismatch)
	}
	return encode, reconstruct, nil
}

// reap drops all but the newest four versions and runs one collection
// pass on the node, as blobseerd -gc would, checking the bytes it
// reports reclaimed against the drop in provider usage.
func (s *segment) reap() error {
	const unbounded = 1 << 24 // one pass must not be rate-limited
	reaper := core.NewReaper(s.c.router, core.ReaperConfig{WalkChunksPerTick: unbounded, DeletesPerTick: unbounded, QueueDepth: unbounded})
	reaper.SetCatalog(blob.Services{VM: s.c.vm, Meta: s.c.meta, Data: s.c.router}, s.c.vm)
	before := s.c.storedBytes()
	t := time.Now()
	if _, err := s.c.vm.Retain(blobID, 4); err != nil {
		return err
	}
	st := reaper.Pass()
	s.layer["core.reap_pass_s"] = time.Since(t).Seconds()
	s.layer["core.reap_deleted_chunks"] = float64(st.Deleted)
	if freed := before - s.c.storedBytes(); freed != st.DeletedBytes {
		return fmt.Errorf("benchmark: reaper reports %d bytes reclaimed, provider usage fell by %d", st.DeletedBytes, freed)
	}
	return nil
}
