package core_test

import (
	"errors"
	"testing"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/provider"
)

// gcCluster boots a replicated deployment with the reaper enabled
// (manual retention unless retainLast > 0) and writes n versions, each
// fully overwriting the first page and extending into its own page, so
// old versions have both exclusive chunks (the overwritten page 0
// copies) and shared ones (their private pages stay visible until
// overwritten — they aren't — plus borrowed subtrees).
func gcCluster(t *testing.T, n, retainLast int) (*cluster.Versioning, *core.VersioningBackend) {
	t.Helper()
	env := cluster.Default()
	env.Providers = 4
	env.Replicas = 2
	env.GC = true
	env.Reaper.RetainLast = retainLast
	env.Reaper.DeletesPerTick = 8
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	be, err := svc.Backend(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	page := env.ChunkSize
	for i := 0; i < n; i++ {
		l := extent.List{
			{Offset: 0, Length: page},                     // contested: every version rewrites page 0
			{Offset: int64(i+1) * page, Length: page / 2}, // private page per version
		}
		buf := make([]byte, l.TotalLength())
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		vec, err := extent.NewVec(l, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.WriteList(vec); err != nil {
			t.Fatal(err)
		}
	}
	return svc, be
}

func poolUsage(svc *cluster.Versioning) (chunks int, bytes int64) {
	for _, u := range svc.Router.Usage() {
		if !u.Down {
			chunks += u.Chunks
			bytes += u.Bytes
		}
	}
	return chunks, bytes
}

func TestReaperReclaimsExclusiveChunksOnly(t *testing.T) {
	svc, be := gcCluster(t, 6, 0)
	b := be.Blob()
	dropped, err := b.Retain(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 4 {
		t.Fatalf("dropped %v", dropped)
	}
	// The expected reclaim set, computed independently before any
	// deletion: each dropped version's exclusive chunks.
	expect := make(map[chunk.Key]bool)
	for _, v := range dropped {
		keys, err := b.ExclusiveChunks(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			expect[k] = true
		}
	}
	if len(expect) == 0 {
		t.Fatal("drop schedule produced no exclusive chunks — test lost its teeth")
	}
	chunksBefore, bytesBefore := poolUsage(svc)

	st := svc.Reaper.Pass()
	if st.Reclaimed != 4 || st.Deleted != int64(len(expect)) {
		t.Fatalf("pass reclaimed %d versions / %d chunks, want 4 / %d: %+v",
			st.Reclaimed, st.Deleted, len(expect), st)
	}
	info, err := b.GCInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pending) != 0 || info.Reclaimed != 4 {
		t.Fatalf("pending %+v, reclaimed %d", info.Pending, info.Reclaimed)
	}

	// Exclusive chunks are gone from EVERY provider store.
	for key := range expect {
		if _, ok := svc.Router.Locate(key); ok {
			t.Fatalf("placement still lists reclaimed chunk %s", key)
		}
		for _, p := range svc.Providers.Providers() {
			if _, err := p.Store().Len(key); !errors.Is(err, chunk.ErrNotFound) {
				t.Fatalf("provider %d still holds reclaimed chunk %s (%v)", p.ID(), key, err)
			}
		}
	}
	// Shared chunks survive: every retained version still reads in
	// full through its metadata.
	if n, err := be.Scrub(); err != nil || n != 3 {
		t.Fatalf("post-GC scrub = %d versions, %v (want 3: v0 + newest 2)", n, err)
	}
	// And the accounting agrees with the stores.
	chunksAfter, bytesAfter := poolUsage(svc)
	if chunksBefore-chunksAfter != 2*len(expect) {
		t.Fatalf("chunk count dropped by %d, want %d (R=2 copies of %d chunks)",
			chunksBefore-chunksAfter, 2*len(expect), len(expect))
	}
	if reclaimed := bytesBefore - bytesAfter; reclaimed != st.DeletedBytes {
		t.Fatalf("usage dropped by %d bytes, stats claim %d", reclaimed, st.DeletedBytes)
	}
}

func TestReaperAutoRetentionAndPins(t *testing.T) {
	svc, be := gcCluster(t, 6, 3)
	b := be.Blob()
	// A reader pins v2 before the reaper ever runs.
	if err := b.Pin(2); err != nil {
		t.Fatal(err)
	}
	before, err := b.ReadAt(2, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Reaper.Pass()
	if st.AutoDropped != 2 {
		t.Fatalf("auto-dropped %d versions, want 2 (v1, v3; v2 pinned)", st.AutoDropped)
	}
	// The pinned version still reads the same bytes after reclamation
	// of its neighbors.
	after, err := b.ReadAt(2, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned version corrupted at byte %d", i)
		}
	}
	// Unpinning releases it to the next retention pass.
	if err := b.Unpin(2); err != nil {
		t.Fatal(err)
	}
	st = svc.Reaper.Pass()
	if st.AutoDropped != 3 {
		t.Fatalf("after unpin: auto-dropped %d total, want 3", st.AutoDropped)
	}
	if _, err := b.ReadAt(2, 0, 1024); err == nil {
		t.Fatal("dropped version still readable")
	}
	if n, err := be.Scrub(); err != nil || n != 4 {
		t.Fatalf("final scrub = %d, %v (want v0 + newest 3)", n, err)
	}
}

// busyOnceRouter defers the first deletion of every key to model an
// in-flight repair; the reaper must keep the version pending and
// complete it on the next pass.
type busyOnceRouter struct {
	*provider.Router
	seen map[chunk.Key]bool
}

func (r *busyOnceRouter) DeleteReplicas(key chunk.Key) (int, int64, error) {
	if r.seen == nil {
		r.seen = make(map[chunk.Key]bool)
	}
	if !r.seen[key] {
		r.seen[key] = true
		return 0, 0, provider.ErrChunkBusy
	}
	return r.Router.DeleteReplicas(key)
}

func TestReaperDefersBusyChunksToNextPass(t *testing.T) {
	svc, be := gcCluster(t, 4, 0)
	b := be.Blob()
	reaper := core.NewReaper(&busyOnceRouter{Router: svc.Router}, core.ReaperConfig{DeletesPerTick: 8})
	reaper.SetCatalog(svc.Services(), svc.VM)
	if _, err := b.Retain(1); err != nil {
		t.Fatal(err)
	}
	st := reaper.Pass()
	if st.Reclaimed != 0 || st.DeferredBusy == 0 {
		t.Fatalf("busy pass reclaimed %d (deferred %d), want deferral: %+v", st.Reclaimed, st.DeferredBusy, st)
	}
	info, err := b.GCInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pending) != 3 {
		t.Fatalf("pending after busy pass = %+v", info.Pending)
	}
	st = reaper.Pass()
	if st.Reclaimed != 3 {
		t.Fatalf("retry pass reclaimed %d versions, want 3: %+v", st.Reclaimed, st)
	}
}

func TestReaperDeleteRateLimit(t *testing.T) {
	svc, be := gcCluster(t, 6, 0)
	b := be.Blob()
	reaper := core.NewReaper(svc.Router, core.ReaperConfig{DeletesPerTick: 1})
	reaper.SetCatalog(svc.Services(), svc.VM)
	if _, err := b.Retain(1); err != nil {
		t.Fatal(err)
	}
	var prev int64
	for i := 0; i < 50; i++ {
		reaper.Tick()
		st := reaper.Stats()
		deleted := st.Deleted + st.DeleteFailed + st.DeferredBusy
		if deleted-prev > 1 {
			t.Fatalf("tick %d deleted %d chunks, rate limit is 1", i, deleted-prev)
		}
		prev = deleted
	}
	if st := reaper.Stats(); st.Deleted == 0 {
		t.Fatalf("nothing deleted under rate limit: %+v", st)
	}
}

// TestReaperSharedKeyAcrossPendingVersions: a chunk exclusive to TWO
// pending versions (v1's page-0 chunk survives into v2's flattened
// leaf, then v3 overwrites the page) must not strand the second
// version when the delete lands before the second version's diff runs
// — both versions reclaim within one pass.
func TestReaperSharedKeyAcrossPendingVersions(t *testing.T) {
	env := cluster.Default()
	env.Providers = 4
	env.Replicas = 2
	env.GC = true
	env.Reaper.DeletesPerTick = 8
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	be, err := svc.Backend(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	page := env.ChunkSize
	write := func(off, length int64, fill byte) {
		buf := make([]byte, length)
		for i := range buf {
			buf[i] = fill
		}
		vec, err := extent.NewVec(extent.List{{Offset: off, Length: length}}, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.WriteList(vec); err != nil {
			t.Fatal(err)
		}
	}
	write(0, page, 1)   // v1: full page 0
	write(0, page/2, 2) // v2: half of page 0 (its leaf keeps v1's other half)
	write(0, page, 3)   // v3: full page 0 again (latest, retained)
	b := be.Blob()
	if _, err := b.Retain(1); err != nil {
		t.Fatal(err)
	}
	// v1's chunk is exclusive to BOTH pending versions: reachable from
	// v2's leaf but from no retained version.
	k2, err := b.ExclusiveChunks(2)
	if err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, k := range k2 {
		if k.Version == 1 {
			shared = true
		}
	}
	if !shared {
		t.Fatalf("v2's exclusive set %v does not co-own v1's chunk — scenario not constructed", k2)
	}
	st := svc.Reaper.Pass()
	if st.Passes != 1 || st.Reclaimed != 2 {
		t.Fatalf("one pass reclaimed %d versions over %d passes, want both in one: %+v",
			st.Reclaimed, st.Passes, st)
	}
}

// readsBack checks that every version of the n gcCluster wrote that is
// still readable returns the writer's bytes: page 0 and its own private
// page hold byte(version).
func readsBack(t *testing.T, svc *cluster.Versioning, be *core.VersioningBackend, n int) {
	t.Helper()
	size := cluster.Default().ChunkSize
	vs, err := be.Blob().Versions()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v == 0 || v > uint64(n) {
			continue
		}
		q := extent.List{{Offset: 0, Length: size}, {Offset: int64(v) * size, Length: size / 2}}
		got, err := be.ReadListAt(core.Version(v), q)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		for i, c := range got {
			if c != byte(v) {
				t.Fatalf("v%d byte %d = %d, want the writer's %d", v, i, c, v)
			}
		}
	}
}

// TestReaperCountsStaleHints: after repair moved copies, a pass finds
// every chunk where placement holds it now. It reclaims the dropped
// versions' exclusive chunks from every copy, the moved ones included,
// and every retained version reads back the writer's bytes.
func TestReaperCountsStaleHints(t *testing.T) {
	svc, be := gcCluster(t, 4, 0)
	if err := svc.Providers.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if rst := svc.Router.Repair(); rst.Repaired == 0 {
		t.Fatal("repair moved nothing; the scenario is not constructed")
	}
	readsBack(t, svc, be, 4)
	dropped, err := be.Blob().Retain(1)
	if err != nil {
		t.Fatal(err)
	}
	exclusive := make(map[chunk.Key]bool)
	for _, v := range dropped {
		keys, err := be.Blob().ExclusiveChunks(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			exclusive[k] = true
		}
	}
	st := svc.Reaper.Pass()
	if st.Reclaimed != 3 || st.DeleteFailed != 0 || st.Deleted != int64(len(exclusive)) {
		t.Fatalf("pass after the move: %+v, want 3 versions and %d chunks reclaimed", st, len(exclusive))
	}
	for _, key := range svc.Router.Keys() {
		if exclusive[key] {
			t.Fatalf("exclusive chunk %s survived the pass", key)
		}
	}
	readsBack(t, svc, be, 4)
}

// TestReaperRewritesStaleHintsIntoCache: with the shared read cache
// wired in, reads after repair moved copies fill it with the writer's
// bytes; a pass that deletes the dropped versions' chunks drops their
// cached data too, so no cached copy outlives its chunk, and every
// retained version still reads back the writer's bytes.
func TestReaperRewritesStaleHintsIntoCache(t *testing.T) {
	env := cluster.Default()
	env.Providers = 4
	env.Replicas = 2
	env.GC = true
	env.Reaper.DeletesPerTick = 8
	env.ReadCache = true
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	be, err := svc.Backend(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	page := env.ChunkSize
	for i := 0; i < 3; i++ {
		l := extent.List{{Offset: 0, Length: page}, {Offset: int64(i+1) * page, Length: page / 2}}
		buf := make([]byte, l.TotalLength())
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		vec, err := extent.NewVec(l, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := be.WriteList(vec); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Providers.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if rst := svc.Router.Repair(); rst.Repaired == 0 {
		t.Fatal("repair moved nothing; the scenario is not constructed")
	}
	readsBack(t, svc, be, 3)
	cache := svc.Router.ReadCache()
	if st := cache.Stats(); st.Fills == 0 {
		t.Fatalf("reads after the move filled nothing: %+v", st)
	}
	if _, err := be.Blob().Retain(1); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats().Invalidations
	st := svc.Reaper.Pass()
	if st.Reclaimed != 2 || st.Deleted == 0 {
		t.Fatalf("pass: %+v, want 2 versions reclaimed", st)
	}
	if got := cache.Stats().Invalidations - before; got != st.Deleted {
		t.Fatalf("%d deletes dropped %d cache entries, want one each", st.Deleted, got)
	}
	readsBack(t, svc, be, 3)
}
