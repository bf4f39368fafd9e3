package provider

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chunk"
)

func cacheKey(i int) chunk.Key {
	return chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}
}

func TestReadCacheDataPrefixSemantics(t *testing.T) {
	c := NewReadCache(ReadCacheConfig{})
	key := cacheKey(0)
	if _, ok := c.GetData(key, 0, 4); ok {
		t.Fatal("hit on an empty cache")
	}
	c.FillData(key, []byte("hello world"))
	got, ok := c.GetData(key, 6, 5)
	if !ok || string(got) != "world" {
		t.Fatalf("GetData = %q,%v want %q", got, ok, "world")
	}
	// Reads past the cached prefix must miss, not truncate.
	if _, ok := c.GetData(key, 6, 6); ok {
		t.Fatal("hit past the cached prefix")
	}
	if _, ok := c.GetData(key, -1, 2); ok {
		t.Fatal("hit on a negative offset")
	}
	// A shorter fill never shrinks the cached prefix.
	c.FillData(key, []byte("hel"))
	if got, ok := c.GetData(key, 0, 11); !ok || string(got) != "hello world" {
		t.Fatalf("prefix shrank: %q,%v", got, ok)
	}
	// The returned slice is a copy: corrupting it must not corrupt the
	// cache.
	got, _ = c.GetData(key, 0, 5)
	got[0] = 'X'
	if again, _ := c.GetData(key, 0, 5); string(again) != "hello" {
		t.Fatalf("caller write leaked into the cache: %q", again)
	}
}

// TestReadCacheHints: the cache holds chunk data only — where a chunk
// lives is placement's to say — so a byte read after a repair moved the
// copies returns the writer's bytes: the move dropped the cached entry,
// the read misses, goes to the copies placement names now, and fills
// the entry again.
func TestReadCacheHints(t *testing.T) {
	mgr, faults := testPool(4, 0, true)
	r := NewRouter(mgr)
	r.SetReplicas(2)
	c := NewReadCache(ReadCacheConfig{})
	r.SetReadCache(c)
	key := cacheKey(0)
	data := []byte("the writer's bytes")
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
		t.Fatalf("first read = %q, %v", got, err)
	}
	faults[ids[0]].SetDown(true)
	if outcome, _, err := r.RepairChunk(key); outcome != RepairRepaired || err != nil {
		t.Fatalf("repair = %v, %v", outcome, err)
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("the move left the cache at %+v", st)
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
		t.Fatalf("read after the move = %q, %v", got, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Fills != 2 || st.Entries != 1 {
		t.Fatalf("read after the move: %+v, want a miss and a fill", st)
	}
}

// TestReadCacheBounded floods the cache far past its capacity and
// asserts the byte bound holds.
func TestReadCacheBounded(t *testing.T) {
	const maxBytes = 64 << 10
	c := NewReadCache(ReadCacheConfig{Shards: 4, MaxBytes: maxBytes})
	payload := make([]byte, 1024)
	for i := 0; i < 4096; i++ {
		c.FillData(cacheKey(i), append([]byte(nil), payload...))
	}
	if got := c.Bytes(); got > maxBytes {
		t.Fatalf("cache holds %d bytes after flood, bound is %d", got, maxBytes)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("flood past capacity evicted nothing: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatal("trim evicted everything; recent entries should survive")
	}
	// Tiny entries are bounded too (they carry entryOverhead).
	c2 := NewReadCache(ReadCacheConfig{Shards: 1, MaxBytes: 8 << 10})
	for i := 0; i < 100000; i++ {
		c2.FillData(cacheKey(i), []byte{1})
	}
	if got := c2.Bytes(); got > 8<<10 {
		t.Fatalf("tiny-entry flood holds %d bytes, bound is %d", got, 8<<10)
	}
}

// TestReadCacheOversizeEntryRefused: a single value larger than a
// shard's budget must not evict the whole shard just to fail to fit.
func TestReadCacheOversizeEntryRefused(t *testing.T) {
	c := NewReadCache(ReadCacheConfig{Shards: 1, MaxBytes: 4 << 10})
	c.FillData(cacheKey(1), make([]byte, 512))
	c.FillData(cacheKey(2), make([]byte, 8<<10)) // over the whole budget
	if _, ok := c.GetData(cacheKey(2), 0, 8<<10); ok {
		t.Fatal("oversize entry was cached")
	}
	if _, ok := c.GetData(cacheKey(1), 0, 512); !ok {
		t.Fatal("oversize refusal evicted an unrelated entry")
	}
	// Growing an existing entry past the budget drops it rather than
	// carrying an over-budget resident.
	c.FillData(cacheKey(1), make([]byte, 8<<10))
	if _, ok := c.GetData(cacheKey(1), 0, 512); ok {
		t.Fatal("entry grown past the budget stayed resident")
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("bytes = %d after refusals, want 0", got)
	}
}

func TestReadCacheStatsAndHitRate(t *testing.T) {
	c := NewReadCache(ReadCacheConfig{})
	key := cacheKey(0)
	c.GetData(key, 0, 1) // miss
	c.FillData(key, []byte("abcd"))
	c.GetData(key, 0, 4) // hit
	c.GetData(key, 1, 2) // hit
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v, want 2/3", got)
	}
	if (ReadCacheStats{}).HitRate() != 0 {
		t.Fatal("empty HitRate not 0")
	}
}

// TestReadCacheConcurrent hammers fills, lookups and invalidations from
// many goroutines — meaningful under -race, and asserts the byte bound
// holds throughout.
func TestReadCacheConcurrent(t *testing.T) {
	const maxBytes = 32 << 10
	c := NewReadCache(ReadCacheConfig{Shards: 4, MaxBytes: maxBytes})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := cacheKey(i % 64)
				switch (g + i) % 4 {
				case 0:
					c.FillData(key, []byte(fmt.Sprintf("payload-%d", i%64)))
				case 1:
					c.FillData(key, []byte(fmt.Sprintf("payload-%d, grown", i%64)))
				case 2:
					if data, ok := c.GetData(key, 0, 8); ok && string(data) != fmt.Sprintf("payload-%d", i%64)[:8] {
						t.Errorf("corrupt cached data %q for %v", data, key)
					}
				default:
					c.Invalidate(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Bytes(); got > maxBytes {
		t.Fatalf("cache holds %d bytes after concurrent churn, bound is %d", got, maxBytes)
	}
}
