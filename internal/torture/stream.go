package torture

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/segtree"
)

// StreamConfig parameterizes one streaming-data-plane torture run:
// concurrent writers push pipelined multi-chunk objects through the
// framed wire transport (remote.DialFramed, so chunk payloads really
// stream socket→store) while a seed-scheduled fault kills transfers
// mid-payload. This is the schedule under which the zero-copy data
// plane earns its correctness claim: a chunk whose stream dies partway
// must never become visible at any length, and with replication the
// loss of a provider must cost reads a failover, never a failure.
type StreamConfig struct {
	// Seed drives all randomness; equal seeds generate equal runs.
	Seed int64
	// Writers is the number of concurrent writer goroutines, each
	// owning one blob and one framed client connection (default 4).
	Writers int
	// ObjectsPerWriter is the pipelined whole-object writes each
	// writer issues, one version per object (default 6).
	ObjectsPerWriter int
	// ChunkSize is the stripe unit; every stored chunk is exactly this
	// long, which is what makes torn uploads detectable by size alone
	// (default 64 KiB).
	ChunkSize int64
	// ChunksPerObject sizes each object (default 8).
	ChunksPerObject int
	// Window bounds the pipelined writer's in-flight chunks (default 4).
	Window int
	// Replicas selects the run's failure mode. At R=1 the schedule
	// tears streams mid-payload (FailPutStreamAfter) and the killed
	// writes must fail cleanly without publishing. At R>=2 the victim
	// provider goes permanently down mid-workload and no write or read
	// may fail at all (default 1).
	Replicas int
	// Providers is the data-provider pool size (default 8).
	Providers int
	// Kills is how many streams the schedule tears at R=1 (default 3).
	Kills int
	// StoreURL selects the chunk backend via the factory; empty means
	// the in-memory fault pool. Must keep bytes (mem://, disk:///path)
	// — the run verifies payloads, so null:// cannot be tortured.
	StoreURL string
}

// StreamPlan is the seed-derived schedule: after AfterObjects writes
// have finished, either the first stream fault is armed on Victim
// (R=1) or Victim goes down (R>=2). Torn holds the mid-chunk byte
// thresholds, one per kill, each strictly inside a chunk so a fault
// can never land on a clean chunk boundary.
type StreamPlan struct {
	Victim       provider.ID
	AfterObjects int
	Torn         []int64
}

// Plan derives the stream-kill schedule from the seed. The first kill
// lands in the middle half of the workload so writes race it from both
// sides; at R=1 each subsequent failure re-arms the next kill.
func (c StreamConfig) Plan() StreamPlan {
	c = c.withDefaults()
	// A distinct stream from the payload generator: same seed,
	// different constant, so the schedule replays independently.
	rng := planRNG(c.Seed, 0x73747265616d2d31) // "stream-1"
	total := c.Writers * c.ObjectsPerWriter
	p := StreamPlan{
		Victim:       provider.ID(rng.Intn(c.Providers)),
		AfterObjects: total/4 + rng.Intn(total/4+1),
	}
	for i := 0; i < c.Kills; i++ {
		p.Torn = append(p.Torn, 1+rng.Int63n(c.ChunkSize-1))
	}
	return p
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Writers <= 0 {
		c.Writers = 4
	}
	if c.ObjectsPerWriter <= 0 {
		c.ObjectsPerWriter = 6
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64 << 10
	}
	if c.ChunksPerObject <= 0 {
		c.ChunksPerObject = 8
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Providers <= 0 {
		c.Providers = 8
	}
	if c.Kills <= 0 {
		c.Kills = 3
	}
	return c
}

// StreamReport summarizes one streaming torture run.
type StreamReport struct {
	Plan         StreamPlan
	Torn         int // writes killed mid-stream (R=1 only; must be >= 1 there)
	Published    int // writes that committed a version
	Verified     int // published versions read back byte-for-byte
	VictimChunks int // chunks resident on the victim when it died (R>=2)
}

// streamPayload fills one object deterministically from its writer and
// object indices. The byte at position i depends on i modulo a prime
// that does not divide any power-of-two chunk size, so a swapped,
// shifted or torn chunk cannot reproduce the expected bytes.
func streamPayload(w, o int, size int64) []byte {
	data := make([]byte, size)
	seed := byte(w*37 + o*11 + 5)
	for i := range data {
		data[i] = seed + byte(i%251)
	}
	return data
}

// RunStream executes the streaming schedule and checks the data
// plane's contract:
//
//   - Torn uploads never publish: a write whose chunk stream dies
//     mid-payload fails as a whole, its version is never visible, and
//     no store retains the partial chunk at ANY length — checked
//     exactly, since every chunk in the workload is full-stripe, by
//     asserting each store's byte usage is a multiple of the chunk
//     size (the temp+rename / staging contract of PutFromReader).
//   - Published versions stay intact: every version a writer saw
//     commit reads back byte-for-byte through the framed transport.
//   - With R>=2, a provider dying mid-workload costs nothing: every
//     write still commits via the replica fan-out, and every published
//     version — including chunks whose only surviving copies are on
//     other providers — reconstructs from the survivors while the
//     victim is still down.
func RunStream(cfg StreamConfig) (StreamReport, error) {
	cfg = cfg.withDefaults()
	if cfg.ChunkSize < 2 {
		return StreamReport{}, fmt.Errorf("torture: RunStream needs ChunkSize >= 2, got %d: a tear must land strictly inside a chunk", cfg.ChunkSize)
	}
	plan := cfg.Plan()
	report := StreamReport{Plan: plan}
	objSize := cfg.ChunkSize * int64(cfg.ChunksPerObject)

	env := cluster.Default()
	env.Providers = cfg.Providers
	env.Replicas = cfg.Replicas
	env.ChunkSize = cfg.ChunkSize
	env.FaultInjection = true
	env.StoreURL = cfg.StoreURL
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return report, err
	}
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{
		VM:   svc.VM,
		Meta: svc.Meta,
		Data: svc.Router,
	})
	if err != nil {
		return report, err
	}
	defer node.Close()
	ep := remote.Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()}

	// The kill switch. At R=1 it arms one mid-stream tear at a time:
	// the next chunk stream that lands on the victim dies after the
	// planned number of payload bytes, and each observed failure arms
	// the next tear until the plan is spent. At R>=2 the victim simply
	// dies, once, mid-workload.
	var armMu sync.Mutex
	armedKills := 0
	var killOnce sync.Once
	kill := func() {
		if cfg.Replicas >= 2 {
			killOnce.Do(func() { svc.Faults[plan.Victim].SetDown(true) })
			return
		}
		armMu.Lock()
		defer armMu.Unlock()
		if armedKills < len(plan.Torn) {
			svc.Faults[plan.Victim].FailPutStreamAfter(plan.Torn[armedKills])
			armedKills++
		}
	}

	type published struct {
		writer, object int
		version        uint64
	}
	var mu sync.Mutex
	var oks []published
	var failures []error
	var finished atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := remote.DialFramed(ep)
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Errorf("writer %d: dial: %w", w, err))
				mu.Unlock()
				return
			}
			defer client.Close()
			geo := segtree.Geometry{Capacity: cluster.CapacityFor(objSize, cfg.ChunkSize), Page: cfg.ChunkSize}
			b, err := blob.Create(client.Services(), uint64(w+1), geo)
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Errorf("writer %d: create: %w", w, err))
				mu.Unlock()
				return
			}
			for o := 0; o < cfg.ObjectsPerWriter; o++ {
				v, err := b.Write(0, streamPayload(w, o, objSize),
					blob.WriteOptions{Pipelined: true, Window: cfg.Window})
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Errorf("writer %d object %d: %w", w, o, err))
				} else {
					oks = append(oks, published{w, o, v})
				}
				mu.Unlock()
				if err != nil {
					// A torn write consumed its kill; arm the next one.
					kill()
				}
				if int(finished.Add(1)) >= plan.AfterObjects {
					kill()
				}
			}
		}(w)
	}
	wg.Wait()
	kill() // schedules past the workload end still kill before checking
	report.Published = len(oks)
	report.Torn = len(failures)

	if cfg.Replicas >= 2 {
		if len(failures) > 0 {
			return report, failf(cfg.Seed, "R=%d writes failed despite the replica fan-out: %v",
				cfg.Replicas, failures[0])
		}
		n, _ := svc.Faults[plan.Victim].Usage()
		report.VictimChunks = n
		if n == 0 {
			return report, failf(cfg.Seed, "victim %d died holding no chunks — schedule lost its teeth", plan.Victim)
		}
	} else {
		if report.Torn == 0 {
			return report, failf(cfg.Seed, "no stream was torn after %d writes (victim %d) — schedule lost its teeth",
				plan.AfterObjects, plan.Victim)
		}
		for _, err := range failures {
			// Only the injected tears may fail writes at R=1. The error
			// crosses the RPC boundary, so match its message, not its type.
			if !strings.Contains(err.Error(), "injected fault") {
				return report, failf(cfg.Seed, "unexpected write failure: %w", err)
			}
		}
	}

	// Torn uploads never persist at any length: the workload stores
	// only full-stripe chunks, so any store whose byte usage is not a
	// whole multiple of the chunk size kept a partial payload that its
	// write protocol should have discarded.
	for i, f := range svc.Faults {
		count, bytesUsed := f.Usage()
		if bytesUsed != int64(count)*cfg.ChunkSize {
			return report, failf(cfg.Seed, "provider %d holds %d bytes over %d chunks — a torn upload persisted",
				i, bytesUsed, count)
		}
	}

	// Every published version reads back byte-for-byte over the framed
	// transport. At R>=2 the victim is still down here, so every one of
	// these reads that touches a victim-placed chunk is a degraded read
	// reconstructing from the surviving replicas.
	client, err := remote.DialFramed(ep)
	if err != nil {
		return report, err
	}
	defer client.Close()
	handles := make(map[int]*blob.Blob)
	for _, pub := range oks {
		b := handles[pub.writer]
		if b == nil {
			if b, err = blob.Open(client.Services(), uint64(pub.writer+1)); err != nil {
				return report, err
			}
			handles[pub.writer] = b
		}
		got, err := b.ReadAt(pub.version, 0, objSize)
		if err != nil {
			return report, failf(cfg.Seed, "published version %d of writer %d unreadable: %w",
				pub.version, pub.writer, err)
		}
		if !bytes.Equal(got, streamPayload(pub.writer, pub.object, objSize)) {
			return report, failf(cfg.Seed, "version %d of writer %d corrupt after the kill", pub.version, pub.writer)
		}
		report.Verified++
	}
	return report, nil
}
