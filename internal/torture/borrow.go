package torture

import (
	"bytes"
	"errors"
	"sync"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/verify"
	"repro/internal/vmanager"
)

// BorrowConfig parameterizes the borrow-hazard schedule. On one blob at
// R=1, pairs of overlapping writers run one pair after another. In each
// pair the first writer, the victim, fails: one of its chunk puts is
// held until the second writer, the peer, has been assigned a ticket —
// whose borrow answers name the victim's version — and then fails. The
// peer's tree therefore points at nodes of the failed version, so the
// failed ticket must be retired in a way that makes every such node
// exist and show nothing of the failed write.
type BorrowConfig struct {
	// Seed drives the plan; equal seeds replay equal runs.
	Seed int64
}

// Every borrow-hazard run plans borrowPairs pairs on a blob of
// borrowPages pages (a power of two) of borrowPage bytes, its stripe unit
// and leaf size.
const (
	borrowPairs = 4
	borrowPage  = 1 << 10
	borrowPages = 16
)

// BorrowPair is one victim/peer pair. The victim writes one extent over
// 2-4 pages and its put number FailPut, counted from 1 in the order the
// puts reach the store, is held and then fails. The peer writes inside
// one of the victim's pages, plus at times an extent clear of the
// victim's pages — so the peer's tree borrows at least one subtree the
// victim wrote.
type BorrowPair struct {
	Victim, Peer extent.List
	FailPut      int
}

// BorrowPlan is the seed-derived schedule.
type BorrowPlan struct {
	Pairs []BorrowPair
}

// Plan derives the pairs from the seed.
func (c BorrowConfig) Plan() BorrowPlan {
	rng := planRNG(c.Seed, 0x626f72726f772d31) // "borrow-1"
	capacity := int64(borrowPage * borrowPages)
	var p BorrowPlan
	for i := 0; i < borrowPairs; i++ {
		pages := 2 + rng.Intn(3)
		first := rng.Int63n(int64(borrowPages-pages+1)) * borrowPage
		last := first + int64(pages-1)*borrowPage
		off := first + rng.Int63n(borrowPage)
		end := last + 1 + rng.Int63n(borrowPage)

		at := off + rng.Int63n(end-off) // a byte the victim writes
		length := 1 + rng.Int63n(min(end, at-at%borrowPage+borrowPage)-at)
		peer := extent.List{{Offset: at, Length: length}}
		if rng.Intn(2) == 0 {
			o := rng.Int63n(capacity)
			e := extent.Extent{Offset: o, Length: 1 + rng.Int63n(min(borrowPage, capacity-o))}
			if !e.Overlaps(extent.Extent{Offset: first, Length: last + borrowPage - first}) {
				peer = append(peer, e).Normalize()
			}
		}
		p.Pairs = append(p.Pairs, BorrowPair{
			Victim:  extent.List{{Offset: off, Length: end - off}},
			Peer:    peer,
			FailPut: 1 + rng.Intn(pages),
		})
	}
	return p
}

// BorrowReport summarizes one borrow-hazard run.
type BorrowReport struct {
	Plan      BorrowPlan
	Committed int // committed versions read back serializable
	Retired   int // failed tickets that read as their predecessor
}

// ticketHook is a version service that runs then, once, as soon as the
// first AssignTicket through it has returned.
type ticketHook struct {
	blob.VersionService
	once sync.Once
	then func()
}

func (h *ticketHook) AssignTicket(b uint64, e extent.List) (vmanager.Ticket, error) {
	tk, err := h.VersionService.AssignTicket(b, e)
	h.once.Do(h.then)
	return tk, err
}

// RunBorrow executes the borrow-hazard schedule and checks that a failed
// write leaves nothing behind for a concurrent borrower:
//
//   - every committed version reads back whole and passes the
//     serializability check against the calls committed up to it — a
//     byte of a failed write is foreign data, a node it never stored a
//     failed read;
//   - every failed ticket's version reads identical to its predecessor;
//   - no ticket was aborted (bs_vm_abort_total stays 0): a failed write
//     retires its ticket with a tombstone.
//
// Version 1 stamps every byte of the blob, so the check sees every byte.
// The victim writes in a goroutine of its own only because its held put
// blocks it; the order of events is fixed by the hold and the hook, not
// by the scheduler.
func RunBorrow(cfg BorrowConfig) (BorrowReport, error) {
	env := cluster.Default()
	env.Providers = 1 // every chunk put reaches the one store the hold is armed on
	env.ChunkSize = borrowPage
	env.FaultInjection = true
	span := int64(borrowPage * borrowPages)
	r, err := boot(env, span)
	if err != nil {
		return BorrowReport{}, err
	}
	plan := cfg.Plan()
	report := BorrowReport{Plan: plan}
	svc := r.svc.Services()
	writer := r.be.Blob()
	write := func(b *blob.Blob, c verify.Call) (uint64, error) {
		vec, err := verify.MakeVec(c)
		if err != nil {
			return 0, err
		}
		// The option is deprecated and ignored; setting it makes the
		// schedule drive the pipelined write path of releases that still
		// have one.
		return b.WriteList(vec, blob.WriteOptions{Pipelined: true})
	}

	calls := []verify.Call{{ID: 1, Extents: extent.List{{Offset: 0, Length: span}}}}
	v, err := write(writer, calls[0])
	if err != nil {
		return report, err
	}
	committed := []uint64{v}
	var failed []uint64
	for i, pair := range plan.Pairs {
		victim := verify.Call{ID: 2*i + 2, Extents: pair.Victim}
		peer := verify.Call{ID: 2*i + 3, Extents: pair.Peer}
		held, release := r.svc.Faults[0].HoldPut(int64(pair.FailPut))
		peerSvc := svc
		peerSvc.VM = &ticketHook{VersionService: svc.VM, then: func() { release(true) }}
		peerBlob, err := blob.Open(peerSvc, writer.ID())
		if err != nil {
			return report, err
		}
		victimErr := make(chan error, 1)
		go func() {
			_, err := write(writer, victim)
			victimErr <- err
		}()
		<-held
		pv, err := write(peerBlob, peer)
		// The peer's ticket released the held put, so the victim returns.
		if verr := <-victimErr; !errors.Is(verr, chunk.ErrInjected) {
			return report, failf(cfg.Seed, "pair %d: victim write returned %v, want the held put's injected fault", i, verr)
		}
		if err != nil {
			return report, failf(cfg.Seed, "pair %d: peer write failed: %w", i, err)
		}
		if want := committed[len(committed)-1] + 2; pv != want {
			return report, failf(cfg.Seed, "pair %d: peer committed version %d, want %d", i, pv, want)
		}
		calls = append(calls, peer)
		committed = append(committed, pv)
		failed = append(failed, pv-1)
	}

	// A reader of its own, whose node cache holds nothing the writers
	// stored.
	reader, err := blob.Open(svc, writer.ID())
	if err != nil {
		return report, err
	}
	for i, v := range committed {
		image, err := reader.ReadAt(v, 0, span)
		if err != nil {
			return report, failf(cfg.Seed, "committed version %d unreadable: %w", v, err)
		}
		if err := verify.CheckSerializable(image, 0, calls[:i+1]); err != nil {
			return report, failf(cfg.Seed, "committed version %d: %w", v, err)
		}
		report.Committed++
	}
	for _, v := range failed {
		got, err := reader.ReadAt(v, 0, span)
		if err != nil {
			return report, failf(cfg.Seed, "failed ticket's version %d unreadable: %w", v, err)
		}
		prev, err := reader.ReadAt(v-1, 0, span)
		if err != nil {
			return report, err
		}
		if !bytes.Equal(got, prev) {
			return report, failf(cfg.Seed, "failed ticket's version %d does not read as version %d", v, v-1)
		}
		report.Retired++
	}
	if n := r.svc.Metrics.Counter("bs_vm_abort_total").Value(); n != 0 {
		return report, failf(cfg.Seed, "%d tickets aborted; a failed write must retire its ticket with a tombstone", n)
	}
	return report, nil
}
