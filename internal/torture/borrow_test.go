package torture

import (
	"fmt"
	"testing"

	"repro/internal/extent"
)

// TestBorrowRetiresFailedTickets runs the borrow-hazard schedule: a
// write that fails after an overlapping peer has borrowed from its
// ticket must leave the peer's snapshot whole and serializable, read as
// its predecessor itself, and abort nothing.
func TestBorrowRetiresFailedTickets(t *testing.T) {
	for _, seed := range seeds(t) {
		rep, err := RunBorrow(BorrowConfig{Seed: seed})
		if err != nil {
			t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
		}
		if pairs := len(rep.Plan.Pairs); rep.Committed != pairs+1 || rep.Retired != pairs {
			t.Fatalf("seed %d: %d committed and %d retired over %d pairs", seed, rep.Committed, rep.Retired, pairs)
		}
	}
}

// TestBorrowPlanDeterminism: equal seeds plan equal pairs; every victim
// spans at least two pages and fails a put it makes; every peer
// overlaps its victim yet leaves one of the victim's pages untouched, so
// its tree borrows from the victim; and plans vary with the seed.
func TestBorrowPlanDeterminism(t *testing.T) {
	a, b := BorrowConfig{Seed: 5}.Plan(), BorrowConfig{Seed: 5}.Plan()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	for seed := int64(1); seed <= 64; seed++ {
		for i, p := range (BorrowConfig{Seed: seed}).Plan().Pairs {
			v := p.Victim.Bounding()
			first, last := v.Offset/borrowPage, (v.End()-1)/borrowPage
			if len(p.Victim) != 1 || last == first || p.FailPut < 1 || int64(p.FailPut) > last-first+1 {
				t.Fatalf("seed %d pair %d: victim %v fails put %d", seed, i, p.Victim, p.FailPut)
			}
			if v.End() > borrowPage*borrowPages || !p.Peer.IntersectsExtent(v) {
				t.Fatalf("seed %d pair %d: peer %v does not overlap victim %v inside the blob", seed, i, p.Peer, p.Victim)
			}
			untouched := 0
			for pg := first; pg <= last; pg++ {
				if !p.Peer.IntersectsExtent(extent.Extent{Offset: pg * borrowPage, Length: borrowPage}) {
					untouched++
				}
			}
			if untouched == 0 {
				t.Fatalf("seed %d pair %d: peer %v touches every page of victim %v", seed, i, p.Peer, p.Victim)
			}
		}
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		seen[fmt.Sprint(BorrowConfig{Seed: seed}.Plan())] = true
	}
	if len(seen) < 2 {
		t.Fatal("plans do not vary with the seed")
	}
}
