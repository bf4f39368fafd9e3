package blob

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

var errMetaFault = errors.New("injected metadata fault")

// faultyMeta is a node store that fails, while armed, every try-get,
// every put, or the one put that comes next.
type faultyMeta struct {
	segtree.NodeStore
	failTryGets, failPuts, failOnePut atomic.Bool
}

func (m *faultyMeta) TryGetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	if m.failTryGets.Load() {
		return nil, false, errMetaFault
	}
	return m.NodeStore.TryGetNode(blob, key)
}

func (m *faultyMeta) PutNode(blob uint64, key segtree.NodeKey, n *segtree.Node) error {
	if m.failPuts.Load() || m.failOnePut.CompareAndSwap(true, false) {
		return errMetaFault
	}
	return m.NodeStore.PutNode(blob, key, n)
}

// TestWriteFailureRetiresTicket holds the write path to its one failure
// rule: no node of a ticket is put before its chunks and its predecessor
// look-ups have succeeded, so a write that fails at either retires its
// ticket with a tombstone — the version publishes, reads identical to its
// predecessor, and no abort is counted. A write whose node list fails
// leaves the ticket to Abort: when the metadata service refuses every
// put, and when the list fails partway — the leaves that were stored
// under the ticket differ from the tombstone's, so the tombstone is
// refused too. The second case is the rule's known gap (a borrower that
// took its ticket before the abort may see part of the failed write);
// this test pins it. Either way later writes publish and earlier
// snapshots survive.
func TestWriteFailureRetiresTicket(t *testing.T) {
	for name, tc := range map[string]struct {
		arm     func(store *chunk.FaultStore, meta *faultyMeta) (disarm func())
		aborted bool
	}{
		"a chunk put fails": {arm: func(store *chunk.FaultStore, _ *faultyMeta) func() {
			store.FailNextPuts(100)
			return func() { store.FailNextPuts(0) }
		}},
		"a predecessor look-up fails": {arm: func(_ *chunk.FaultStore, meta *faultyMeta) func() {
			meta.failTryGets.Store(true)
			return func() { meta.failTryGets.Store(false) }
		}},
		"the metadata service refuses the write and its tombstone": {arm: func(_ *chunk.FaultStore, meta *faultyMeta) func() {
			meta.failPuts.Store(true)
			return func() { meta.failPuts.Store(false) }
		}, aborted: true},
		"a node put fails partway through the list": {arm: func(_ *chunk.FaultStore, meta *faultyMeta) func() {
			meta.failOnePut.Store(true)
			return func() { meta.failOnePut.Store(false) }
		}, aborted: true},
	} {
		t.Run(name, func(t *testing.T) {
			mgr, faults := provider.NewFaultPool(1, iosim.CostModel{})
			vm := vmanager.New(iosim.CostModel{})
			reg := metrics.NewRegistry()
			vm.SetMetrics(reg)
			meta := &faultyMeta{NodeStore: metadata.NewStore(4, iosim.CostModel{})}
			svc := Services{VM: vm, Meta: meta, Data: provider.NewRouter(mgr)}
			b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := b.WriteList(fillVec(t, extent.List{{Offset: 0, Length: 4096}}, 1), WriteOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// The failed write goes through a handle of its own, whose node
			// cache has not seen v1's leaves: its partial pages' look-ups
			// reach the store.
			victim, err := Open(svc, 1)
			if err != nil {
				t.Fatal(err)
			}
			disarm := tc.arm(faults[0], meta)
			bad := fillVec(t, extent.List{{Offset: 100, Length: 3000}}, 2)
			if _, err := victim.WriteList(bad, WriteOptions{}); err == nil {
				t.Fatal("write through injected faults must fail")
			}
			disarm()

			info, err := vm.Snapshot(1, v1+1)
			if err != nil {
				t.Fatalf("failed ticket not published: %v", err)
			}
			if tombstone := info.Root.Version == v1+1; tombstone == tc.aborted {
				t.Fatalf("failed ticket's root is %v: tombstone = %v, want %v", info.Root, tombstone, !tc.aborted)
			}
			want := int64(0)
			if tc.aborted {
				want = 1
			}
			if got := reg.Counter("bs_vm_abort_total").Value(); got != want {
				t.Fatalf("bs_vm_abort_total = %d, want %d", got, want)
			}
			image := bytes.Repeat([]byte{1}, 4096)
			if got, err := b.ReadAt(v1+1, 0, 4096); err != nil || !bytes.Equal(got, image) {
				t.Fatalf("failed version does not read as its predecessor (err %v)", err)
			}

			// Later writes publish, and the earlier snapshot is intact.
			v3, err := b.WriteList(fillVec(t, extent.List{{Offset: 1024, Length: 1024}}, 3), WriteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.ReadAt(v3, 0, 4096)
			if err != nil {
				t.Fatal(err)
			}
			copy(image[1024:2048], bytes.Repeat([]byte{3}, 1024))
			if !bytes.Equal(got, image) {
				t.Fatal("snapshot after the failed write diverges (torn write published?)")
			}
			if old, err := b.ReadAt(v1, 0, 4096); err != nil || !bytes.Equal(old, bytes.Repeat([]byte{1}, 4096)) {
				t.Fatalf("earlier snapshot corrupted by the failed write: %v", err)
			}
		})
	}
}
