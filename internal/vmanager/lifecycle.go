package vmanager

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/segtree"
)

// Version lifecycle: published snapshots are no longer immortal. A
// published version moves through three states:
//
//	retained  — readable; the default state of every published version.
//	dropped   — removed from the readable set by DropVersion or Retain;
//	            its root is kept pending so the garbage collector can
//	            compute which chunks became unreferenced.
//	reclaimed — the collector confirmed the version's exclusively
//	            referenced chunks were deleted; the manager forgets the
//	            root (MarkReclaimed).
//
// Protections: the latest published version and version 0 are never
// droppable, and a version pinned by a reader (Pin/Unpin, counted) is
// skipped by Retain and refused by DropVersion. Dropping is a metadata
// operation only — the version's segment-tree nodes stay in the
// metadata store because later versions may have borrowed them
// (shadowing), and its chunks stay on the providers until the reaper
// proves no retained version can reach them (see core.Reaper and
// segtree.ExclusiveChunks).
var (
	// ErrVersionDropped is returned when a dropped version is read,
	// pinned, or dropped twice.
	ErrVersionDropped = errors.New("vmanager: version dropped")
	// ErrVersionPinned is returned by DropVersion for a pinned version.
	ErrVersionPinned = errors.New("vmanager: version pinned")
	// ErrUndroppable is returned for versions that must always survive:
	// version 0 and the latest published snapshot.
	ErrUndroppable = errors.New("vmanager: version not droppable")
	// ErrNotPinned is returned by Unpin without a matching Pin.
	ErrNotPinned = errors.New("vmanager: version not pinned")
	// ErrNotPending is returned by MarkReclaimed for a version that is
	// not awaiting reclamation.
	ErrNotPending = errors.New("vmanager: version not pending reclamation")
)

// PendingDrop describes one dropped version awaiting chunk
// reclamation: the collector needs its root (to walk its refs) and its
// size (bookkeeping only; the walk is size-free).
type PendingDrop struct {
	Version uint64
	Root    segtree.NodeKey
	Size    int64
}

// GCInfo is the lifecycle snapshot the garbage collector plans a pass
// from: which versions are retained (and so protect every chunk their
// trees reach) and which dropped versions still await reclamation.
type GCInfo struct {
	Published uint64        // newest published version
	Retained  []uint64      // published, not dropped (includes 0), ascending
	Pending   []PendingDrop // dropped, not yet reclaimed, ascending
	Pinned    []uint64      // currently pinned versions, ascending
	Reclaimed uint64        // versions fully reclaimed so far
}

// Pin protects a published version from DropVersion and Retain until a
// matching Unpin, so a reader can hold a snapshot open across
// retention passes. Pins are counted: concurrent readers of the same
// version each pin it.
func (m *Manager) Pin(blob, v uint64) error {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return err
	}
	defer m.mu.Unlock()
	if v > st.published {
		return fmt.Errorf("%w: %d (published %d)", ErrUnknownVersion, v, st.published)
	}
	if st.dropped[v] {
		return fmt.Errorf("%w: %d", ErrVersionDropped, v)
	}
	st.pins[v]++
	return nil
}

// Unpin releases one Pin of the version.
func (m *Manager) Unpin(blob, v uint64) error {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return err
	}
	defer m.mu.Unlock()
	if st.pins[v] == 0 {
		return fmt.Errorf("%w: %d", ErrNotPinned, v)
	}
	st.pins[v]--
	if st.pins[v] == 0 {
		delete(st.pins, v)
	}
	return nil
}

// DropVersion removes one published version from the readable set and
// queues it for chunk reclamation. Version 0, the latest published
// version, and pinned versions are refused; dropping twice fails with
// ErrVersionDropped.
func (m *Manager) DropVersion(blob, v uint64) error {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return err
	}
	defer m.mu.Unlock()
	return st.dropLocked(v)
}

// dropLocked applies the drop rules to one version; callers hold m.mu.
func (st *blobState) dropLocked(v uint64) error {
	if v > st.published {
		return fmt.Errorf("%w: %d (published %d)", ErrUnknownVersion, v, st.published)
	}
	if v == 0 || v == st.published {
		return fmt.Errorf("%w: %d", ErrUndroppable, v)
	}
	if st.pins[v] > 0 {
		return fmt.Errorf("%w: %d (%d pins)", ErrVersionPinned, v, st.pins[v])
	}
	if st.dropped[v] {
		return fmt.Errorf("%w: %d", ErrVersionDropped, v)
	}
	st.dropped[v] = true
	st.pending[v] = true
	return nil
}

// Retain applies the retention policy: every published version older
// than the newest keepLast is dropped, except version 0, pinned
// versions, and versions already dropped. It returns the versions
// newly dropped by this call, ascending. keepLast must be >= 1 (the
// latest published version is always retained).
func (m *Manager) Retain(blob uint64, keepLast int) ([]uint64, error) {
	if keepLast < 1 {
		return nil, fmt.Errorf("vmanager: Retain needs keepLast >= 1, got %d", keepLast)
	}
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return nil, err
	}
	defer m.mu.Unlock()
	if st.published <= uint64(keepLast) {
		return nil, nil
	}
	var droppedNow []uint64
	for v := uint64(1); v <= st.published-uint64(keepLast); v++ {
		if st.dropped[v] || st.pins[v] > 0 {
			continue
		}
		if err := st.dropLocked(v); err != nil {
			return droppedNow, err
		}
		droppedNow = append(droppedNow, v)
	}
	return droppedNow, nil
}

// GCInfo returns the blob's lifecycle snapshot for a collector pass.
func (m *Manager) GCInfo(blob uint64) (GCInfo, error) {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return GCInfo{}, err
	}
	defer m.mu.Unlock()
	info := GCInfo{Published: st.published, Reclaimed: st.reclaimed}
	for v := uint64(0); v <= st.published; v++ {
		if !st.dropped[v] {
			info.Retained = append(info.Retained, v)
		}
	}
	for v := range st.pending {
		info.Pending = append(info.Pending, PendingDrop{Version: v, Root: st.roots[v], Size: st.sizes[v]})
	}
	sort.Slice(info.Pending, func(i, j int) bool { return info.Pending[i].Version < info.Pending[j].Version })
	for v := range st.pins {
		info.Pinned = append(info.Pinned, v)
	}
	sort.Slice(info.Pinned, func(i, j int) bool { return info.Pinned[i] < info.Pinned[j] })
	return info, nil
}

// MarkReclaimed records that the collector deleted every chunk
// exclusively referenced by a pending dropped version; the manager
// forgets the version's root and size. Only versions reported in
// GCInfo.Pending may be marked.
func (m *Manager) MarkReclaimed(blob, v uint64) error {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return err
	}
	defer m.mu.Unlock()
	if !st.pending[v] {
		return fmt.Errorf("%w: %d", ErrNotPending, v)
	}
	delete(st.pending, v)
	delete(st.roots, v)
	delete(st.sizes, v)
	delete(st.completed, v)
	delete(st.aborted, v)
	st.reclaimed++
	return nil
}
