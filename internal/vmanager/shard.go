package vmanager

import (
	"strconv"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

// Sharded partitions blobs across N independent Managers by a stable
// hash of the blob ID, removing the single-control-server ceiling: each
// shard keeps its own lock, its own exclusive control meter, and its own
// group-commit combiners, so control traffic for different blobs
// proceeds in parallel. The API is the same VersionService the client
// already speaks — every method routes to the owning shard, and group
// commit happens inside that shard's Manager.
//
// The blob→shard mapping is a pure function of (blob ID, shard count):
// stable across restarts and across router instances, so ownership can
// be computed anywhere (see ShardIndex). Changing the shard count
// remaps blobs; resharding live state is out of scope.
type Sharded struct {
	shards []*Manager
}

// ShardIndex returns the owning shard of a blob in an n-shard control
// plane. The mapping must be stable forever — it is the unit the
// torture suite and operators reason about — so it is a fixed bit mixer
// (the splitmix64 finalizer) reduced mod n, not anything seeded or
// map-iteration dependent.
func ShardIndex(blob uint64, n int) int {
	if n <= 1 {
		return 0
	}
	x := blob
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// NewSharded creates an n-shard control plane, each shard a full
// Manager charged with the given cost model (so n shards really are n
// control servers in the simulation — n exclusive meters queueing
// independently). n < 1 is treated as 1; a 1-shard control plane
// behaves exactly like a lone Manager.
func NewSharded(model iosim.CostModel, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Manager, n)}
	for i := range s.shards {
		s.shards[i] = New(model)
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard exposes one shard's Manager — the fault-injection seam the
// torture suite kills and restarts.
func (s *Sharded) Shard(i int) *Manager { return s.shards[i] }

// RestartShard restarts one shard, returning the versions it
// recovery-aborted (see Manager.Restart).
func (s *Sharded) RestartShard(i int) []VersionRef { return s.shards[i].Restart() }

// ShardStatuses reports every shard's status, in shard order.
func (s *Sharded) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(s.shards))
	for i, m := range s.shards {
		out[i] = m.Status(i)
	}
	return out
}

// SetBatching configures group commit on every shard.
func (s *Sharded) SetBatching(cfg BatchConfig) {
	for _, m := range s.shards {
		m.SetBatching(cfg)
	}
}

// SetMetrics wires every shard into the registry. A single shard keeps
// the unlabeled bs_vm_* series (identical to a lone Manager, so
// dashboards and assertions built before sharding keep working); with
// more shards each gets a shard=<i> label — new series under the
// existing names, no renames.
func (s *Sharded) SetMetrics(reg *metrics.Registry) {
	if len(s.shards) == 1 {
		s.shards[0].SetMetrics(reg)
		return
	}
	for i, m := range s.shards {
		m.SetMetrics(reg, metrics.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
}

// Blobs returns the IDs of all registered blobs across all shards.
func (s *Sharded) Blobs() []uint64 {
	var out []uint64
	for _, m := range s.shards {
		out = append(out, m.Blobs()...)
	}
	return out
}

// --- VersionService: every call routes to the blob's owning shard ---

func (s *Sharded) route(blob uint64) *Manager { return s.shards[ShardIndex(blob, len(s.shards))] }

func (s *Sharded) CreateBlob(blob uint64, geo segtree.Geometry) error {
	return s.route(blob).CreateBlob(blob, geo)
}

func (s *Sharded) Geometry(blob uint64) (segtree.Geometry, error) {
	return s.route(blob).Geometry(blob)
}

func (s *Sharded) AssignTicket(blob uint64, e extent.List) (Ticket, error) {
	return s.route(blob).AssignTicket(blob, e)
}

func (s *Sharded) Complete(blob, v uint64, root segtree.NodeKey) error {
	return s.route(blob).Complete(blob, v, root)
}

func (s *Sharded) Abort(blob, v uint64) error { return s.route(blob).Abort(blob, v) }

func (s *Sharded) WaitPublished(blob, v uint64) error { return s.route(blob).WaitPublished(blob, v) }

func (s *Sharded) LatestPublished(blob uint64) (SnapshotInfo, error) {
	return s.route(blob).LatestPublished(blob)
}

func (s *Sharded) Snapshot(blob, v uint64) (SnapshotInfo, error) {
	return s.route(blob).Snapshot(blob, v)
}

func (s *Sharded) Versions(blob uint64) ([]uint64, error) { return s.route(blob).Versions(blob) }

func (s *Sharded) Retain(blob uint64, keepLast int) ([]uint64, error) {
	return s.route(blob).Retain(blob, keepLast)
}

func (s *Sharded) DropVersion(blob, v uint64) error { return s.route(blob).DropVersion(blob, v) }

func (s *Sharded) Pin(blob, v uint64) error { return s.route(blob).Pin(blob, v) }

func (s *Sharded) Unpin(blob, v uint64) error { return s.route(blob).Unpin(blob, v) }

func (s *Sharded) GCInfo(blob uint64) (GCInfo, error) { return s.route(blob).GCInfo(blob) }

func (s *Sharded) MarkReclaimed(blob, v uint64) error { return s.route(blob).MarkReclaimed(blob, v) }
