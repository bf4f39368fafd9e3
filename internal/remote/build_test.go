package remote

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// placedPieces cuts l at page boundaries into the pieces a write of
// version v places, one chunk each, as blob.storeChunks does.
func placedPieces(v uint64, l extent.List, page int64) []segtree.Placed {
	var placed []segtree.Placed
	for _, e := range l.Normalize() {
		for off := e.Offset; off < e.End(); {
			n := min((off/page+1)*page, e.End()) - off
			ref := chunk.Ref{Key: chunk.Key{Blob: 1, Version: v, Index: uint32(len(placed))}, Length: n}
			placed = append(placed, segtree.Placed{Ext: extent.Extent{Offset: off, Length: n}, Ref: ref})
			off += n
		}
	}
	return placed
}

// storedFrom returns every node reachable from roots — children and chain
// links — in store, each in its binary form, and how many of them are
// leaves chained to a predecessor.
func storedFrom(t *testing.T, store segtree.NodeStore, roots []segtree.NodeKey) (map[segtree.NodeKey]string, int) {
	t.Helper()
	nodes, chained := map[segtree.NodeKey]string{}, 0
	for todo := roots; len(todo) > 0; {
		key := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if key.IsZero() || nodes[key] != "" {
			continue
		}
		n, err := store.GetNode(1, key)
		if err != nil {
			t.Fatal(err)
		}
		nodes[key] = string(segtree.AppendNode(nil, n))
		if n.Leaf && !n.Prev.IsZero() {
			chained++
		}
		todo = append(todo, n.Left, n.Right, n.Prev)
	}
	return nodes, chained
}

// TestBuildOpAndLocalBuildAgree: a build sent as op 22 stores, byte for
// byte, the node set a local Build stores over the same store contents,
// and answers the same root — for a tile-shaped update whose partial
// leaves flatten over stored predecessors, for one whose predecessor is
// not stored yet, so its leaves chain, and for one of whole pages.
func TestBuildOpAndLocalBuildAgree(t *testing.T) {
	const page = 4 << 10
	geo := segtree.Geometry{Capacity: 64 * page, Page: page}
	rows := func(n int, first, pitch, length int64) extent.List {
		l := make(extent.List, n)
		for i := range l {
			l[i] = extent.Extent{Offset: first + int64(i)*pitch, Length: length}
		}
		return l
	}
	preload := extent.List{{Offset: 0, Length: 32 * page}}
	for _, tc := range []struct {
		name    string
		writes  []extent.List // in ticket order
		order   []int         // the order they are built in
		chained bool
	}{
		{"tile over a preloaded image", []extent.List{preload, rows(16, 1000, 2*page, 1500)}, []int{0, 1}, false},
		{"predecessor not stored yet", []extent.List{preload, rows(8, 3*page+100, 3*page, 700)}, []int{1, 0}, true},
		{"whole pages", []extent.List{preload, {{Offset: 4 * page, Length: 8 * page}, {Offset: 40 * page, Length: page}}}, []int{0, 1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm := vmanager.New(iosim.CostModel{})
			if err := vm.CreateBlob(1, geo); err != nil {
				t.Fatal(err)
			}
			tickets := make([]vmanager.Ticket, len(tc.writes))
			for i, l := range tc.writes {
				var err error
				if tickets[i], err = vm.AssignTicket(1, l); err != nil {
					t.Fatal(err)
				}
			}
			node, ep := startNode(t)
			local := metadata.NewStore(2, iosim.CostModel{})
			trees := map[string]*segtree.Tree{
				"local": {Blob: 1, Geo: geo, Store: local},
				"op":    {Blob: 1, Geo: geo, Store: dialClient(t, ep)},
			}
			roots := map[string][]segtree.NodeKey{}
			for _, i := range tc.order {
				tk := tickets[i]
				placed := placedPieces(tk.Version, tc.writes[i], page)
				for name, tree := range trees {
					root, err := tree.Build(tk.Version, placed, tk.Borrows)
					if err != nil {
						t.Fatalf("%s build of v%d: %v", name, tk.Version, err)
					}
					roots[name] = append(roots[name], root)
				}
			}
			if !slices.Equal(roots["local"], roots["op"]) {
				t.Fatalf("roots: local %v, op %v", roots["local"], roots["op"])
			}
			want, chained := storedFrom(t, local, roots["local"])
			got, _ := storedFrom(t, node.fr.nodes, roots["op"])
			if !maps.Equal(got, want) || local.Count() != len(want) || node.fr.nodes.Count() != local.Count() {
				t.Fatalf("the op stored %d nodes (%d reachable), a local build %d (%d reachable); equal: %v",
					node.fr.nodes.Count(), len(got), local.Count(), len(want), maps.Equal(got, want))
			}
			if (chained > 0) != tc.chained {
				t.Fatalf("%d chained leaves, want some: %v", chained, tc.chained)
			}
		})
	}
}

// buildCounts reads the meta role's node ops from reg: builds, node puts,
// node try-gets.
func buildCounts(reg *metrics.Registry) (builds, puts, tryGets float64) {
	snap := reg.Snapshot()
	return snap[`bs_meta_node_ops_total{op="build"}`], snap[`bs_meta_node_ops_total{op="put"}`], snap[`bs_meta_node_ops_total{op="tryget"}`]
}

// TestFramedWriteIsOneBuild: a write through a framed client builds its
// tree in one build request — no node put, no try-get — whether it is the
// first write of its pages or a tile of partial pages over them, and
// reads back.
func TestFramedWriteIsOneBuild(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ep := startCountedNode(t, "mem://", reg)
	const page = 4 << 10
	geo := segtree.Geometry{Capacity: 64 * page, Page: page}
	w, err := blob.Create(dialClient(t, ep).Services(), 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, geo.Capacity)
	for i, l := range []extent.List{
		{{Offset: 0, Length: 32 * page}},
		{{Offset: 100, Length: 1000}, {Offset: 2*page + 100, Length: 1000}, {Offset: 9*page - 50, Length: 100}},
	} {
		builds, puts, tryGets := buildCounts(reg)
		vec, err := extent.NewVec(l, bytes.Repeat([]byte{byte(i + 1)}, int(l.TotalLength())))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteList(vec, blob.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		vec.ScatterInto(img, 0)
		if b, p, g := buildCounts(reg); b-builds != 1 || p != puts || g != tryGets {
			t.Fatalf("write %d made %v builds, %v node puts and %v try-gets, want 1, 0 and 0", i+1, b-builds, p-puts, g-tryGets)
		}
	}
	got, _, err := w.ReadLatest(extent.List{geo.Root()})
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("read back: %v, or the bytes differ", err)
	}
}

// TestBuildIsNeverResent: a build whose connection dies before the reply
// fails; it is not sent again, though the pool re-sends a node put that
// loses its connection the same way — both to a live node, which counts
// the put and no build.
func TestBuildIsNeverResent(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ep := startCountedNode(t, "mem://", reg)
	geo := segtree.Geometry{Capacity: 16 << 10, Page: 4 << 10}
	c := &Client{nodes: newFramedPool(ep.Meta)}
	t.Cleanup(c.nodes.close)

	sent := pipedPeer(t, c.nodes, nil) // reads one request and hangs up unanswered
	if _, err := c.BuildTree(1, geo, 1, placedPieces(1, extent.List{{Offset: 0, Length: 100}}, geo.Page), nil); err == nil {
		t.Fatal("a build whose connection died succeeded")
	}
	if req := <-sent; req[0] != opBuildTree {
		t.Fatalf("the peer read op %d", req[0])
	}
	pipedPeer(t, c.nodes, nil)
	if err := c.PutNode(1, segtree.NodeKey{Version: 1, Size: 4 << 10}, leafNode(1)); err != nil {
		t.Fatalf("a node put re-sent to the live node: %v", err)
	}
	if builds, puts, _ := buildCounts(reg); builds != 0 || puts != 1 {
		t.Fatalf("the live node counted %v builds and %v node puts, want 0 and 1", builds, puts)
	}
}

// TestRefusedBuildRetiresTicket: a build the meta role refuses — a node
// of it already stored with other content — fails the write and retires
// its ticket, and the next version publishes and reads back.
func TestRefusedBuildRetiresTicket(t *testing.T) {
	node, ep := startNode(t)
	const page = 1 << 10
	geo := segtree.Geometry{Capacity: 64 * page, Page: page}
	w, err := blob.Create(dialClient(t, ep).Services(), 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(0, bytes.Repeat([]byte{7}, 3*page), blob.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := node.fr.nodes.PutNode(1, segtree.NodeKey{Version: 2, Size: geo.Capacity}, &segtree.Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(page, bytes.Repeat([]byte{8}, page), blob.WriteOptions{}); err == nil || !strings.Contains(err.Error(), metadata.ErrExists.Error()) {
		t.Fatalf("a write whose root is already stored: %v", err)
	}
	v, err := w.Write(2*page, bytes.Repeat([]byte{9}, page), blob.WriteOptions{})
	if err != nil || v != 3 {
		t.Fatalf("the write after it: v%d, %v", v, err)
	}
	got, latest, err := w.ReadLatest(extent.List{{Offset: 0, Length: 4 * page}})
	want := append(append(bytes.Repeat([]byte{7}, 2*page), bytes.Repeat([]byte{9}, page)...), make([]byte, page)...)
	if err != nil || latest != 3 || !bytes.Equal(got, want) {
		t.Fatalf("ReadLatest: v%d, %v, or the bytes differ", latest, err)
	}
}

// TestFramedServerBoundsBuild speaks the raw wire protocol: what a build
// request carries comes straight off the wire, so a geometry that fails
// Validate, counts past the body, bytes after it, pieces out of order or
// across a page, and tickets no write holds are each refused in-band, and
// the legal build behind them on the same connection is answered with
// its root.
func TestFramedServerBoundsBuild(t *testing.T) {
	_, ep := startNode(t)
	geo := segtree.Geometry{Capacity: 16 << 10, Page: 4 << 10}
	tk := vmanager.Ticket{Version: 2, Borrows: map[extent.Extent]uint64{{Offset: 0, Length: 4 << 10}: 1}}
	placed := placedPieces(2, extent.List{{Offset: 100, Length: 100}, {Offset: 5000, Length: 100}}, geo.Page)
	legal := appendBuild(geo, tk, placed)
	ticketAt := buildGeoLen                                                   // the ticket's version
	placedAt := buildGeoLen + buildTicketMin + buildBorrowLen*len(tk.Borrows) // the piece count
	patched := func(at int, v uint64, size int) []byte {
		b := bytes.Clone(legal)
		if size == 4 {
			binary.LittleEndian.PutUint32(b[at:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(b[at:], v)
		}
		return b
	}
	swapped := []segtree.Placed{placed[1], placed[0]}
	across := []segtree.Placed{{Ext: extent.Extent{Offset: 4000, Length: 200}, Ref: placed[0].Ref}}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"a geometry that fails Validate", "power-of-two multiple", appendBuild(segtree.Geometry{Capacity: 12 << 10, Page: 4 << 10}, tk, placed)},
		{"a ticket whose count lies", "claims 9 borrows", patched(ticketAt+8, 9, 4)},
		{"a piece count past the body", "claims 3 pieces", patched(placedAt, 3, 4)},
		{"bytes after the list", "1 bytes after a build request", append(bytes.Clone(legal), 0)},
		{"a ticket of version 0", "version 0", patched(ticketAt, 0, 8)},
		{"a borrow no older than the build", "borrows", patched(ticketAt, 1, 8)},
		{"an empty piece", "piece 0 at 100 of length 0", patched(placedAt+4+8, 0, 8)},
		{"unsorted pieces", "unsorted", appendBuild(geo, tk, swapped)},
		{"a piece across a page", "crosses page", appendBuild(geo, tk, across)},
		{"a truncated body", "truncated", legal[:20]},
	} {
		conn, br := rawFramedConn(t, ep.Meta)
		req := appendRawBody(appendHeader(nil, &frameHeader{op: opBuildTree, key: chunk.Key{Blob: 1}}), tc.body)
		conn.Write(append(req, appendRawBody(appendHeader(nil, &frameHeader{op: opBuildTree, key: chunk.Key{Blob: 1}}), legal)...))
		if _, _, msg := readNodeReply(t, br, opBuildTree); !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: answered %q, want %q", tc.name, msg, tc.want)
		}
		if root, _, msg := readNodeReply(t, br, opBuildTree); msg != "" || segtree.DecodeKey(root) != (segtree.NodeKey{Version: 2, Size: geo.Capacity}) {
			t.Fatalf("%s: the legal build behind it answered %x, %q", tc.name, root, msg)
		}
	}
}
