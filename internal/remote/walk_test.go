package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// walkPart is one part of a walk request: a node and the query under it.
type walkPart struct {
	key segtree.NodeKey
	q   extent.List
}

// walkBody is the request body of a walk of the given parts, encoded
// without a check, so a test can send what no client would.
func walkBody(parts ...walkPart) []byte {
	body := binary.LittleEndian.AppendUint32(nil, uint32(len(parts)))
	for _, p := range parts {
		body = segtree.AppendKey(body, p.key)
		body = vmanager.AppendExtents(body, p.q)
	}
	return body
}

// rawWalk is the wire form of a walk whose body is body.
func rawWalk(blobID uint64, body []byte) []byte {
	return appendRawBody(appendHeader(nil, &frameHeader{op: opWalkNodes, key: chunk.Key{Blob: blobID}}), body)
}

// readWalkReply reads the reply to one walk sent by hand: the keys of the
// nodes it carries, or the server's error message.
func readWalkReply(t *testing.T, br *bufio.Reader) (keys []segtree.NodeKey, msg string) {
	t.Helper()
	c := &framedCall{h: frameHeader{op: opWalkNodes}}
	if err := (&framedConn{br: br}).readReply(c); err != nil {
		t.Fatalf("reply to a walk: %v", err)
	}
	if c.err != nil {
		return nil, c.err.Error()
	}
	keys, encs, err := decodeWalkReply(c.data)
	if err != nil {
		t.Fatal(err)
	}
	for i, enc := range encs {
		if _, err := segtree.DecodeNode(enc); err != nil {
			t.Fatalf("walk reply node %s: %v", keys[i], err)
		}
	}
	return keys, ""
}

// writeVersions writes three overlapping versions through b — partial
// pages over earlier ones — and returns the image of each, index 0 the
// empty blob.
func writeVersions(t *testing.T, b *blob.Blob, geo segtree.Geometry) [][]byte {
	t.Helper()
	models := [][]byte{make([]byte, geo.Capacity)}
	for i, l := range []extent.List{
		{{Offset: 100, Length: 9000}, {Offset: 40 << 10, Length: 3000}},
		{{Offset: 4000, Length: 500}, {Offset: 41 << 10, Length: 100}, {Offset: 200 << 10, Length: 50}},
		{{Offset: 0, Length: 2048}, {Offset: 4200, Length: 1000}},
	} {
		vec, err := extent.NewVec(l, bytes.Repeat([]byte{byte(i + 1)}, int(l.TotalLength())))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := b.WriteList(vec, blob.WriteOptions{}); err != nil || v != uint64(i+1) {
			t.Fatalf("write %d: v%d, %v", i+1, v, err)
		}
		img := bytes.Clone(models[i])
		vec.ScatterInto(img, 0)
		models = append(models, img)
	}
	return models
}

// TestWalkCostsOneRoundTrip: a handle reading a version asks the metadata
// node for its tree walk once — one walk, no node get — and keeps every
// node the reply carried, so a re-read asks for nothing. That holds for
// the writer too: its trees were built at the metadata node, so its cache
// holds none of their nodes until its first read walks them.
func TestWalkCostsOneRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ep := startCountedNode(t, "mem://", reg)
	geo := segtree.Geometry{Capacity: 256 << 10, Page: 1 << 10}
	w, err := blob.Create(dialClient(t, ep).Services(), 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	models := writeVersions(t, w, geo)
	counts := func() (walks, gets, walked float64) {
		snap := reg.Snapshot()
		return snap[`bs_meta_node_ops_total{op="walk"}`], snap[`bs_meta_node_ops_total{op="get"}`], snap["bs_meta_walk_nodes_sum"]
	}
	q := extent.List{{Offset: 0, Length: 48 << 10}, {Offset: 200 << 10, Length: 1 << 10}}
	read := func(b *blob.Blob, what string, wantWalks float64) {
		t.Helper()
		walks, gets, _ := counts()
		got, err := b.ReadList(3, q)
		want := append(bytes.Clone(models[3][:48<<10]), models[3][200<<10:201<<10]...)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %v, or the bytes differ", what, err)
		}
		if w, g, _ := counts(); w-walks != wantWalks || g != gets {
			t.Fatalf("%s made %v walks and %v node gets, want %v and 0", what, w-walks, g-gets, wantWalks)
		}
	}
	read(w, "the writer's read", 1)
	read(w, "its re-read", 0)
	_, _, writerWalked := counts()
	r, err := blob.Open(dialClient(t, ep).Services(), 1)
	if err != nil {
		t.Fatal(err)
	}
	read(r, "a second handle's first read", 1)
	read(r, "its re-read", 0)
	_, _, walked := counts()
	for _, h := range []struct {
		name   string
		b      *blob.Blob
		walked float64
	}{{"writer", w, writerWalked}, {"reader", r, walked - writerWalked}} {
		if h.walked == 0 || float64(h.b.NodeCacheStats().Entries) != h.walked {
			t.Fatalf("the %s caches %d nodes of the %v its walk carried", h.name, h.b.NodeCacheStats().Entries, h.walked)
		}
	}
}

// serveFramed serves fs's framed plane alone on a loopback listener, for
// a test that sets fs up before any connection reaches it.
func serveFramed(t *testing.T, fs *framedServer) Endpoints {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				br := bufio.NewReaderSize(conn, 64<<10)
				if _, err := br.Discard(len(framedMagic)); err != nil {
					conn.Close()
					return
				}
				fs.serve(conn, br)
			}()
		}
	}()
	addr := lis.Addr().String()
	return Endpoints{VM: addr, Meta: addr, Data: addr}
}

// TestWalkCutShortByItsBoundReadsBackIdentical: with a reply bound of a
// few nodes, every walk is cut short, and what it did not reach goes out
// again — at the next level, or the same one — until every version of
// the history reads back byte for byte.
func TestWalkCutShortByItsBoundReadsBackIdentical(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := memPool(3, 0)
	fs := newFramedServer(Roles{VM: vmanager.New(iosim.CostModel{}), Meta: metadata.NewStore(2, iosim.CostModel{}), Data: provider.NewRouter(mgr), Metrics: reg})
	fs.walkBound = 400 // a handful of nodes a reply
	ep := serveFramed(t, fs)
	geo := segtree.Geometry{Capacity: 256 << 10, Page: 1 << 10}
	w, err := blob.Create(dialClient(t, ep).Services(), 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	models := writeVersions(t, w, geo)
	for v := range models {
		r, err := blob.Open(dialClient(t, ep).Services(), 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadList(uint64(v), extent.List{geo.Root()})
		if err != nil || !bytes.Equal(got, models[v]) {
			t.Fatalf("v%d: %v, or the bytes differ", v, err)
		}
	}
	snap := reg.Snapshot()
	walks, replies, nodes := snap[`bs_meta_node_ops_total{op="walk"}`], snap["bs_meta_walk_nodes_count"], snap["bs_meta_walk_nodes_sum"]
	if walks != replies || walks < 3*float64(len(models)-1) || nodes > 6*replies {
		t.Fatalf("%v walks, %v replies carrying %v nodes: want several walks a read, a few nodes each", walks, replies, nodes)
	}
}

// TestFramedServerBoundsWalk speaks the raw wire protocol: what a walk
// request carries comes straight off the wire, so counts past the body,
// extents that are negative, overflow, are out of order or leave their
// node's range, a node without a range, bytes after the request and a
// walk over a node that chains to itself are each refused in-band, alone
// — their train-mates answered, the connection aligned.
func TestFramedServerBoundsWalk(t *testing.T) {
	node, ep := startNode(t)
	geo := segtree.Geometry{Capacity: 256 << 10, Page: 1 << 10}
	c := dialClient(t, ep)
	b, err := blob.Create(c.Services(), 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	writeVersions(t, b, geo)
	info, err := c.Snapshot(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	root, whole := info.Root, extent.List{geo.Root()}
	loop := segtree.NodeKey{Version: 9, Offset: 0, Size: 1 << 10}
	if err := node.fr.nodes.PutNode(1, loop, &segtree.Node{Leaf: true, Prev: loop}); err != nil {
		t.Fatal(err)
	}

	pastBody := binary.LittleEndian.AppendUint32(nil, 1000)
	runsPast := walkBody(walkPart{root, whole})
	runsPast = runsPast[:len(runsPast)-8]
	var train []byte
	for _, body := range [][]byte{
		walkBody(walkPart{root, whole}),
		pastBody,
		runsPast,
		{},
		walkBody(walkPart{root, extent.List{{Offset: -1, Length: 10}}}),
		walkBody(walkPart{root, extent.List{{Offset: math.MaxInt64 - 5, Length: 10}}}),
		walkBody(walkPart{root, extent.List{{Offset: 250 << 10, Length: 8 << 10}}}),
		walkBody(walkPart{root, extent.List{{Offset: 500, Length: 10}, {Offset: 100, Length: 10}}}),
		walkBody(walkPart{segtree.NodeKey{Version: 1, Size: 0}, nil}),
		append(walkBody(walkPart{root, whole}), 0),
		walkBody(walkPart{segtree.NodeKey{Version: 7, Size: geo.Capacity}, whole}),
		walkBody(walkPart{loop, extent.List{loop.Range()}}),
		walkBody(walkPart{root, whole}),
	} {
		train = append(train, rawWalk(1, body)...)
	}
	conn, br := rawFramedConn(t, ep.Meta)
	conn.Write(train)
	var first []segtree.NodeKey
	for i, wantErr := range []string{
		"",
		"claims 1000 parts",
		"runs past the body",
		"walk request truncated",
		"out of range",
		"out of range",
		"not a normalized list within",
		"not a normalized list within",
		"has no range",
		"1 bytes after a walk request",
		metadata.ErrNotFound.Error(),
		segtree.ErrBadLink.Error(),
		"",
	} {
		keys, msg := readWalkReply(t, br)
		if (wantErr == "") != (msg == "") || !strings.Contains(msg, wantErr) {
			t.Fatalf("walk %d answered %q, want %q", i+1, msg, wantErr)
		}
		if i == 0 {
			first = keys
		} else if wantErr == "" && (len(keys) == 0 || !slices.Equal(keys, first)) {
			t.Fatalf("the last walk returned %v, the first %v", keys, first)
		}
	}
	if len(first) == 0 || first[0] != root {
		t.Fatalf("a walk from %s returned %v", root, first)
	}
}

// TestWalkRequestPastItsBoundIsSentShorter: a walk request never exceeds
// the bound the server reads it under. Parts that do not fit wait for the
// next walk; a first part that does not fit alone goes with its query
// widened to one extent, which walks over more nodes, never fewer.
func TestWalkRequestPastItsBoundIsSentShorter(t *testing.T) {
	node, ep := startNode(t)
	const page = 1 << 20
	root := segtree.NodeKey{Version: 1, Size: 2 * page}
	left, right := segtree.NodeKey{Version: 1, Size: page}, segtree.NodeKey{Version: 1, Offset: page, Size: page}
	for key, n := range map[segtree.NodeKey]*segtree.Node{root: {Left: left, Right: right}, left: leafNode(1), right: leafNode(2)} {
		if err := node.fr.nodes.PutNode(1, key, n); err != nil {
			t.Fatal(err)
		}
	}
	// n one-byte extents a byte apart: one part of them fits a request,
	// two do not.
	n := maxWalkBody / walkExtentLen * 2 / 3
	spaced := func(off int64, n int) extent.List {
		q := make(extent.List, n)
		for i := range q {
			q[i] = extent.Extent{Offset: off + 2*int64(i), Length: 1}
		}
		return q
	}
	c := dialClient(t, ep)
	keys, _, err := c.WalkNodes(1, []segtree.NodeKey{left, right}, []extent.List{spaced(0, n), spaced(page, n)})
	if err != nil || !slices.Equal(keys, []segtree.NodeKey{left}) {
		t.Fatalf("two parts past the bound: %v, %v; want the first alone", keys, err)
	}
	keys, _, err = c.WalkNodes(1, []segtree.NodeKey{root}, []extent.List{spaced(0, 2*n)})
	if err != nil || !slices.Equal(keys, []segtree.NodeKey{root, left}) {
		t.Fatalf("one part past the bound: %v, %v; want the walk of its bounding extent", keys, err)
	}
}
