package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// fuzzMaxChunk is the chunk bound of the fuzzed server: small, so the
// fuzzer can reach it and the refusal of a larger declared size is
// among what it exercises.
const fuzzMaxChunk = 4 << 10

// FuzzFramedServer feeds arbitrary bytes, as what a client sends after
// the magic, to the real server loop over an in-memory connection,
// against mem:// chunk stores, a metadata store and a version manager.
// The loop must return once the input ends — never panic, never hang on
// a malformed request — and must not have stored a chunk over its bound
// or more bytes than the input carried. The seed corpus (testdata/fuzz)
// holds a legal train of each op kind, each version-manager op, hostile
// version-manager, walk and list get bodies — one of them an entry with
// a replica hint as the wire before BSD3 sent it, refused in-band
// (list-get-entry-with-hint) — walks over stored nodes —
// one of them a leaf chained to itself, which once spun a reader for
// good — a put of a leaf without fragments, the shortest node there is,
// and lengths that lie: a put cut short (aborted-put), a node body four
// bytes short of its length word (bug-node-body-without-terminator), a
// put followed by bytes its header never declared, which the server
// reads as the next request (bug-overlong-put), and a put declaring
// more than it carries, which swallows the get behind it
// (bug-short-put-then-get).
func FuzzFramedServer(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		mgr := provider.NewManager()
		for i := 0; i < 2; i++ {
			store, err := chunk.OpenStore("mem://", iosim.NewMeter(iosim.CostModel{}, true))
			if err != nil {
				t.Fatal(err)
			}
			mgr.Register(provider.New(provider.ID(i), store))
		}
		router := provider.NewRouter(mgr)
		router.SetMaxChunkSize(fuzzMaxChunk)
		nodes := metadata.NewStore(2, iosim.CostModel{})
		fs := newFramedServer(Roles{VM: unparkedVM{vmanager.New(iosim.CostModel{})}, Meta: nodes, Data: router})

		client, server := net.Pipe()
		var wg sync.WaitGroup
		wg.Add(2)
		served := make(chan struct{})
		go func() {
			defer wg.Done()
			defer close(served)
			fs.serve(server, bufio.NewReaderSize(server, 64<<10))
		}()
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, client) // the replies, until either end closes
		}()
		client.Write(input) // fails early if the server hung up on a violation
		client.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("the server loop did not return after its input ended")
		}
		wg.Wait()

		var stored int64
		for _, u := range router.Usage() {
			if u.Bytes > int64(u.Chunks)*fuzzMaxChunk {
				t.Fatalf("provider %d holds %d bytes in %d chunks, bound %d each", u.Provider, u.Bytes, u.Chunks, fuzzMaxChunk)
			}
			stored += u.Bytes
		}
		// A stored node took a header, a length word and the 29 bytes of
		// a leaf without fragments at the least.
		if sent := int64(len(input)); stored > sent || int64(nodes.Count())*(frameHeaderLen+4+29) > sent {
			t.Fatalf("%d chunk bytes and %d nodes stored out of %d bytes of input", stored, nodes.Count(), sent)
		}
	})
}

// unparkedVM is a version manager whose WaitPublished answers at once: a
// fuzzed wait for a version nobody completes would park the loop for good,
// as it parks a real server's — on a connection of its own.
type unparkedVM struct{ *vmanager.Manager }

func (u unparkedVM) WaitPublished(blob, v uint64) error {
	info, err := u.LatestPublished(blob)
	if err == nil && info.Version < v {
		err = vmanager.ErrUnknownVersion
	}
	return err
}

// pipedClient is a Client whose framed pools each hold one idle
// connection to a peer that reads one whole request, answers it with
// reply — arbitrary bytes — and hangs up. A call that loses that
// connection re-sends on a dial of no address, which fails at once.
func pipedClient(t *testing.T, reply []byte) *Client {
	c := &Client{vm: newFramedPool(""), waits: newWaitPool(""), pool: newFramedPool(""), nodes: newFramedPool("")}
	for _, p := range []*framedPool{c.vm, c.waits, c.pool, c.nodes} {
		pipedPeer(t, p, reply)
	}
	return c
}

// pipedVM is a Client for the version-manager call named op only: the
// pool that call rides holds one piped connection answering reply.
func pipedVM(t *testing.T, op string, reply []byte) *Client {
	c := &Client{vm: newFramedPool(""), waits: newWaitPool("")}
	p := c.vm
	if op == "WaitPublished" {
		p = c.waits
	}
	pipedPeer(t, p, reply)
	return c
}

// pipedPeer gives p one idle connection to a peer that reads one whole
// request, answers it with reply and hangs up. The channel yields the
// request's bytes, once read.
func pipedPeer(t *testing.T, p *framedPool, reply []byte) <-chan []byte {
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close() })
	p.idle, p.open = []*framedConn{{c: near, br: bufio.NewReaderSize(near, 64<<10)}}, 1
	req := make(chan []byte, 1)
	go func() {
		defer far.Close()
		var got bytes.Buffer
		br := bufio.NewReader(io.TeeReader(far, &got))
		h, err := readHeader(br)
		if err != nil {
			return // the test made no call on this pool
		}
		if skipRequestBody(br, h) != nil {
			return
		}
		req <- got.Bytes()
		far.Write(reply)
	}()
	return req
}

// okWithIDs reports whether reply opens as a put's does — status ok, a
// count, that many replica IDs — and returns the count.
func okWithIDs(reply []byte) (ids int, ok bool) {
	if len(reply) < 2 || reply[0] != statusOK || len(reply) < 2+4*int(reply[1]) {
		return 0, false
	}
	return int(reply[1]), true
}

// listReplyModel is what a list get of n entries of length bytes each
// must make of reply. Well-formed — status ok, a well-formed status per
// entry, then exactly the ok entries' bytes — it hands each ok entry its
// bytes, and the get succeeds when every entry is ok; any other reply
// fails it. sure is false where the client cannot tell: bytes past a
// reply longer than its read buffer are left on a socket the peer hangs
// up.
func listReplyModel(reply []byte, n, length int) (data [][]byte, succeeds, sure bool) {
	if len(reply) == 0 || reply[0] != statusOK {
		return nil, false, true
	}
	rest, all := reply[1:], true
	ok := make([]bool, n)
	for i := range ok {
		switch {
		case len(rest) >= 1 && rest[0] == statusOK:
			rest, ok[i] = rest[1:], true
		case len(rest) >= 5 && rest[0] == statusErr:
			m := int64(binary.LittleEndian.Uint32(rest[1:]))
			if m > 1<<20 || m > int64(len(rest)-5) {
				return nil, false, true
			}
			rest, all = rest[5+m:], false
		default:
			return nil, false, true
		}
	}
	data = make([][]byte, n)
	for i := range ok {
		if ok[i] {
			if len(rest) < length {
				return nil, false, true
			}
			data[i], rest = rest[:length], rest[length:]
		}
	}
	if len(rest) > 0 {
		return data, false, len(reply) <= 64<<10
	}
	return data, all, true
}

// FuzzFramedReply feeds arbitrary bytes to the client as a server's
// answer to each kind of call — a Get, a list of one get into the
// caller's buffer, a list of three gets into one buffer, a put, the
// three node ops, a walk and every version-manager call — over an
// in-memory connection. No call may panic or hang. A get succeeds
// exactly when the reply is a well-formed list reply whose every entry
// is ok with the length asked for, and returns those bytes; a get into
// the caller's buffer, besides, never writes outside its destination, whatever the reply claims; a walk or a
// version-manager call succeeds only on an ok reply. The seed corpus
// (testdata/fuzz) holds a legal reply of each kind, the wrong-length
// replies of TestFramedGetRejectsWrongLengthReply, a status block cut
// short, a list whose middle entry failed, a get reply of the wire before
// BSD3 whose ok status carried a fresh set (get-exact-fresh-set), which
// must read as one of the wrong length, and ok replies whose length
// word lies: past every bound (get-abort-sentinel), one byte past the
// node bound (get-oversized-frame-word), a body cut short
// (get-cut-mid-frame, get-one-frame-too-few), bytes past a body
// (get-one-frame-too-many), a body longer than a get asked for
// (get-last-frame-too-big) and a node encoding with bytes behind it
// (node-get-leaf-two-frames).
func FuzzFramedReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte, length uint16) {
		key := chunk.Key{Blob: 1, Version: 2, Index: 3}
		want, ok, sure := listReplyModel(reply, 1, int(length))

		data, err := pipedClient(t, reply).Get(key, 0, int64(length))
		if (sure && (err == nil) != ok) || (err == nil && !bytes.Equal(data, want[0])) {
			t.Fatalf("Get of %d bytes: %d bytes, %v; the model: %v", length, len(data), err, ok)
		}

		dst, intact := guarded(int(length))
		err = pipedClient(t, reply).GetManyInto(dst, []blob.ChunkRead{{Key: key, Length: int64(length)}})
		if !intact() {
			t.Fatalf("GetManyInto of one %d-byte read wrote outside its destination (%v)", length, err)
		}
		if (sure && (err == nil) != ok) || (err == nil && !bytes.Equal(dst, want[0])) {
			t.Fatalf("GetManyInto of one %d-byte read: %v; the model: %v", length, err, ok)
		}

		// A train of three gets into one buffer, end to end: one list get.
		want, ok, sure = listReplyModel(reply, 3, int(length))
		dst, intact = guarded(3 * int(length))
		train := make([]framedCall, 3)
		for i := range train {
			train[i] = getCall(dst, i*int(length), int64(length), chunk.Key{Blob: 1, Version: 2, Index: uint32(i)}, 0)
		}
		pipedClient(t, reply).pool.train(train)
		err = firstErr(train)
		if !intact() {
			t.Fatalf("a list of 3 x %d bytes wrote outside its destination (%v)", length, err)
		}
		if (sure && (err == nil) != ok) || (err == nil && !bytes.Equal(dst, bytes.Join(want, nil))) {
			t.Fatalf("a list of 3 x %d bytes: %v; the model: %v", length, err, ok)
		}

		ids, err := pipedClient(t, reply).Put(key, []byte("payload"))
		if n, ok := okWithIDs(reply); (err == nil) != ok || len(ids) != n {
			t.Fatalf("Put: %d replicas, %v", len(ids), err)
		}

		node := segtree.NodeKey{Version: 2, Size: 1024}
		err = pipedClient(t, reply).PutNode(1, node, &segtree.Node{Left: segtree.NodeKey{Version: 1, Size: 512}})
		if ok := len(reply) >= 1 && reply[0] == statusOK; (err == nil) != ok {
			t.Fatalf("PutNode: %v", err)
		}
		if n, err := pipedClient(t, reply).GetNode(1, node); (n == nil) != (err != nil) {
			t.Fatalf("GetNode: %v, %v", n, err)
		}
		n, found, err := pipedClient(t, reply).TryGetNode(1, node)
		if found != (n != nil) || (found && err != nil) {
			t.Fatalf("TryGetNode: %v, %v, %v", n, found, err)
		}
		if miss := len(reply) >= 1 && reply[0] == statusMiss; miss && (found || err != nil) {
			t.Fatalf("TryGetNode of a miss: %v, %v", found, err)
		}
		keys, encs, err := pipedClient(t, reply).WalkNodes(1, []segtree.NodeKey{node}, []extent.List{{node.Range()}})
		if err == nil && (reply[0] != statusOK || len(keys) != len(encs)) {
			t.Fatalf("WalkNodes: %d keys and %d nodes from a reply of status %d", len(keys), len(encs), reply[0])
		}

		for _, tc := range vmGolden {
			if _, err := tc.call(pipedVM(t, tc.name, reply)); err == nil && (len(reply) == 0 || reply[0] != statusOK) {
				t.Fatalf("%s succeeded on a reply that is not ok", tc.name)
			}
		}
	})
}
