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

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
)

// fuzzMaxChunk is the chunk bound of the fuzzed server: small, so the
// fuzzer can reach it and the refusal of a larger declared size is
// among what it exercises.
const fuzzMaxChunk = 4 << 10

// FuzzFramedServer feeds arbitrary bytes, as what a client sends after
// the magic, to the real server loop over an in-memory connection,
// against mem:// chunk stores and a metadata store. The loop must return
// once the input ends — never panic, never hang on a malformed request
// — and must not have stored a chunk over its bound or more bytes than
// the input carried. The seed corpus (testdata/fuzz) holds a legal train
// of each op kind and the two framing bugs once fixed by hand: a put
// body longer than its header declared, and one shorter, followed by a
// get of the declared length.
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
		fs := newFramedServer(Roles{Meta: nodes, Data: router})

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
		// A stored node took a header, a frame word, an inner node's 49
		// bytes at the least, and a terminator.
		if sent := int64(len(input)); stored > sent || int64(nodes.Count())*(frameHeaderLen+4+49+4) > sent {
			t.Fatalf("%d chunk bytes and %d nodes stored out of %d bytes of input", stored, nodes.Count(), sent)
		}
	})
}

// pipedClient is a Client whose two framed pools each hold one idle
// connection to a peer that reads one whole request, answers it with
// reply — arbitrary bytes — and hangs up. A call that loses that
// connection re-sends on a dial of no address, which fails at once.
func pipedClient(t *testing.T, reply []byte) *Client {
	c := &Client{pool: newFramedPool(""), nodes: newFramedPool("")}
	for _, p := range []*framedPool{c.pool, c.nodes} {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close() })
		p.idle, p.open = []*framedConn{{c: near, br: bufio.NewReaderSize(near, 64<<10)}}, 1
		go func() {
			defer far.Close()
			br := bufio.NewReader(far)
			h, err := readHeader(br)
			if err != nil {
				return // the test made no call on this pool
			}
			if h.op == opPut || h.op == opNodePut {
				if (&frameBodyReader{r: br}).drain() != nil {
					return
				}
			}
			far.Write(reply)
		}()
	}
	return c
}

// okWithIDs reports whether reply opens as a put's and a get's do —
// status ok, a count, that many replica IDs — and returns the count and
// what follows the IDs.
func okWithIDs(reply []byte) (ids int, rest []byte, ok bool) {
	if len(reply) < 2 || reply[0] != statusOK || len(reply) < 2+4*int(reply[1]) {
		return 0, nil, false
	}
	return int(reply[1]), reply[2+4*int(reply[1]):], true
}

// getReplyModel is what a get of length bytes must make of reply: the
// bytes its frames carry, when it is a well-formed answer of exactly
// that many, and refusal of anything else.
func getReplyModel(reply []byte, length int) (data []byte, ok bool) {
	_, rest, ok := okWithIDs(reply)
	if !ok {
		return nil, false
	}
	data = []byte{}
	for len(rest) >= 4 {
		n := int64(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n == 0 {
			return data, len(data) == length
		}
		if n > maxFrame || n > int64(length-len(data)) || n > int64(len(rest)) {
			return nil, false
		}
		data, rest = append(data, rest[:n]...), rest[n:]
	}
	return nil, false
}

// FuzzFramedReply feeds arbitrary bytes to the client as a server's
// answer to each kind of call — a get, a get into the caller's buffer, a
// put and the three node ops — over an in-memory connection. No call may
// panic or hang. A get succeeds exactly when the reply is a well-formed
// body of the length asked for, with those bytes; an into-get, besides,
// never writes outside its destination, whatever the frames claim. The
// seed corpus (testdata/fuzz) holds a legal reply of each kind and the
// wrong-length replies of TestFramedGetRejectsWrongLengthReply.
func FuzzFramedReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte, length uint16) {
		key := chunk.Key{Blob: 1, Version: 2, Index: 3}
		want, ok := getReplyModel(reply, int(length))

		data, _, err := pipedClient(t, reply).GetFrom(nil, key, 0, int64(length))
		if (err == nil) != ok || (ok && !bytes.Equal(data, want)) {
			t.Fatalf("GetFrom of %d bytes: %d bytes, %v; the reply holds %d, well-formed %v", length, len(data), err, len(want), ok)
		}

		dst, intact := guarded(int(length))
		_, err = pipedClient(t, reply).GetInto(dst, nil, key, 0)
		if !intact() {
			t.Fatalf("GetInto of %d bytes wrote outside its destination (%v)", length, err)
		}
		if (err == nil) != ok || (ok && !bytes.Equal(dst, want)) {
			t.Fatalf("GetInto of %d bytes: %v; the reply holds %d, well-formed %v", length, err, len(want), ok)
		}

		ids, err := pipedClient(t, reply).Put(key, []byte("payload"))
		if n, _, ok := okWithIDs(reply); (err == nil) != ok || len(ids) != n {
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
	})
}
