package remote

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
)

// fuzzMaxChunk is the chunk bound of the fuzzed server: small, so the
// fuzzer can reach it — and so a header declaring a gigabyte (which a
// mem:// store would allocate before reading a byte) is refused.
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
