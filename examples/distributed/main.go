// Distributed deployment: runs the storage service as three separate
// TCP server nodes (version manager, metadata provider, data provider)
// and drives atomic non-contiguous writes from multiple clients over
// real sockets — the deployment shape of the BlobSeer-based prototype.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/segtree"
)

func main() {
	// --- Service side: three independent nodes on loopback TCP, each
	// role built by the constructor blobseerd uses for it ---
	env := cluster.Default()
	env.Providers = 4
	reg := metrics.NewRegistry()
	vmNode, err := remote.Listen("127.0.0.1:0", remote.Roles{VM: cluster.NewVM(env, reg)})
	if err != nil {
		log.Fatal(err)
	}
	defer vmNode.Close()

	metaNode, err := remote.Listen("127.0.0.1:0", remote.Roles{Meta: cluster.NewMeta(env)})
	if err != nil {
		log.Fatal(err)
	}
	defer metaNode.Close()

	dataRole, err := cluster.NewData(env, reg)
	if err != nil {
		log.Fatal(err)
	}
	dataNode, err := remote.Listen("127.0.0.1:0", remote.Roles{Data: dataRole.Router})
	if err != nil {
		log.Fatal(err)
	}
	defer dataNode.Close()

	ep := remote.Endpoints{VM: vmNode.Addr(), Meta: metaNode.Addr(), Data: dataNode.Addr()}
	fmt.Printf("version manager  %s\nmetadata node    %s\ndata node        %s\n",
		ep.VM, ep.Meta, ep.Data)

	// --- Admin client creates the blob ---
	admin, err := remote.DialFramed(ep)
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	adminBlob, err := blob.Create(admin.Services(), 1, segtree.Geometry{Capacity: 1 << 22, Page: 16 << 10})
	if err != nil {
		log.Fatal(err)
	}

	// --- Writer clients: each its own TCP connections, all writing
	// the same overlapping non-contiguous pattern concurrently ---
	pattern := extent.List{
		{Offset: 0, Length: 20 << 10},
		{Offset: 1 << 20, Length: 20 << 10},
		{Offset: 3 << 20, Length: 20 << 10},
	}
	const writers = 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := remote.DialFramed(ep)
			if err != nil {
				log.Fatalf("writer %d: %v", w, err)
			}
			defer cli.Close()
			b, err := blob.Open(cli.Services(), 1)
			if err != nil {
				log.Fatalf("writer %d: %v", w, err)
			}
			buf := bytes.Repeat([]byte{byte(w + 1)}, int(pattern.TotalLength()))
			vec, err := extent.NewVec(pattern, buf)
			if err != nil {
				log.Fatalf("writer %d: %v", w, err)
			}
			v, err := b.WriteList(vec, blob.WriteOptions{})
			if err != nil {
				log.Fatalf("writer %d: %v", w, err)
			}
			fmt.Printf("writer %d published snapshot v%d\n", w, v)
		}(w)
	}
	wg.Wait()

	// --- Check the final state over the wire ---
	info, err := adminBlob.Latest()
	if err != nil {
		log.Fatal(err)
	}
	data, err := adminBlob.ReadList(info.Version, pattern)
	if err != nil {
		log.Fatal(err)
	}
	stamp := data[0]
	for i, b := range data {
		if b != stamp {
			log.Fatalf("MPI atomicity violated at byte %d", i)
		}
	}
	fmt.Printf("final snapshot v%d holds writer %d's data everywhere: atomicity holds over TCP\n",
		info.Version, stamp-1)

	versions, _ := adminBlob.Versions()
	fmt.Printf("%d snapshots retained on the service\n", len(versions))
}
