package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/workload"
)

const blobID = 1

// preloadStep is the size of the contiguous writes that lay down a
// workload's base image.
const preloadStep = 4 << 20

// runSegment boots a fresh deployment and runs one segment of the
// workload on it: set-up (boot, dial, create, seeded payloads, preload
// through the write path, byte-exact read-back), the timed phases, and
// the closing verification.
func runSegment(p params, seed int64, index int, tr *tracer, hooks *testHooks) (*segment, error) {
	s := &segment{p: p, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(index))), tr: tr, test: hooks}
	t0 := time.Now()
	c, err := boot(p, tr, hooks != nil && len(hooks.failPutEpochs) > 0)
	if err != nil {
		return nil, err
	}
	s.c = c
	defer c.close()
	switch p.Name {
	case wlTile:
		err = s.runTile(t0)
	case wlCkpt, wlCoded:
		err = s.runCheckpoint(t0)
	case wlSubarray:
		err = s.runSubarray(t0)
	default:
		err = fmt.Errorf("benchmark: unknown workload %q", p.Name)
	}
	if err == nil && tr != nil {
		s.layer = s.layers()
		if index == 1 { // the first traced segment also runs the isolated probes
			err = s.probes()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s segment %d: %w", p.Name, index, err)
	}
	s.c = nil // the stores hold the segment's data; let them go
	return s, nil
}

func (s *segment) geometry(span int64) segtree.Geometry {
	return segtree.Geometry{Capacity: cluster.CapacityFor(span, s.p.Page), Page: s.p.Page}
}

// preload writes image through w in contiguous steps and reads it back
// whole through r, byte for byte.
func (s *segment) preload(w, r *blob.Blob, image []byte) error {
	for off := 0; off < len(image); off += preloadStep {
		end := min(off+preloadStep, len(image))
		if _, err := w.Write(int64(off), image[off:end], blob.WriteOptions{}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	s.preloadBytes = int64(len(image))
	return s.readBack("preload read-back", r, image)
}

// readBack reads the whole image from the latest snapshot and checks
// it.
func (s *segment) readBack(what string, r *blob.Blob, image []byte) error {
	got, _, err := r.ReadLatest(extent.List{{Offset: 0, Length: int64(len(image))}})
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return s.check(got, image, "%s", what)
}

// --- tile_atomic ---

// runTile is the paper's case: two MPI ranks write overlapping tiles
// of a dense 2-D array through mpiio.File in atomic mode, the band of
// rows advancing each epoch, and each rank list-reads its tile of the
// latest snapshot. Ghost columns are written by both ranks in the same
// epoch, so the read-back must show exactly one rank's ghost columns on
// every row of the band, the same rank for both readers: the
// two-writer form of the serializability check.
func (s *segment) runTile(t0 time.Time) error {
	p, spec := s.p, s.p.Tile
	width, _ := spec.ArrayDims()
	rowBytes := int64(width) * spec.ElementSize
	tileRow := int64(spec.TileX) * spec.ElementSize
	ghost := int64(spec.OverlapX) * spec.ElementSize
	tileBytes := spec.BytesPerRank()
	bandBytes := int64(spec.TileY) * rowBytes
	bands := p.ArrayRows / spec.TileY
	model := make([]byte, int64(p.ArrayRows)*rowBytes)
	s.fill(model)

	world, err := mpi.NewWorld(ranks)
	if err != nil {
		return err
	}
	var files [ranks]*mpiio.File
	var blobs [ranks]*blob.Blob
	for r := 0; r < ranks; r++ {
		var be *core.VersioningBackend
		if r == 0 {
			be, err = core.NewVersioning(s.c.svc[r], blobID, s.geometry(int64(len(model))))
		} else {
			be, err = core.OpenVersioning(s.c.svc[r], blobID)
		}
		if err != nil {
			return err
		}
		blobs[r] = be.Blob()
		var backend core.Backend = be
		if s.tr != nil {
			backend = &tracedBackend{be, s.tr, s.c.rc[r]}
		}
		comm, err := world.Comm(r)
		if err != nil {
			return err
		}
		files[r] = mpiio.Open(comm, &mpiio.VersioningDriver{Backend: backend})
		files[r].SetAtomicity(true)
	}
	if err := s.preload(blobs[0], blobs[1], model); err != nil {
		return err
	}
	// Each epoch's payload is a window into a per-rank pool of random
	// bytes at a seed-picked offset, so payloads differ between epochs
	// without being generated on the clock.
	const slack = 4 << 20
	var pools [ranks][]byte
	for r := range pools {
		pools[r] = make([]byte, tileBytes+slack)
		s.fill(pools[r])
	}
	s.setup = time.Since(t0)
	s.startTimed()

	var payload, got [ranks][]byte
	for e := 0; e < p.WriteEpochs; e++ {
		disp := int64(e%bands) * bandBytes
		for r := 0; r < ranks; r++ {
			view := mpiio.View{Disp: disp, Etype: datatype.Byte, Filetype: spec.Subarray(r)}
			if err := files[r].SetView(view); err != nil {
				return err
			}
			off := s.rng.Int63n(slack)
			s.notePick(off)
			payload[r] = pools[r][off : off+tileBytes]
		}
		wres := s.epoch(&s.write, spOpWrite, func(r int) (int64, error) {
			return tileBytes, files[r].WriteAt(0, payload[r])
		})
		got = [ranks][]byte{}
		if e < p.ReadEpochs {
			s.epoch(&s.read, spOpRead, func(r int) (int64, error) {
				data, err := files[r].ReadAt(0, tileBytes)
				got[r] = data
				return tileBytes, err
			})
		}
		if got[0] == nil && got[1] == nil {
			// No timed read to judge the ghost columns by.
			if got[0], err = files[0].ReadAt(0, tileBytes); err != nil {
				return err
			}
		}
		// Apply the epoch to the model: each rank's own columns, then
		// the ghost columns of whichever rank the snapshot shows.
		band := model[disp : disp+bandBytes]
		winner := -1
		for r := ranks - 1; r >= 0; r-- {
			if wres[r].err == nil {
				winner = r
			}
		}
		if wres[0].err == nil && wres[1].err == nil {
			seen, at := got[0], tileRow-ghost
			if seen == nil {
				seen, at = got[1], 0
			}
			if !bytes.Equal(seen[at:at+ghost], payload[0][tileRow-ghost:tileRow]) {
				winner = 1
			}
		}
		for row := int64(0); row < int64(spec.TileY); row++ {
			m := band[row*rowBytes : (row+1)*rowBytes]
			for r := 0; r < ranks; r++ {
				if wres[r].err == nil {
					copy(m[int64(r)*(tileRow-ghost):], payload[r][row*tileRow:(row+1)*tileRow])
				}
			}
			if winner == 0 {
				copy(m[tileRow-ghost:tileRow], payload[0][(row+1)*tileRow-ghost:(row+1)*tileRow])
			}
		}
		for r := 0; r < ranks; r++ {
			if got[r] == nil {
				continue
			}
			if int64(len(got[r])) != tileBytes {
				return fmt.Errorf("%w: epoch %d rank %d read %d bytes", errMismatch, e, r, len(got[r]))
			}
			for row := int64(0); row < int64(spec.TileY); row++ {
				lo := row*rowBytes + int64(r)*(tileRow-ghost)
				if err := s.check(got[r][row*tileRow:(row+1)*tileRow], band[lo:lo+tileRow], "epoch %d rank %d row %d", e, r, row); err != nil {
					return err
				}
			}
		}
	}
	s.endTimed()
	return s.readBack("final array", blobs[0], model)
}

// --- checkpoint_restore and coded_degraded_restore ---

// runCheckpoint is the N-1 strided checkpoint: every rank dumps its
// interleaved 1 MiB segments in one pipelined atomic write per epoch,
// then every rank restores them in one list-read per epoch. With
// DownZone set, that failure domain's providers are marked down
// between the two phases, so every restore is a degraded read.
func (s *segment) runCheckpoint(t0 time.Time) error {
	p, spec := s.p, s.p.Ckpt
	per := spec.BytesPerRank()
	var blobs [ranks]*blob.Blob
	var err error
	if blobs[0], err = blob.Create(s.c.svc[0], blobID, s.geometry(spec.FileSpan())); err != nil {
		return err
	}
	if blobs[1], err = blob.Open(s.c.svc[1], blobID); err != nil {
		return err
	}
	const step = 4096
	slack := int64(p.WriteEpochs+1) * step
	var pools, cur [ranks][]byte
	var exts [ranks]extent.List
	for r := 0; r < ranks; r++ {
		pools[r] = make([]byte, per+slack)
		s.fill(pools[r])
		exts[r] = spec.ExtentsFor(r)
	}
	opts := blob.WriteOptions{Pipelined: p.Pipelined}
	write := func(e int) func(r int) (int64, error) {
		return func(r int) (int64, error) {
			buf := pools[r][int64(e)*step : int64(e)*step+per]
			vec, err := extent.NewVec(exts[r], buf)
			if err != nil {
				return 0, err
			}
			if _, err = blobs[r].WriteList(vec, opts); err != nil {
				return 0, err
			}
			cur[r] = buf
			return per, nil
		}
	}
	var got [ranks][]byte
	read := func(r int) (int64, error) {
		data, v, err := blobs[r].ReadLatest(exts[r])
		got[r] = data
		if err == nil && s.tr != nil {
			s.tr.noteRead(v, exts[r])
		}
		return per, err
	}
	verify := func(what string, res [ranks]rankResult) error {
		for r := 0; r < ranks; r++ {
			if res[r].err != nil {
				continue
			}
			if err := s.check(got[r], cur[r], "%s rank %d", what, r); err != nil {
				return err
			}
		}
		return nil
	}

	// Preload: checkpoint 0 from both ranks, restored and compared.
	var untimed bracket
	for _, r := range s.runRanks(&untimed, spOpWrite, write(0)) {
		if r.err != nil {
			return fmt.Errorf("preload: %w", r.err)
		}
	}
	s.preloadBytes = ranks * per
	if err := verify("preload read-back", s.runRanks(&untimed, spOpRead, read)); err != nil {
		return err
	}
	s.setup = time.Since(t0)
	s.startTimed()

	for e := 1; e <= p.WriteEpochs; e++ {
		if s.test != nil && s.test.failPutEpochs[e] {
			s.c.faults[s.rng.Intn(len(s.c.faults))].FailNextPuts(1)
		}
		s.epoch(&s.write, spOpWrite, write(e))
	}
	s.pauseTimed()
	if p.DownZone != "" {
		for i := 0; i < p.Providers; i++ {
			if provider.DomainLabel(i, p.Providers, p.Domains) == p.DownZone {
				if err := s.c.clients[0].SetProviderDown(provider.ID(i), true); err != nil {
					return err
				}
			}
		}
	}
	s.startTimed()
	for e := 0; e < p.ReadEpochs; e++ {
		res := s.epoch(&s.read, spOpRead, read)
		if err := verify(fmt.Sprintf("restore %d", e), res); err != nil {
			return err
		}
	}
	s.endTimed()
	return nil
}

// --- subarray_reread_beside_writer ---

// subWrite is one producer write as the verifier replays it.
type subWrite struct {
	version uint64
	off     int64
	data    []byte
}

// subRead is one reader call: which snapshot it saw and the checksum of
// what it returned, compared after the phase against the model replayed
// to that snapshot.
type subRead struct {
	version uint64
	origin  int64
	sum     uint32
}

// runSubarray reads beside writes. Rank 0 is an open-loop producer: one
// write every WritePeriodMs at a seed-picked page offset shifted so it
// spans two pages, timed from the moment it was due. Rank 1 is a
// closed-loop visualisation reader: list-reads of a 16-row subarray
// column from the latest snapshot, origins picked hot/cold. The phase
// ends when the reader has made its reads.
func (s *segment) runSubarray(t0 time.Time) error {
	p := s.p
	var err error
	var w, r *blob.Blob
	if w, err = blob.Create(s.c.svc[0], blobID, s.geometry(p.ArrayBytes)); err != nil {
		return err
	}
	if r, err = blob.Open(s.c.svc[1], blobID); err != nil {
		return err
	}
	model := make([]byte, p.ArrayBytes)
	s.fill(model)
	if err := s.preload(w, r, model); err != nil {
		return err
	}
	const slack = 1 << 20
	pool := make([]byte, p.WriteLen+slack)
	s.fill(pool)

	// All picks are made here, from the seed, so neither side's inputs
	// depend on how the two interleave.
	colSlots := int(p.RowPitch / p.ReadExtentLen)
	rowBlocks := int(p.ArrayBytes/p.RowPitch) / p.ReadExtents
	pick := workload.HotColdSpec{Chunks: rowBlocks * colSlots, HotFraction: p.HotFraction, HotProb: p.HotProb}.Picker(s.rng.Int63())
	origins := make([]int64, p.Reads)
	for i := range origins {
		slot := pick()
		origins[i] = int64(slot/colSlots)*int64(p.ReadExtents)*p.RowPitch + int64(slot%colSlots)*p.ReadExtentLen
		s.notePick(origins[i])
	}
	query := func(origin int64) extent.List {
		q := make(extent.List, p.ReadExtents)
		for i := range q {
			q[i] = extent.Extent{Offset: origin + int64(i)*p.RowPitch, Length: p.ReadExtentLen}
		}
		return q
	}
	wrng := rand.New(rand.NewSource(s.rng.Int63()))
	pages := p.ArrayBytes / p.Page
	s.setup = time.Since(t0)
	s.startTimed()

	var writes []subWrite
	reads := make([]subRead, 0, p.Reads)
	done := make(chan struct{})
	var wg sync.WaitGroup
	s.read.begin()
	start := time.Now()
	wg.Add(1)
	go func() { // the producer
		defer wg.Done()
		period := time.Duration(p.WritePeriodMs) * time.Millisecond
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			timer.Reset(time.Until(due))
			select {
			case <-done:
				return
			case <-timer.C:
			}
			off := wrng.Int63n(pages-1)*p.Page + p.WriteShift
			poff := wrng.Int63n(slack)
			data := pool[poff : poff+p.WriteLen]
			var end func(int64)
			if s.tr != nil {
				end = s.tr.beginOp(s.c.rc[0], spOpWrite)
			}
			s.lateness = append(s.lateness, time.Since(due))
			v, err := w.Write(off, data, blob.WriteOptions{})
			s.ops++
			if err != nil {
				s.failed++
				continue
			}
			s.writeLat = append(s.writeLat, time.Since(due))
			s.writeBytes += p.WriteLen
			writes = append(writes, subWrite{v, off, data})
			if end != nil {
				end(p.WriteLen)
			}
		}
	}()
	readOps, readFailed := 0, 0
	for _, origin := range origins {
		q := query(origin)
		var end func(int64)
		if s.tr != nil {
			end = s.tr.beginOp(s.c.rc[1], spOpRead)
		}
		t := time.Now()
		data, v, err := r.ReadLatest(q)
		lat := time.Since(t)
		readOps++
		if err != nil {
			readFailed++
			continue
		}
		if end != nil {
			end(int64(len(data)))
			s.tr.noteRead(v, q)
		}
		if s.test != nil && s.test.tamper != nil {
			s.test.tamper(data)
		}
		s.readLat = append(s.readLat, lat)
		s.readBytes += int64(len(data))
		reads = append(reads, subRead{v, origin, crc32.Checksum(data, castagnoli)})
	}
	close(done)
	wg.Wait()
	s.read.end()
	s.write.wall = s.read.wall
	s.ops += readOps
	s.failed += readFailed
	s.endTimed()

	// Replay the producer's writes into the model in version order and
	// check every read against the model as of the snapshot it saw.
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].version < reads[j].version })
	applied := 0
	for _, rd := range reads {
		for applied < len(writes) && writes[applied].version <= rd.version {
			copy(model[writes[applied].off:], writes[applied].data)
			applied++
		}
		var sum uint32
		for _, e := range query(rd.origin) {
			sum = crc32.Update(sum, castagnoli, model[e.Offset:e.End()])
		}
		if sum != rd.sum {
			return fmt.Errorf("%w: read at origin %d of snapshot %d", errMismatch, rd.origin, rd.version)
		}
	}
	for ; applied < len(writes); applied++ {
		copy(model[writes[applied].off:], writes[applied].data)
	}
	return s.readBack("final array", r, model)
}
