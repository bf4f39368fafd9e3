package mpiio

import (
	"fmt"

	"repro/internal/extent"
)

// exchangeMsg carries one rank's pieces for one aggregator domain.
type exchangeMsg struct {
	Exts extent.List // file extents, sorted, within the domain
	Data []byte      // concatenated data in extent order
}

// WriteAtAll is the collective write (MPI_File_write_at_all). It runs
// two-phase I/O: ranks agree on a partition of the aggregate access
// range into one contiguous file domain per rank (the aggregators),
// ship their pieces to the owning aggregators, and each aggregator
// issues one large List I/O write for its domain. Overlaps between
// ranks within a domain are resolved deterministically in rank order
// (higher rank wins), mirroring ROMIO's collective buffering.
func (f *File) WriteAtAll(offset int64, buf []byte) error {
	if f.comm == nil || f.comm.Size() == 1 {
		return f.WriteAt(offset, buf)
	}
	f.mu.Lock()
	v := f.view
	atomicMode := f.atomicMode
	f.mu.Unlock()
	if int64(len(buf))%v.Etype.Size() != 0 {
		return fmt.Errorf("mpiio: buffer length %d not a multiple of etype size %d", len(buf), v.Etype.Size())
	}
	ext, err := viewExtents(v, offset*v.Etype.Size(), int64(len(buf)))
	if err != nil {
		return err
	}

	comm := f.comm
	size := comm.Size()

	// Phase 0: agree on the aggregate bounding range.
	bounds := comm.Allgather(ext.Bounding())
	var lo, hi int64
	first := true
	for _, b := range bounds {
		be := b.(extent.Extent)
		if be.Empty() {
			continue
		}
		if first {
			lo, hi = be.Offset, be.End()
			first = false
			continue
		}
		if be.Offset < lo {
			lo = be.Offset
		}
		if be.End() > hi {
			hi = be.End()
		}
	}
	if first {
		// Nobody writes anything; still synchronize.
		comm.Barrier()
		return nil
	}

	// Phase 1: ship pieces to their domain owners.
	domLen := (hi - lo + int64(size) - 1) / int64(size)
	domain := func(r int) extent.Extent {
		start := lo + int64(r)*domLen
		end := start + domLen
		if end > hi {
			end = hi
		}
		if start >= end {
			return extent.Extent{}
		}
		return extent.Extent{Offset: start, Length: end - start}
	}
	vec := extent.Vec{Extents: ext, Buf: buf}
	outbound := make([]any, size)
	for r := 0; r < size; r++ {
		outbound[r] = sliceVecToDomain(vec, domain(r))
	}
	inbound, err := comm.Alltoall(outbound)
	if err != nil {
		return err
	}

	// Phase 2: overlay the pieces received for my domain in rank order.
	myDomain := domain(comm.Rank())
	msgs := make([]exchangeMsg, size)
	for r := 0; r < size; r++ {
		msgs[r] = inbound[r].(exchangeMsg)
	}
	merged := overlayMessages(myDomain, msgs)
	if len(merged.Exts) > 0 {
		outVec, err := extent.NewVec(merged.Exts, merged.Data)
		if err != nil {
			return err
		}
		if err := f.drv.WriteList(outVec, atomicMode); err != nil {
			return err
		}
	}
	comm.Barrier()
	return nil
}

// sliceVecToDomain extracts the parts of vec that fall inside dom.
func sliceVecToDomain(vec extent.Vec, dom extent.Extent) exchangeMsg {
	if dom.Empty() {
		return exchangeMsg{}
	}
	var msg exchangeMsg
	var start int64
	for _, e := range vec.Extents {
		data := vec.Buf[start : start+e.Length]
		start += e.Length
		x := e.Intersect(dom)
		if x.Empty() {
			continue
		}
		msg.Exts = append(msg.Exts, x)
		msg.Data = append(msg.Data, data[x.Offset-e.Offset:x.End()-e.Offset]...)
	}
	return msg
}

// overlayMessages merges per-rank pieces over a domain; later ranks
// overwrite earlier ones on overlap, giving a deterministic outcome.
func overlayMessages(dom extent.Extent, msgs []exchangeMsg) exchangeMsg {
	if dom.Empty() {
		return exchangeMsg{}
	}
	image := make([]byte, dom.Length)
	mask := make([]bool, dom.Length)
	for _, m := range msgs {
		var start int64
		for _, e := range m.Exts {
			data := m.Data[start : start+e.Length]
			start += e.Length
			off := e.Offset - dom.Offset
			copy(image[off:], data)
			for i := int64(0); i < e.Length; i++ {
				mask[off+i] = true
			}
		}
	}
	// Extract covered runs.
	var out exchangeMsg
	i := int64(0)
	n := int64(len(mask))
	for i < n {
		if !mask[i] {
			i++
			continue
		}
		j := i
		for j < n && mask[j] {
			j++
		}
		out.Exts = append(out.Exts, extent.Extent{Offset: dom.Offset + i, Length: j - i})
		out.Data = append(out.Data, image[i:j]...)
		i = j
	}
	return out
}
