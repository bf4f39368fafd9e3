// Framed data plane: a binary wire protocol for PutChunk/GetChunk that
// streams chunk payloads in length-prefixed frames instead of encoding
// them as one gob []byte. Control RPCs (tickets, metadata, admin) stay
// on gob — only the bulk-byte path changes, because that is where
// serialization cost and the lack of pipelining dominate large-object
// throughput.
//
// Negotiation is per-connection: a framed client opens its data
// connection by sending the 4-byte magic "BSD1"; the server peeks the
// first bytes of every accepted connection and routes magic-led ones to
// the framed loop, everything else to the gob RPC server. Old clients
// never see a difference.
//
// Wire format (all integers little-endian, matching chunk.Ref):
//
//	request header (40 bytes + hints):
//	  op u8 (1=put, 2=get), flags u8 (reserved), hintCount u8, pad u8,
//	  index u32, blob u64, version u64, off i64, length i64,
//	  hintCount * u32 replica IDs
//	put body:   frames of u32 size (1..maxFrame) + payload, then a u32 0
//	            terminator; the sentinel 0xFFFFFFFF aborts the stream.
//	put reply:  status u8; ok → u8 count + count*u32 replica IDs,
//	            err → u32 len + message
//	get reply:  status u8; ok → u8 freshCount (+IDs) then data frames
//	            ending in the 0 terminator; err → u32 len + message.
//	            A store failure mid-frame closes the connection — the
//	            frame word already promised bytes that cannot arrive,
//	            so there is no in-band way to abort without desyncing
//	            the stream. Open-time errors keep the connection.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/provider"
)

// framedMagic is the 4-byte connection preamble that selects the
// framed data plane. Gob's own stream never starts with these bytes
// (a gob type definition begins with a small length byte), so the peek
// is unambiguous.
const framedMagic = "BSD1"

const (
	opPut = 1
	opGet = 2

	// maxFrame bounds one frame's payload; large enough that disk
	// reads amortize syscalls, small enough to bound per-frame buffers.
	maxFrame = 256 << 10

	// frameAbort is the sentinel frame size that aborts an in-flight
	// body: the sender died or hit an error mid-stream.
	frameAbort = 0xFFFFFFFF

	frameHeaderLen = 40
)

var errAborted = errors.New("remote: stream aborted by peer")

// frameHeader is the fixed request header of one data-plane operation.
type frameHeader struct {
	op       byte
	key      chunk.Key
	off      int64
	length   int64 // put: total payload size; get: read length
	replicas []provider.ID
}

func writeHeader(w io.Writer, h frameHeader) error {
	if len(h.replicas) > 255 {
		h.replicas = h.replicas[:255]
	}
	buf := make([]byte, frameHeaderLen+4*len(h.replicas))
	buf[0] = h.op
	buf[2] = byte(len(h.replicas))
	binary.LittleEndian.PutUint32(buf[4:], h.key.Index)
	binary.LittleEndian.PutUint64(buf[8:], h.key.Blob)
	binary.LittleEndian.PutUint64(buf[16:], h.key.Version)
	binary.LittleEndian.PutUint64(buf[24:], uint64(h.off))
	binary.LittleEndian.PutUint64(buf[32:], uint64(h.length))
	for i, id := range h.replicas {
		binary.LittleEndian.PutUint32(buf[frameHeaderLen+4*i:], uint32(id))
	}
	_, err := w.Write(buf)
	return err
}

func readHeader(r io.Reader) (frameHeader, error) {
	var buf [frameHeaderLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{
		op: buf[0],
		key: chunk.Key{
			Index:   binary.LittleEndian.Uint32(buf[4:]),
			Blob:    binary.LittleEndian.Uint64(buf[8:]),
			Version: binary.LittleEndian.Uint64(buf[16:]),
		},
		off:    int64(binary.LittleEndian.Uint64(buf[24:])),
		length: int64(binary.LittleEndian.Uint64(buf[32:])),
	}
	if n := int(buf[2]); n > 0 {
		ids := make([]byte, 4*n)
		if _, err := io.ReadFull(r, ids); err != nil {
			return frameHeader{}, err
		}
		h.replicas = make([]provider.ID, n)
		for i := 0; i < n; i++ {
			h.replicas[i] = provider.ID(binary.LittleEndian.Uint32(ids[4*i:]))
		}
	}
	return h, nil
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeErrString(w io.Writer, err error) error {
	msg := []byte(err.Error())
	if err := writeU32(w, uint32(len(msg))); err != nil {
		return err
	}
	_, werr := w.Write(msg)
	return werr
}

func readErrString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("remote: oversized error message (%d bytes)", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return "", err
	}
	return string(msg), nil
}

func writeIDs(w io.Writer, ids []provider.ID) error {
	if len(ids) > 255 {
		ids = ids[:255]
	}
	buf := make([]byte, 1+4*len(ids))
	buf[0] = byte(len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[1+4*i:], uint32(id))
	}
	_, err := w.Write(buf)
	return err
}

func readIDs(r io.Reader) ([]provider.ID, error) {
	var c [1]byte
	if _, err := io.ReadFull(r, c[:]); err != nil {
		return nil, err
	}
	if c[0] == 0 {
		return nil, nil
	}
	buf := make([]byte, 4*int(c[0]))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	ids := make([]provider.ID, c[0])
	for i := range ids {
		ids[i] = provider.ID(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return ids, nil
}

// frameBodyReader adapts a framed put body to io.Reader, so the store's
// PutFromReader consumes payload bytes straight off the connection —
// the zero-copy path: socket buffer → store writer, no gob
// materialization in between. It also feeds the per-frame metrics.
type frameBodyReader struct {
	r       *bufio.Reader
	left    uint32 // bytes remaining in the current frame
	done    bool
	aborted bool
	frames  *metrics.Counter
	bytes   *metrics.Counter
}

func (fr *frameBodyReader) Read(p []byte) (int, error) {
	for fr.left == 0 {
		if fr.done || fr.aborted {
			return 0, io.EOF
		}
		n, err := readU32(fr.r)
		if err != nil {
			return 0, err
		}
		switch {
		case n == 0:
			fr.done = true
			return 0, io.EOF
		case n == frameAbort:
			fr.aborted = true
			return 0, errAborted
		case n > maxFrame:
			return 0, fmt.Errorf("remote: oversized frame (%d bytes)", n)
		}
		fr.left = n
		fr.frames.Inc()
	}
	if uint32(len(p)) > fr.left {
		p = p[:fr.left]
	}
	n, err := fr.r.Read(p)
	fr.left -= uint32(n)
	fr.bytes.Add(int64(n))
	return n, err
}

// drain consumes the rest of the body after an error, keeping the
// connection usable for the next request.
func (fr *frameBodyReader) drain() error {
	buf := make([]byte, 32<<10)
	for {
		_, err := fr.Read(buf)
		if err == io.EOF {
			return nil
		}
		if err == errAborted {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// framedServer serves the framed data plane of one node.
type framedServer struct {
	r      *provider.Router
	frames *metrics.Counter // bs_data_frames_total, nil-tolerant
	bytes  *metrics.Counter // bs_data_stream_bytes_total, nil-tolerant
}

func newFramedServer(r *provider.Router, reg *metrics.Registry) *framedServer {
	s := &framedServer{r: r}
	if reg != nil {
		s.frames = reg.Counter("bs_data_frames_total")
		s.bytes = reg.Counter("bs_data_stream_bytes_total")
	}
	return s
}

// serve handles one framed connection until EOF or a protocol error.
// Requests are processed in order — pipelining across requests comes
// from the client's connection pool, not from interleaving on one
// connection.
func (s *framedServer) serve(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		h, err := readHeader(br)
		if err != nil {
			return // EOF or dead peer
		}
		switch h.op {
		case opPut:
			err = s.servePut(br, bw, h)
		case opGet:
			err = s.serveGet(conn, bw, h)
		default:
			return // protocol violation
		}
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func (s *framedServer) servePut(br *bufio.Reader, bw *bufio.Writer, h frameHeader) error {
	body := &frameBodyReader{r: br, frames: s.frames, bytes: s.bytes}
	if max := s.r.MaxChunkSize(); h.length < 0 || h.length > max {
		// The declared size comes straight off the wire; reject it here
		// before the router can act on it (PutStream checks again, but
		// the server must not trust the router to be its input filter).
		// The body still drains so the connection stays aligned.
		err := error(&provider.ChunkTooLargeError{Size: h.length, Max: max})
		if derr := body.drain(); derr != nil {
			return derr
		}
		if werr := bw.WriteByte(1); werr != nil {
			return werr
		}
		return writeErrString(bw, err)
	}
	ids, err := s.r.PutStream(h.key, h.length, body)
	// Whatever happened, the body must be consumed to keep the
	// connection aligned on the next header. A short store error (say
	// ErrExists) leaves unread frames behind.
	if derr := body.drain(); derr != nil {
		return derr
	}
	if body.aborted && err == nil {
		// The client aborted after the store already consumed exactly
		// length bytes — cannot happen with a well-formed abort, but
		// never report success for an aborted upload.
		err = errAborted
	}
	if err != nil {
		if werr := bw.WriteByte(1); werr != nil {
			return werr
		}
		return writeErrString(bw, err)
	}
	if werr := bw.WriteByte(0); werr != nil {
		return werr
	}
	return writeIDs(bw, ids)
}

func (s *framedServer) serveGet(conn net.Conn, bw *bufio.Writer, h frameHeader) error {
	var (
		rc    io.ReadCloser
		fresh []provider.ID
		err   error
	)
	if len(h.replicas) > 0 {
		rc, fresh, err = s.r.OpenFrom(h.replicas, h.key, h.off, h.length)
	} else {
		rc, err = s.r.OpenReader(h.key, h.off, h.length)
	}
	if err != nil {
		if werr := bw.WriteByte(1); werr != nil {
			return werr
		}
		return writeErrString(bw, err)
	}
	defer rc.Close()
	if werr := bw.WriteByte(0); werr != nil {
		return werr
	}
	if werr := writeIDs(bw, fresh); werr != nil {
		return werr
	}
	left := h.length
	for left > 0 {
		n := int64(maxFrame)
		if n > left {
			n = left
		}
		if werr := writeU32(bw, uint32(n)); werr != nil {
			return werr
		}
		// Flush the frame word, then move the payload straight from the
		// store reader to the socket: for disk stores rc is the chunk
		// file itself, so the kernel sendfiles page cache → socket with
		// no user-space copy at all. A payload error here is fatal by
		// construction — the frame word already promised n bytes — so
		// it propagates up and closes the connection.
		if werr := bw.Flush(); werr != nil {
			return werr
		}
		if _, cerr := io.CopyN(conn, rc, n); cerr != nil {
			return cerr
		}
		s.frames.Inc()
		s.bytes.Add(n)
		left -= n
	}
	return writeU32(bw, 0)
}

// --- client side ---

// framedConn is one pooled client connection to a data node's framed
// plane.
type framedConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// framedPoolCap bounds the connections a client keeps to one data
// endpoint, in use plus idle. The pipelined writer and the list-reader
// each keep a window of 8 transfers, so 16 never queues one behind the
// other; the one wider fan-out, a buffered write's chunk puts (92 per
// tile_atomic write), is as fast on 8, 16 or 32 warm connections and
// slower only when it redials (CHANGES.md, PR 15, has the sweep).
const framedPoolCap = 16

// ErrClientClosed is returned by a framed op started after, or still
// waiting for a connection at, Client.Close.
var ErrClientClosed = errors.New("remote: client closed")

// framedPool hands out exclusive connections to one data endpoint.
// Pooling is what pipelines the data plane: N concurrent chunk
// transfers ride N connections instead of serializing on net/rpc's
// single gob stream. The pool is bounded: once framedPoolCap
// connections exist an acquire waits for a release rather than dialing
// another, so a fan-out wider than the pool queues on warm sockets and
// steady state dials nothing.
type framedPool struct {
	addr  string
	dials *metrics.Counter // bs_data_dials_total, nil-tolerant

	mu     sync.Mutex
	freed  sync.Cond // signalled when idle grows, open shrinks or the pool closes
	idle   []*framedConn
	open   int // connections in use plus idle, never above framedPoolCap
	closed bool
}

func newFramedPool(addr string) *framedPool {
	p := &framedPool{addr: addr}
	p.freed.L = &p.mu
	return p
}

// acquire hands out an idle connection when one exists (pooled=true),
// dials a fresh one while the pool is below its bound, and otherwise
// waits for a release. Idle connections are never validated here —
// only their first use can prove them dead — so op-level callers go
// through withConn, which retries once on a fresh dial when a POOLED
// connection fails.
func (p *framedPool) acquire() (fc *framedConn, pooled bool, err error) {
	p.mu.Lock()
	for !p.closed && len(p.idle) == 0 && p.open >= framedPoolCap {
		p.freed.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if n := len(p.idle); n > 0 {
		fc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return fc, true, nil
	}
	p.open++
	p.mu.Unlock()
	if fc, err = p.dial(); err != nil {
		p.drop(1)
		return nil, false, err
	}
	return fc, false, nil
}

// dial opens one connection; the caller already holds its slot in open.
func (p *framedPool) dial() (*framedConn, error) {
	c, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial framed %s: %w", p.addr, err)
	}
	p.dials.Inc()
	fc := &framedConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}
	if _, err := fc.bw.WriteString(framedMagic); err != nil {
		c.Close()
		return nil, err
	}
	return fc, nil
}

// drop gives back the slots of n connections that were closed.
func (p *framedPool) drop(n int) {
	p.mu.Lock()
	p.open -= n
	p.mu.Unlock()
	for ; n > 0; n-- {
		p.freed.Signal()
	}
}

// flushIdle closes every idle connection. Called after a pooled
// connection turned out dead: the usual cause is a data-node restart,
// which killed every socket the pool is holding — keeping them would
// make the next ops each pay the same discover-retry cycle.
func (p *framedPool) flushIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, fc := range idle {
		fc.c.Close()
	}
	p.drop(len(idle))
}

// withConn runs one framed op on a pool connection. A fatal
// (transport-level) failure on a POOLED connection is indistinguishable
// from a stale socket left by a peer restart, so the op retries once on
// a freshly dialed connection — in the failed one's slot, so the retry
// never waits behind the bound — after flushing the rest of the idle
// list; a failure on a fresh dial is a real peer problem and surfaces
// as-is. Retried puts are safe: the chunk store is immutable, so the
// worst a half-delivered first attempt yields is chunk.ErrExists on the
// retry.
func (p *framedPool) withConn(op func(fc *framedConn) (err error, fatal bool)) error {
	fc, pooled, err := p.acquire()
	if err != nil {
		return err
	}
	err, fatal := op(fc)
	if !fatal {
		p.release(fc)
		return err
	}
	fc.c.Close()
	if pooled {
		p.flushIdle()
		if fc, err = p.dial(); err == nil {
			if err, fatal = op(fc); !fatal {
				p.release(fc)
				return err
			}
			fc.c.Close()
		}
	}
	p.drop(1)
	return err
}

// release returns a healthy connection to the pool, or closes it when
// the pool closed while it was out.
func (p *framedPool) release(fc *framedConn) {
	p.mu.Lock()
	if !p.closed {
		p.idle = append(p.idle, fc)
		p.mu.Unlock()
		p.freed.Signal()
		return
	}
	p.open--
	p.mu.Unlock()
	fc.c.Close()
}

// close closes every idle connection and marks the pool closed:
// waiting and later acquires fail with ErrClientClosed, and a
// connection that is out is closed by the release that ends its op.
func (p *framedPool) close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.open -= len(idle)
	p.mu.Unlock()
	p.freed.Broadcast()
	for _, fc := range idle {
		fc.c.Close()
	}
}

// put performs one framed chunk store. A transport error closes the
// connection (retrying once on a fresh dial if it was pooled — see
// withConn); a server-reported error keeps it pooled.
func (p *framedPool) put(key chunk.Key, data []byte) (ids []provider.ID, err error) {
	err = p.withConn(func(fc *framedConn) (error, bool) {
		var oerr error
		var fatal bool
		ids, oerr, fatal = fc.put(key, data)
		return oerr, fatal
	})
	return ids, err
}

func (fc *framedConn) put(key chunk.Key, data []byte) (ids []provider.ID, err error, fatal bool) {
	h := frameHeader{op: opPut, key: key, length: int64(len(data))}
	if err := writeHeader(fc.bw, h); err != nil {
		return nil, err, true
	}
	if err := fc.bw.Flush(); err != nil {
		return nil, err, true
	}
	// Scatter-gather the body: frame words and payload slices go out in
	// one writev batch, so the payload is never copied into a staging
	// buffer — the zero-copy half of the put path.
	nframes := (len(data) + maxFrame - 1) / maxFrame
	words := make([]byte, 4*(nframes+1))
	bufs := make(net.Buffers, 0, 2*nframes+1)
	for i, off := 0, 0; off < len(data); i, off = i+1, off+maxFrame {
		end := off + maxFrame
		if end > len(data) {
			end = len(data)
		}
		w := words[4*i : 4*i+4]
		binary.LittleEndian.PutUint32(w, uint32(end-off))
		bufs = append(bufs, w, data[off:end])
	}
	bufs = append(bufs, words[4*nframes:]) // zero terminator
	if _, err := bufs.WriteTo(fc.c); err != nil {
		return nil, err, true
	}
	status, err := fc.br.ReadByte()
	if err != nil {
		return nil, err, true
	}
	if status != 0 {
		msg, rerr := readErrString(fc.br)
		if rerr != nil {
			return nil, rerr, true
		}
		return nil, errors.New(msg), false
	}
	ids, err = readIDs(fc.br)
	if err != nil {
		return nil, err, true
	}
	return ids, nil, false
}

// get performs one framed chunk read with an optional replica hint,
// returning the data and — when the hint was stale — the fresh set.
// Reads are idempotent, so the stale-pooled-connection retry in
// withConn is unconditionally safe here.
func (p *framedPool) get(replicas []provider.ID, key chunk.Key, off, length int64) (data []byte, fresh []provider.ID, err error) {
	err = p.withConn(func(fc *framedConn) (error, bool) {
		var oerr error
		var fatal bool
		data, fresh, oerr, fatal = fc.get(replicas, key, off, length)
		return oerr, fatal
	})
	return data, fresh, err
}

func (fc *framedConn) get(replicas []provider.ID, key chunk.Key, off, length int64) (data []byte, fresh []provider.ID, err error, fatal bool) {
	if length < 0 {
		return nil, nil, fmt.Errorf("remote: negative read length %d for chunk %v", length, key), false
	}
	h := frameHeader{op: opGet, key: key, off: off, length: length, replicas: replicas}
	if err := writeHeader(fc.bw, h); err != nil {
		return nil, nil, err, true
	}
	if err := fc.bw.Flush(); err != nil {
		return nil, nil, err, true
	}
	status, err := fc.br.ReadByte()
	if err != nil {
		return nil, nil, err, true
	}
	if status != 0 {
		msg, rerr := readErrString(fc.br)
		if rerr != nil {
			return nil, nil, rerr, true
		}
		return nil, nil, errors.New(msg), false
	}
	fresh, err = readIDs(fc.br)
	if err != nil {
		return nil, nil, err, true
	}
	// The reply must be exactly the bytes asked for: a frame that would
	// overrun length is refused before it is read, a terminator that
	// comes early fails the op. Either way the stream can no longer be
	// trusted, so the connection goes with it.
	data = make([]byte, length)
	var got int64
	for {
		n, rerr := readU32(fc.br)
		if rerr != nil {
			return nil, nil, rerr, true
		}
		if n == 0 {
			if got != length {
				return nil, nil, fmt.Errorf("remote: short reply for chunk %v: %d of %d bytes", key, got, length), true
			}
			return data, fresh, nil, false
		}
		if n == frameAbort {
			msg, rerr := readErrString(fc.br)
			if rerr != nil {
				return nil, nil, rerr, true
			}
			return nil, nil, errors.New(msg), false
		}
		if n > maxFrame {
			return nil, nil, fmt.Errorf("remote: oversized frame (%d bytes)", n), true
		}
		if int64(n) > length-got {
			return nil, nil, fmt.Errorf("remote: reply for chunk %v exceeds the %d bytes requested", key, length), true
		}
		if _, rerr := io.ReadFull(fc.br, data[got:got+int64(n)]); rerr != nil {
			return nil, nil, rerr, true
		}
		got += int64(n)
	}
}
