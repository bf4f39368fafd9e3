// Framed plane: the binary wire protocol that carries the two immutable
// put-once/get-many stores — chunk payloads (every Put, Get and GetFrom
// of a Client) and segment-tree nodes (every PutNode, GetNode and
// TryGetNode) — in length-prefixed frames instead of gob values. It is
// the only transport for either. Control RPCs (tickets, versions,
// admin) stay on gob: the byte- and call-heavy paths are where
// serialization cost and the lack of pipelining dominate.
//
// Negotiation is per-connection: a client opens each framed connection
// by sending the 4-byte magic "BSD1"; the server peeks the first bytes
// of every accepted connection and routes magic-led ones to the framed
// loop, everything else to the gob RPC server that answers the control
// calls. A node answers an op whose role it does not host — chunk ops
// need the data role, node ops the meta role — with an in-band error,
// keeping the connection.
//
// Wire format (all integers little-endian, matching chunk.Ref):
//
//	request header (40 bytes + hints):
//	  op u8, flags u8 (reserved), hintCount u8, pad u8,
//	  index u32, blob u64, version u64, off i64, length i64,
//	  hintCount * u32 replica IDs
//	ops:        1=put, 2=get (chunks, data role); 3=node put, 4=node
//	            get, 5=node try-get (tree nodes, meta role). A node op
//	            names its node in the same fields: blob, version, off =
//	            the node's offset, length = the node's size; index and
//	            hints go unused.
//	body:       frames of u32 size (1..maxFrame) + payload, then a u32 0
//	            terminator; the sentinel 0xFFFFFFFF aborts the stream.
//	put:        header + body, the chunk payload. Reply: status u8; 0 ok →
//	            u8 count + count*u32 replica IDs, 1 err → u32 len + message
//	get reply:  status u8; ok → u8 freshCount (+IDs) then a body of
//	            exactly length bytes; err → u32 len + message.
//	            A store failure mid-frame closes the connection — the
//	            frame word already promised bytes that cannot arrive,
//	            so there is no in-band way to abort without desyncing
//	            the stream. Open-time errors keep the connection.
//	node put:   header + body, the node in segtree's binary form
//	            (segtree.AppendNode), at most maxNodeBody bytes; the
//	            server drains a longer body and refuses the put.
//	            Reply: status u8; ok, or err → u32 len + message
//	node get reply:  status u8; ok → a body, the node; err → u32 len +
//	            message; 2 miss → nothing more. A try-get answers a node
//	            not (yet) stored with miss, a get with the store's error.
//
// Requests pipeline on a connection: a client may write any number of
// whole requests back to back before it reads the first reply, and the
// server answers them in order. The server flushes its reply buffer
// only when it holds no further request bytes, so a lone request is
// answered at once and the replies to a run of requests leave in as few
// writes as they fit. That is safe because of one client-side rule: a
// request, once begun, is written to its end without waiting for any
// reply. The client here goes further and writes a whole train of
// requests before it reads the train's first reply, and keeps a train
// to one kind — put bodies still being written while get replies stream
// back could fill both socket buffers and stop both ends. Nothing in
// the format tells a pipelined request from a lone one, so clients and
// servers from before trains interoperate with these.
//
// Who forms a train: the client's pool, from a batch. A caller hands the
// pool all its calls of one kind at once (Client.PutMany, GetManyInto,
// PutNodes, GetNodes; a lone Put or GetNode is the batch of one) and the
// pool cuts the batch into trains — within maxTrainCalls and
// maxTrainBytes, over as many connections as the batch can use — so a
// list operation reaches the wire as a list: no goroutine, queue entry
// or wake-up per call. Only when every connection is busy does the queue
// form trains too, by merging the queued ones behind its head. See
// framedPool.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
)

// framedMagic is the 4-byte connection preamble that selects the
// framed data plane. Gob's own stream never starts with these bytes
// (a gob type definition begins with a small length byte), so the peek
// is unambiguous.
const framedMagic = "BSD1"

const (
	opPut        = 1
	opGet        = 2
	opNodePut    = 3
	opNodeGet    = 4
	opNodeTryGet = 5

	// Reply statuses.
	statusOK   = 0
	statusErr  = 1
	statusMiss = 2 // node try-get only: the node is not stored

	// maxFrame bounds one frame's payload; large enough that disk
	// reads amortize syscalls, small enough to bound per-frame buffers.
	maxFrame = 256 << 10

	// frameAbort is the sentinel frame size that aborts an in-flight
	// body: the sender died or hit an error mid-stream.
	frameAbort = 0xFFFFFFFF

	frameHeaderLen = 40

	// maxNodeBody bounds the encoded node either end accepts off the
	// wire: some 79,000 fragments in one leaf, far past the point where
	// rewriting such a leaf on every write to its page is the problem.
	maxNodeBody = 4 << 20
)

var (
	errAborted    = errors.New("remote: stream aborted by peer")
	errNoDataRole = errors.New("remote: chunk op on a node without the data role")
	errNoMetaRole = errors.New("remote: node op on a node without the meta role")
)

// PutOverrunError refuses a put whose body carried payload beyond the
// length its header declared. The store was handed exactly the declared
// bytes; the error tells the sender that its header and body disagree
// instead of acknowledging a body it did not store.
type PutOverrunError struct {
	Key             chunk.Key
	Declared, Extra int64
}

func (e *PutOverrunError) Error() string {
	return fmt.Sprintf("remote: put body for chunk %v carries %d bytes beyond the %d declared", e.Key, e.Extra, e.Declared)
}

// frameHeader is the fixed request header of one framed operation.
type frameHeader struct {
	op       byte
	key      chunk.Key // node ops: Blob and Version name the node, Index goes unused
	off      int64     // node ops: the node's offset
	length   int64     // put: total payload size; get: read length; node ops: the node's size
	replicas []provider.ID
}

// nodeKey is the node a node op names.
func (h *frameHeader) nodeKey() segtree.NodeKey {
	return segtree.NodeKey{Version: h.key.Version, Offset: h.off, Size: h.length}
}

// maxWireIDs is what the one-byte ID counts of the format can carry.
const maxWireIDs = 255

// appendHeader appends h's wire form to buf.
func appendHeader(buf []byte, h *frameHeader) []byte {
	hints := h.replicas
	if len(hints) > maxWireIDs {
		hints = hints[:maxWireIDs]
	}
	buf = append(buf, h.op, 0, byte(len(hints)), 0)
	buf = binary.LittleEndian.AppendUint32(buf, h.key.Index)
	buf = binary.LittleEndian.AppendUint64(buf, h.key.Blob)
	buf = binary.LittleEndian.AppendUint64(buf, h.key.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.length))
	for _, id := range hints {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// peek returns the next n bytes of r without consuming them; the caller
// discards them once parsed. n must not exceed r's buffer (every caller
// asks for at most 4*maxWireIDs bytes). A stream that ends inside the n
// bytes is an unexpected EOF, one that ends before them a clean one.
func peek(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err == io.EOF && len(b) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}

func readHeader(r *bufio.Reader) (frameHeader, error) {
	buf, err := peek(r, frameHeaderLen)
	if err != nil {
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
	hints := int(buf[2])
	r.Discard(frameHeaderLen)
	h.replicas, err = readIDList(r, hints)
	return h, err
}

func writeU32(w *bufio.Writer, v uint32) error {
	_, err := w.Write(binary.LittleEndian.AppendUint32(w.AvailableBuffer(), v))
	return err
}

func readU32(r *bufio.Reader) (uint32, error) {
	b, err := peek(r, 4)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	r.Discard(4)
	return v, nil
}

// writeErrReply writes the error form of a reply.
func writeErrReply(w *bufio.Writer, err error) error {
	msg := err.Error()
	if werr := w.WriteByte(statusErr); werr != nil {
		return werr
	}
	if werr := writeU32(w, uint32(len(msg))); werr != nil {
		return werr
	}
	_, werr := w.WriteString(msg)
	return werr
}

func readErrString(r *bufio.Reader) (string, error) {
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

func writeIDs(w *bufio.Writer, ids []provider.ID) error {
	if len(ids) > maxWireIDs {
		ids = ids[:maxWireIDs]
	}
	buf := append(w.AvailableBuffer(), byte(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	_, err := w.Write(buf)
	return err
}

func readIDs(r *bufio.Reader) ([]provider.ID, error) {
	c, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	return readIDList(r, int(c))
}

// readIDList reads n u32 replica IDs; none is a nil list.
func readIDList(r *bufio.Reader, n int) ([]provider.ID, error) {
	if n == 0 {
		return nil, nil
	}
	buf, err := peek(r, 4*n)
	if err != nil {
		return nil, err
	}
	ids := make([]provider.ID, n)
	for i := range ids {
		ids[i] = provider.ID(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	r.Discard(4 * n)
	return ids, nil
}

// frameBodyReader adapts a framed body to io.Reader, so the store's
// PutFromReader consumes payload bytes straight off the connection —
// the zero-copy path: socket buffer → store writer, nothing
// materialized in between. It also feeds the per-frame metrics. A
// server connection has one, reset per body.
type frameBodyReader struct {
	r       *bufio.Reader
	left    uint32 // bytes remaining in the current frame
	seen    int64  // payload bytes the body has carried so far
	done    bool
	aborted bool
	frames  *metrics.Counter
	bytes   *metrics.Counter
}

func (fr *frameBodyReader) reset() {
	fr.left, fr.seen, fr.done, fr.aborted = 0, 0, false, false
}

// next reads the next frame word into left: io.EOF at the terminator,
// errAborted at the abort sentinel.
func (fr *frameBodyReader) next() error {
	if fr.done || fr.aborted {
		return io.EOF
	}
	n, err := readU32(fr.r)
	if err != nil {
		return err
	}
	switch {
	case n == 0:
		fr.done = true
		return io.EOF
	case n == frameAbort:
		fr.aborted = true
		return errAborted
	case n > maxFrame:
		return fmt.Errorf("remote: oversized frame (%d bytes)", n)
	}
	fr.left = n
	fr.frames.Inc()
	return nil
}

// consumed accounts for n payload bytes taken off the current frame.
func (fr *frameBodyReader) consumed(n int) {
	fr.left -= uint32(n)
	fr.seen += int64(n)
	fr.bytes.Add(int64(n))
}

func (fr *frameBodyReader) Read(p []byte) (int, error) {
	for fr.left == 0 {
		if err := fr.next(); err != nil {
			return 0, err
		}
	}
	if uint32(len(p)) > fr.left {
		p = p[:fr.left]
	}
	n, err := fr.r.Read(p)
	fr.consumed(n)
	return n, err
}

// drain skips the rest of the body, keeping the connection aligned on
// the next request whatever became of this one.
func (fr *frameBodyReader) drain() error {
	for {
		n, err := fr.r.Discard(int(fr.left))
		fr.consumed(n)
		if err != nil {
			return err
		}
		if err := fr.next(); err == io.EOF || err == errAborted {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// readNodeBody reads a whole body of at most maxNodeBody bytes, never
// nil. It allocates frame by frame — for the usual single-frame body
// once, exactly — so never more than one frame ahead of the bytes that
// arrived. An error leaves the rest of the body unread.
func readNodeBody(fr *frameBodyReader) ([]byte, error) {
	data := []byte{}
	for {
		if err := fr.next(); fr.done {
			return data, nil
		} else if err != nil {
			return data, err // io.EOF too: the stream ended before the terminator
		}
		n := len(data) + int(fr.left)
		if n > maxNodeBody {
			return data, fmt.Errorf("remote: node body exceeds the limit of %d bytes", maxNodeBody)
		}
		data = slices.Grow(data, int(fr.left))[:n]
		if _, err := io.ReadFull(fr, data[n-int(fr.left):]); err != nil {
			return data, err
		}
	}
}

// framedServer serves the framed plane of one node: chunk ops against
// its router, node ops against its metadata store, either nil when the
// node lacks the role. Its series are nil-tolerant: a node without a
// metrics role serves uncounted.
type framedServer struct {
	r        *provider.Router
	nodes    *metadata.Store
	frames   *metrics.Counter   // bs_data_frames_total
	bytes    *metrics.Counter   // bs_data_stream_bytes_total
	flushOps *metrics.Histogram // bs_data_flush_ops
	// Requests answered: bs_data_requests_total{op}, bs_meta_node_ops_total{op}.
	requests [opNodeTryGet + 1]*metrics.Counter
}

func newFramedServer(roles Roles) *framedServer {
	s := &framedServer{r: roles.Data, nodes: roles.Meta}
	if reg := roles.Metrics; reg != nil {
		s.frames = reg.Counter("bs_data_frames_total")
		s.bytes = reg.Counter("bs_data_stream_bytes_total")
		s.flushOps = reg.Histogram("bs_data_flush_ops", trainBuckets())
		s.requests[opPut] = reg.Counter("bs_data_requests_total", metrics.Label{Key: "op", Value: "put"})
		s.requests[opGet] = reg.Counter("bs_data_requests_total", metrics.Label{Key: "op", Value: "get"})
		s.requests[opNodePut] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "put"})
		s.requests[opNodeGet] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "get"})
		s.requests[opNodeTryGet] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "tryget"})
	}
	return s
}

// trainBuckets are the bounds of the two requests-per-round-trip
// histograms: 1, 2, 4 … up to the longest train a client forms.
func trainBuckets() []float64 { return metrics.ExponentialBuckets(1, 2, 6) }

// serve handles one framed connection until EOF or a protocol error.
// Requests are answered in order, and the reply buffer is flushed only
// when no further request bytes are buffered: a lone request gets its
// reply at once, while the replies to a train a client pipelined leave
// together (bs_data_flush_ops counts requests answered per such flush).
// A client must therefore never wait for a reply in the middle of
// writing a request; see the file header.
func (s *framedServer) serve(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	body := &frameBodyReader{r: br, frames: s.frames, bytes: s.bytes}
	out := &frameWriter{conn: conn, frames: s.frames, bytes: s.bytes}
	answered := 0 // requests served since the input last ran dry
	for {
		h, err := readHeader(br)
		if err != nil {
			return // EOF or dead peer
		}
		switch h.op {
		case opPut:
			err = s.servePut(body, bw, h)
		case opGet:
			err = s.serveGet(out, bw, h)
		case opNodePut:
			err = s.serveNodePut(body, bw, h)
		case opNodeGet, opNodeTryGet:
			err = s.serveNodeGet(bw, h)
		default:
			return // protocol violation
		}
		if err != nil {
			return
		}
		s.requests[h.op].Inc()
		answered++
		if br.Buffered() == 0 {
			// Counted before the flush: once the replies are on the
			// wire a client may already be reading the registry.
			s.flushOps.Observe(float64(answered))
			answered = 0
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *framedServer) servePut(body *frameBodyReader, bw *bufio.Writer, h frameHeader) error {
	body.reset()
	var (
		ids []provider.ID
		err error
	)
	if s.r == nil {
		err = errNoDataRole
	} else if max := s.r.MaxChunkSize(); h.length < 0 || h.length > max {
		// The declared size comes straight off the wire; reject it here
		// before the router can act on it (PutStream checks again, but
		// the server must not trust the router to be its input filter).
		err = &provider.ChunkTooLargeError{Size: h.length, Max: max}
	} else {
		ids, err = s.r.PutStream(h.key, h.length, body)
	}
	// Whatever happened, the body must be consumed to keep the
	// connection aligned on the next header. A short store error (say
	// ErrExists) leaves unread frames behind.
	if derr := body.drain(); derr != nil {
		return derr
	}
	switch {
	case err != nil:
	case body.aborted:
		// The client aborted after the store already consumed exactly
		// length bytes — cannot happen with a well-formed abort, but
		// never report success for an aborted upload.
		err = errAborted
	case body.seen > h.length:
		err = &PutOverrunError{Key: h.key, Declared: h.length, Extra: body.seen - h.length}
	}
	if err != nil {
		return writeErrReply(bw, err)
	}
	if werr := bw.WriteByte(statusOK); werr != nil {
		return werr
	}
	return writeIDs(bw, ids)
}

func (s *framedServer) serveGet(out *frameWriter, bw *bufio.Writer, h frameHeader) error {
	if s.r == nil {
		return writeErrReply(bw, errNoDataRole)
	}
	rc, fresh, err := s.r.OpenFrom(h.replicas, h.key, h.off, h.length)
	if err != nil {
		return writeErrReply(bw, err)
	}
	defer rc.Close()
	if werr := bw.WriteByte(statusOK); werr != nil {
		return werr
	}
	if werr := writeIDs(bw, fresh); werr != nil {
		return werr
	}
	// A payload error below is fatal by construction — the frame word
	// already promised n bytes — so it propagates up and closes the
	// connection.
	if wt, ok := inMemory(rc); ok && 4+min(h.length, maxFrame) >= int64(bw.Size()) {
		// Frames too large for the write buffer, from a reader that holds
		// its bytes in memory (a mem:// store's slice, a coded read's
		// assembled image): it writes itself to the socket, words and
		// payload in one vectored write per slice it hands over, with no
		// copy through a buffer of ours. The terminator waits in bw for
		// the serve loop's flush, as every reply's last byte does: the
		// counters are up to date before a client can see the get done.
		if werr := bw.Flush(); werr != nil {
			return werr
		}
		out.left = h.length
		if _, werr := wt.WriteTo(out); werr != nil {
			return werr
		}
		if out.left != 0 {
			return fmt.Errorf("remote: store reader for chunk %v ended %d bytes short of %d", h.key, out.left, h.length)
		}
		return writeU32(bw, 0)
	}
	left := h.length
	for left > 0 {
		n := min(left, maxFrame)
		if need := 4 + int(n); need < bw.Size() {
			// The frame fits the write buffer: copy it in beside its
			// frame word, so small replies share writes with their
			// neighbours and nothing is allocated to move them. (bufio
			// reads straight into its buffer while it has room and hands
			// the reader to the socket once it is empty, which would
			// allocate a copy buffer: hence room is made first.)
			if bw.Available() <= need {
				if werr := bw.Flush(); werr != nil {
					return werr
				}
			}
			if werr := writeU32(bw, uint32(n)); werr != nil {
				return werr
			}
			if _, cerr := io.CopyN(bw, rc, n); cerr != nil {
				return cerr
			}
		} else {
			// Flush the frame word, then move the payload straight from
			// the store reader to the socket: for disk stores rc is the
			// chunk file itself, so the kernel sendfiles page cache →
			// socket with no user-space copy at all. Sending frames this
			// large through the buffer instead costs a copy per byte
			// (CHANGES.md, PR 15: 12 % of checkpoint_restore's read rate).
			if werr := writeU32(bw, uint32(n)); werr != nil {
				return werr
			}
			if werr := bw.Flush(); werr != nil {
				return werr
			}
			if _, cerr := io.CopyN(out.conn, rc, n); cerr != nil {
				return cerr
			}
		}
		s.frames.Inc()
		s.bytes.Add(n)
		left -= n
	}
	return writeU32(bw, 0)
}

// inMemory reports whether a store's reader can write its bytes out
// itself from memory, and returns it as the io.WriterTo it then is. The
// chunk file a disk:// store opens is an io.WriterTo as well, but only
// towards a socket does that mean sendfile: towards a frameWriter it
// would read itself into a buffer, so it keeps serveGet's loop, which
// hands it to the connection frame by frame.
func inMemory(rc io.ReadCloser) (io.WriterTo, bool) {
	if _, file := rc.(*os.File); file {
		return nil, false
	}
	wt, ok := rc.(io.WriterTo)
	return wt, ok
}

// frameWriter frames what is written to it as (part of) the body of a
// get reply of exactly left bytes: each Write leaves as one vectored
// write of `u32 size + payload` per slice of at most maxFrame bytes —
// the caller's bytes are never copied. A Write past the promised length
// is refused before a byte of it is sent. A server connection has one,
// left set per body.
type frameWriter struct {
	conn   net.Conn
	left   int64 // bytes of the body still to come
	frames *metrics.Counter
	bytes  *metrics.Counter

	// Reused from body to body: the frame words and the write vector
	// (vec, which WriteTo consumes, over bufs' array).
	words     []byte
	bufs, vec net.Buffers
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > fw.left {
		return 0, fmt.Errorf("remote: store reader overran its length by %d bytes", int64(len(p))-fw.left)
	}
	frames := (len(p) + maxFrame - 1) / maxFrame
	words, bufs := slices.Grow(fw.words[:0], 4*frames), fw.bufs[:0] // words must not move once sliced
	for rest := p; len(rest) > 0; {
		frame := rest[:min(len(rest), maxFrame)]
		rest = rest[len(frame):]
		words = binary.LittleEndian.AppendUint32(words, uint32(len(frame)))
		bufs = append(bufs, words[len(words)-4:], frame)
	}
	fw.words, fw.bufs, fw.vec = words, bufs, bufs
	if _, err := fw.vec.WriteTo(fw.conn); err != nil {
		return 0, err
	}
	fw.left -= int64(len(p))
	fw.frames.Add(int64(frames))
	fw.bytes.Add(int64(len(p)))
	return len(p), nil
}

// serveNodePut stores the node the body encodes. As in servePut the
// body is consumed whatever becomes of the put, and whatever is wrong
// with it — too long, aborted, not a node, a different node already
// stored — fails this op alone.
func (s *framedServer) serveNodePut(body *frameBodyReader, bw *bufio.Writer, h frameHeader) error {
	body.reset()
	var enc []byte
	err := errNoMetaRole
	if s.nodes != nil {
		enc, err = readNodeBody(body)
	}
	if derr := body.drain(); derr != nil {
		return derr
	}
	var n *segtree.Node
	if err == nil {
		n, err = segtree.DecodeNode(enc)
	}
	if err == nil {
		err = s.nodes.PutNode(h.key.Blob, h.nodeKey(), n)
	}
	if err != nil {
		return writeErrReply(bw, err)
	}
	return bw.WriteByte(statusOK)
}

// serveNodeGet answers a node get or try-get.
func (s *framedServer) serveNodeGet(bw *bufio.Writer, h frameHeader) error {
	if s.nodes == nil {
		return writeErrReply(bw, errNoMetaRole)
	}
	n, found, err := s.nodes.TryGetNode(h.key.Blob, h.nodeKey())
	if !found && err == nil && h.op == opNodeGet {
		_, err = s.nodes.GetNode(h.key.Blob, h.nodeKey()) // the store's own error for a miss
	}
	if err != nil {
		return writeErrReply(bw, err)
	}
	if !found {
		return bw.WriteByte(statusMiss)
	}
	if werr := bw.WriteByte(statusOK); werr != nil {
		return werr
	}
	// (A node past maxNodeBody, which only an in-process writer can have
	// stored, is refused by the client, at the cost of the connection.)
	for enc := segtree.AppendNode(nil, n); len(enc) > 0; {
		frame := enc[:min(len(enc), maxFrame)]
		enc = enc[len(frame):]
		if werr := writeU32(bw, uint32(len(frame))); werr != nil {
			return werr
		}
		if _, werr := bw.Write(frame); werr != nil {
			return werr
		}
		s.frames.Inc()
		s.bytes.Add(int64(len(frame)))
	}
	return writeU32(bw, 0)
}

// --- client side ---

// framedPoolCap bounds the connections a client keeps to one endpoint
// for one kind of traffic (chunks to the data endpoint, nodes to the
// meta endpoint), in use plus idle. A connection carries a whole train per
// round trip, so further connections buy parallelism at the server and
// cost shorter trains: swept with trains in place (CHANGES.md, PR 17),
// tile_atomic's 92-put writes and 122-get reads are fastest on 2 or 4
// connections and slower on 8 and 16, while checkpoint_restore — 1 MiB
// transfers under a window of 8, each a train of one — is flat from 2
// to 16. 4 rather than 2 keeps four of those large transfers moving at
// once.
const framedPoolCap = 4

// A train is the run of calls one connection carries in one round trip:
// at most maxTrainCalls of them and, past the first, at most
// maxTrainBytes of payload (put and node-put bodies, or the bytes gets
// asked for; a node get counts nothing, the call bound is its bound), so
// a megabyte chunk always travels alone and a train of small pieces
// never holds a connection longer than one large transfer would.
const (
	maxTrainCalls = 32
	maxTrainBytes = 1 << 20
)

// ErrClientClosed is returned by a framed op started after, or still
// queued for a connection at, Client.Close.
var ErrClientClosed = errors.New("remote: client closed")

// framedCall is one chunk or node op on its way through the pool.
type framedCall struct {
	h    frameHeader
	data []byte        // put, node put: the body; get: the caller's destination, h.length bytes to fill; node get: the encoded node, nil on a miss
	ids  []provider.ID // put: the replica set; get: the fresh set, if any
	err  error

	// retried marks a call already re-sent after a transport failure.
	retried bool

	// of is the train the call was handed to the pool in.
	of *framedTrain
}

// payload is what the call counts towards maxTrainBytes.
func (c *framedCall) payload() int64 {
	if c.h.op == opGet {
		return c.h.length
	}
	return int64(len(c.data))
}

// framedTrain is a run of calls of one kind within the train bounds, cut
// from a batch — a lone call is the batch of one — and the unit the pool
// queues. Its owner, the goroutine that brought it, blocks until every
// call has its outcome: leading the train itself, or — queued, and merged
// into the train of the one queued ahead of it — woken by that leader.
type framedTrain struct {
	calls []*framedCall
	bytes int64 // the calls' payload
	left  int   // calls without an outcome yet; whoever leads counts down

	// wake is signalled exactly once to a queued train: with lead set its
	// owner now leads those calls, its own first, on fc (nil: a free slot
	// to dial into); otherwise every call of the train has its outcome.
	wake chan struct{}
	lead []*framedCall
	fc   *framedConn
}

// framedConn is one client connection to a node's framed plane, owned
// by one train at a time.
type framedConn struct {
	c  net.Conn
	br *bufio.Reader

	// Reused from train to train: the bytes around the payloads
	// (headers, frame words, terminators) and the write vector.
	scratch []byte
	bufs    net.Buffers
}

// framedPool runs batches of framed calls over a bounded set of
// connections to one endpoint. The batch is what a caller hands over — all
// its calls of one kind at once, a list operation arriving as a list — and
// the pool cuts it into trains itself: each within the train bounds, and
// no fewer than the connections the batch could use, so a write of two
// pieces still moves on two sockets. A train is carried in one round trip:
// all requests in one write, replies read in order. One that finds a
// connection free (or room to dial one) leaves at once; one that finds
// every connection busy queues, and a connection that comes free takes the
// head of the queue plus the trains of the same kind right behind it, up
// to the train bounds — which is how concurrent lone callers still share
// round trips. Whoever brought the head train leads: there is no pool
// goroutine and no timer, and of one batch only the caller and at most
// framedPoolCap-1 helpers ever block — never a goroutine per call. Steady
// state dials nothing.
type framedPool struct {
	addr     string
	dials    *metrics.Counter   // bs_data_dials_total, nil-tolerant
	trainOps *metrics.Histogram // bs_data_train_ops, nil-tolerant

	mu     sync.Mutex
	idle   []*framedConn
	open   int            // connections in use plus idle, never above framedPoolCap
	queue  []*framedTrain // non-empty only while idle is empty and open is at the cap
	closed bool
}

func newFramedPool(addr string) *framedPool {
	return &framedPool{addr: addr}
}

// putCall and getCall are the chunk calls, nodeCall the node calls: body
// is the encoded node of a put; what comes back in data is the encoded
// node of a get or a try-get, nil when a try-get missed.
func putCall(key chunk.Key, data []byte) framedCall {
	return framedCall{h: frameHeader{op: opPut, key: key, length: int64(len(data))}, data: data}
}

func getCall(dst []byte, replicas []provider.ID, key chunk.Key, off int64) framedCall {
	return framedCall{h: frameHeader{op: opGet, key: key, off: off, length: int64(len(dst)), replicas: replicas}, data: dst}
}

func nodeCall(op byte, blob uint64, key segtree.NodeKey, body []byte) framedCall {
	return framedCall{
		h:    frameHeader{op: op, key: chunk.Key{Blob: blob, Version: key.Version}, off: key.Offset, length: key.Size},
		data: body,
	}
}

// put performs one framed chunk store.
func (p *framedPool) put(key chunk.Key, data []byte) ([]provider.ID, error) {
	c := p.one(putCall(key, data))
	return c.ids, c.err
}

// node performs one framed node op on the node key names.
func (p *framedPool) node(op byte, blob uint64, key segtree.NodeKey, body []byte) ([]byte, error) {
	c := p.one(nodeCall(op, blob, key, body))
	return c.data, c.err
}

// get performs one framed chunk read with an optional replica hint: it
// fills dst with the len(dst) bytes at off, read off the socket straight
// into it, and returns — when the hint was stale — the fresh set. After
// an error dst holds nothing the caller may use.
func (p *framedPool) get(dst []byte, replicas []provider.ID, key chunk.Key, off int64) ([]provider.ID, error) {
	c := p.one(getCall(dst, replicas, key, off))
	return c.ids, c.err
}

// one runs the batch of one — call, train and the train's list of calls
// in one allocation — and returns the call with its outcome.
func (p *framedPool) one(call framedCall) *framedCall {
	l := &struct {
		c     framedCall
		t     framedTrain
		calls [1]*framedCall
	}{c: call}
	l.calls[0], l.c.of = &l.c, &l.t
	l.t = framedTrain{calls: l.calls[:], bytes: l.c.payload(), left: 1}
	p.do(&l.t)
	return &l.c
}

// run carries a batch — calls of one kind — to their outcomes, each
// call's in the call: its trains run from the caller's goroutine and at
// most framedPoolCap-1 helpers, which are gone when it returns.
func (p *framedPool) run(batch []framedCall) {
	trains := cutTrains(batch)
	if len(trains) == 0 {
		return
	}
	var (
		next    atomic.Int64
		helpers sync.WaitGroup
	)
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(trains)); i = next.Add(1) - 1 {
			p.do(trains[i])
		}
	}
	for h := min(len(trains), framedPoolCap) - 1; h > 0; h-- {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			work()
		}()
	}
	work()
	helpers.Wait()
}

// cutTrains cuts a batch into trains of equal length, as many as the
// batch could use connections, shorter where the train bounds say so.
func cutTrains(batch []framedCall) []*framedTrain {
	calls := make([]*framedCall, len(batch))
	for i := range batch {
		calls[i] = &batch[i]
	}
	per := min((len(batch)+framedPoolCap-1)/framedPoolCap, maxTrainCalls)
	var trains []*framedTrain
	for len(calls) > 0 {
		n, bytes := 1, calls[0].payload()
		for n < len(calls) && n < per && bytes+calls[n].payload() <= maxTrainBytes {
			bytes += calls[n].payload()
			n++
		}
		t := &framedTrain{calls: calls[:n:n], bytes: bytes, left: n}
		for _, c := range t.calls {
			c.of = t
		}
		trains, calls = append(trains, t), calls[n:]
	}
	return trains
}

// do runs t to its outcome: at once on a free connection or slot,
// otherwise from the queue — as the leader of what the queue merged
// behind it, or inside the train of the one ahead.
func (p *framedPool) do(t *framedTrain) {
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		for _, c := range t.calls {
			c.err = ErrClientClosed
		}
	case len(p.idle) > 0:
		fc := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		p.mu.Unlock()
		p.lead(fc, t, t.calls)
	case p.open < framedPoolCap:
		p.open++
		p.mu.Unlock()
		p.lead(nil, t, t.calls)
	default:
		t.wake = make(chan struct{}, 1)
		p.queue = append(p.queue, t)
		p.mu.Unlock()
		<-t.wake
		if t.lead != nil {
			p.lead(t.fc, t, t.lead)
		}
	}
}

// lead carries calls — the train me, the caller's own, and whatever the
// queue merged behind it — over fc, or over a connection dialed into the
// slot the caller holds when fc is nil, wakes the owner of each other
// train as the last of its replies arrives, and hands the connection on.
//
// Server-reported errors are outcomes like any other: one chunk's
// ErrExists fails that call alone. A transport failure leaves answered
// calls answered. On a connection that had been used before it is
// indistinguishable from a stale socket left by a peer restart, so the
// call it hit and those behind it are re-sent, once each, on a fresh
// dial — in the failed connection's slot, so the retry never waits
// behind the bound — after flushing the rest of the idle list; on a
// fresh dial it is a real peer problem and fails the call it hit.
// Re-sent puts are safe: both stores are immutable, so the worst a
// first attempt the server applied but could not answer yields is
// chunk.ErrExists on the retry of a chunk, and nothing at all on the
// retry of a node (metadata.Store accepts an identical re-put).
func (p *framedPool) lead(fc *framedConn, me *framedTrain, calls []*framedCall) {
	settle := func(c *framedCall) {
		t := c.of
		if t.left--; t.left == 0 && t != me {
			t.wake <- struct{}{}
		}
	}
	for len(calls) > 0 {
		var err error
		dialed := fc == nil
		if dialed {
			if fc, err = p.dial(); err != nil {
				for _, c := range calls {
					c.err = err
					settle(c)
				}
				break
			}
		}
		p.trainOps.Observe(float64(len(calls)))
		err = fc.send(calls)
		for err == nil && len(calls) > 0 {
			if err = fc.readReply(calls[0]); err == nil {
				settle(calls[0])
				calls = calls[1:]
			}
		}
		if err == nil {
			break
		}
		fc.c.Close()
		fc = nil
		if !dialed {
			p.flushIdle()
		}
		again := calls[:0]
		for i, c := range calls {
			if c.retried || (i == 0 && dialed) {
				c.err = err
				settle(c)
			} else {
				c.retried = true
				again = append(again, c)
			}
		}
		calls = again
	}
	p.handOn(fc)
}

// handOn ends a leader's turn: the connection (nil: just its slot)
// goes to the train at the head of the queue, or idle, or — closed
// pool, or nothing to reuse — away.
func (p *framedPool) handOn(fc *framedConn) {
	p.mu.Lock()
	switch {
	case p.closed || (fc == nil && len(p.queue) == 0):
		p.open--
		p.mu.Unlock()
		if fc != nil {
			fc.c.Close()
		}
	case len(p.queue) == 0:
		p.idle = append(p.idle, fc)
		p.mu.Unlock()
	default:
		q := p.queue
		head := q[0]
		n, calls, bytes := 1, len(head.calls), head.bytes
		for n < len(q) && q[n].calls[0].h.op == head.calls[0].h.op &&
			calls+len(q[n].calls) <= maxTrainCalls && bytes+q[n].bytes <= maxTrainBytes {
			calls += len(q[n].calls)
			bytes += q[n].bytes
			n++
		}
		if p.queue = q[n:]; len(p.queue) == 0 {
			p.queue = nil
		}
		p.mu.Unlock()
		head.lead, head.fc = head.calls, fc
		if n > 1 {
			head.lead = make([]*framedCall, 0, calls)
			for _, t := range q[:n] {
				head.lead = append(head.lead, t.calls...)
			}
		}
		head.wake <- struct{}{}
	}
}

// dial opens one connection; the caller already holds its slot in open.
func (p *framedPool) dial() (*framedConn, error) {
	c, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial framed %s: %w", p.addr, err)
	}
	p.dials.Inc()
	if _, err := c.Write([]byte(framedMagic)); err != nil {
		c.Close()
		return nil, err
	}
	return &framedConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// flushIdle closes every idle connection. Called after a used
// connection turned out dead: the usual cause is a data-node restart,
// which killed every socket the pool is holding — keeping them would
// make the next ops each pay the same discover-retry cycle. (The queue
// is empty whenever idle is not, so nobody waits for the freed slots.)
func (p *framedPool) flushIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.open -= len(idle)
	p.mu.Unlock()
	for _, fc := range idle {
		fc.c.Close()
	}
}

// close closes every idle connection and marks the pool closed: queued
// and later calls fail with ErrClientClosed, a train on the wire
// finishes and its leader closes the connection in handOn.
func (p *framedPool) close() {
	p.mu.Lock()
	p.closed = true
	idle, queue := p.idle, p.queue
	p.idle, p.queue = nil, nil
	p.open -= len(idle)
	p.mu.Unlock()
	for _, fc := range idle {
		fc.c.Close()
	}
	for _, t := range queue {
		for _, c := range t.calls {
			c.err = ErrClientClosed
		}
		t.wake <- struct{}{}
	}
}

// send writes every request of train in one vectored write: headers,
// frame words and terminators from the connection's scratch, bodies
// from the callers' own slices — never copied into a staging
// buffer, the zero-copy half of the put path.
func (fc *framedConn) send(train []*framedCall) error {
	buf, bufs, sent := fc.scratch[:0], fc.bufs[:0], 0
	for _, c := range train {
		buf = appendHeader(buf, &c.h)
		if c.h.op != opPut && c.h.op != opNodePut {
			continue // no body
		}
		for data := c.data; len(data) > 0; {
			frame := data[:min(len(data), maxFrame)]
			data = data[len(frame):]
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frame)))
			bufs = append(bufs, buf[sent:], frame)
			sent = len(buf)
		}
		buf = binary.LittleEndian.AppendUint32(buf, 0) // terminator
	}
	bufs = append(bufs, buf[sent:])
	// Keep what the appends grew; WriteTo clears the entries it wrote.
	fc.scratch, fc.bufs = buf[:0], bufs[:0]
	_, err := bufs.WriteTo(fc.c)
	return err
}

// readReply reads the reply to c into it. A non-nil return means the
// stream failed or can no longer be trusted, and costs the connection;
// an error the server reported is c's outcome and returns nil.
func (fc *framedConn) readReply(c *framedCall) error {
	status, err := fc.br.ReadByte()
	if err != nil {
		return err
	}
	switch {
	case status == statusErr:
		msg, err := readErrString(fc.br)
		if err != nil {
			return err
		}
		c.err = errors.New(msg)
		return nil
	case status == statusMiss && c.h.op == opNodeTryGet:
		return nil
	case status != statusOK:
		return fmt.Errorf("remote: reply status %d to op %d", status, c.h.op)
	}
	switch c.h.op {
	case opNodePut:
		return nil
	case opNodeGet, opNodeTryGet:
		c.data, err = readNodeBody(&frameBodyReader{r: fc.br}) // never nil: only a miss is
		return err
	}
	ids, err := readIDs(fc.br)
	if err != nil {
		return err
	}
	if c.h.op == opPut {
		c.ids = ids
		return nil
	}
	// The reply must be exactly the bytes asked for, and they land in the
	// caller's destination, from byte 0 (a re-sent get refills it): a
	// frame that would overrun it is refused before it is read, a
	// terminator that comes early fails the op.
	key, dst := c.h.key, c.data
	got := 0
	for {
		n, err := readU32(fc.br)
		if err != nil {
			return err
		}
		if n == 0 {
			if got != len(dst) {
				return fmt.Errorf("remote: short reply for chunk %v: %d of %d bytes", key, got, len(dst))
			}
			c.ids = ids
			return nil
		}
		if n > maxFrame {
			return fmt.Errorf("remote: oversized frame (%d bytes)", n)
		}
		if int(n) > len(dst)-got {
			return fmt.Errorf("remote: reply for chunk %v exceeds the %d bytes requested", key, len(dst))
		}
		if _, err := io.ReadFull(fc.br, dst[got:got+int(n)]); err != nil {
			return err
		}
		got += int(n)
	}
}
