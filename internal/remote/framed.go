// Framed plane: the binary wire protocol that carries every call a
// Client makes — the version manager's calls, chunk payloads and
// segment-tree nodes — in length-prefixed frames.
//
// A client opens each framed connection by sending the 4-byte magic
// "BSD1"; the server peeks the first bytes of every accepted connection
// and routes magic-led ones to the framed loop, everything else to the
// HTTP server of the operator calls (admin.go). A node answers an op
// whose role it does not host — VM, data or meta — with an in-band
// error, keeping the connection.
//
// Wire format (all integers little-endian, matching chunk.Ref):
//
//	request header (40 bytes + hints):
//	  op u8, flags u8 (reserved), hintCount u8, pad u8,
//	  index u32, blob u64, version u64, off i64, length i64,
//	  hintCount * u32 replica IDs
//	ops:        1=put, 2=get (chunks, data role); 3=node put, 4=node
//	            get, 5=node try-get (tree nodes, meta role: blob,
//	            version, off and length name the node); 6..20 (VM role)
//	            the blob.VersionService calls in its order: CreateBlob
//	            (off, length = capacity, page), Geometry, AssignTicket,
//	            Complete, Abort, WaitPublished, LatestPublished,
//	            Snapshot, Versions, Retain (off = keepLast), DropVersion,
//	            Pin, Unpin, GCInfo, MarkReclaimed; 21=walk (meta role: a
//	            resolve's tree walk, blob in the header).
//	body:       frames of u32 size (1..maxFrame) + payload, then a u32 0
//	            terminator; the sentinel 0xFFFFFFFF aborts the stream.
//	err reply:  status u8 1, u32 len + message, to any op.
//	put:        header + body, the chunk payload. Reply: status u8; 0 ok →
//	            u8 count + count*u32 replica IDs.
//	get reply:  ok → u8 freshCount (+IDs) then a body of exactly length
//	            bytes. A store failure mid-frame closes the connection —
//	            the frame word already promised the bytes; open-time
//	            errors keep it.
//	node put:   header + body, the node in segtree's binary form, at most
//	            maxNodeBody bytes (a longer body is drained and refused).
//	            Reply: ok.
//	node get reply:  ok → a body, the node; 2 miss → nothing more. A
//	            try-get answers a node not (yet) stored with miss, a get
//	            with the store's error.
//	walk:       header + body: part count u32, then per part a node key
//	            (version u64, offset i64, size i64) and an extent list
//	            (count u32, count × (offset i64, length i64)): the part of
//	            a resolve's query under that node, normalized and within
//	            its range. Reply: ok → a body: node count u32, then per
//	            node its key, length u32 and the node in segtree's binary
//	            form — the nodes segtree.Walk visits from the parts, in its
//	            order, as many as fit in maxWalkBody bytes. A reply ends at
//	            a whole node and holds at least the first part's (a
//	            request too long for the bound is sent shorter; see
//	            Client.WalkNodes).
//	VM ops:     AssignTicket sends a body, the extent list, Complete one,
//	            the root key. Reply: ok → a body, the result (empty for
//	            calls that return none). Bodies are vmanager's binary
//	            forms (vmanager/wire.go), at most maxVMBody bytes.
//
// Requests pipeline on a connection: a client may write any number of
// whole requests back to back before it reads the first reply, and the
// server answers them in order, flushing its reply buffer only when it
// holds no further request bytes. That is safe because of one
// client-side rule: a request, once begun, is written to its end without
// waiting for any reply. The client here writes a whole train of
// requests of one kind before it reads the train's first reply — put
// bodies still being written while get replies stream back could fill
// both socket buffers and stop both ends. A pool forms trains from the
// batch a caller hands it (Client.PutMany, GetManyInto, PutNodes,
// GetNodes; a lone call is the batch of one), and from its queue when
// every connection is busy; see framedPool.
//
// In-order replies are also why a WaitPublished, which parks until
// earlier versions publish, travels on a connection of its own (a wait
// pool's), outside the bounded pools: however many waits are parked, the
// Complete that releases them still finds a connection.
package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// framedMagic is the 4-byte connection preamble that selects the
// framed plane. No HTTP request starts with these bytes (a method name
// comes first), so the peek is unambiguous.
const framedMagic = "BSD1"

const (
	// Chunk ops (data role), node ops (meta role).
	opPut, opGet, opNodePut, opNodeGet, opNodeTryGet = 1, 2, 3, 4, 5
	// Version-manager ops (VM role), in blob.VersionService's order.
	opCreateBlob, opGeometry, opAssignTicket, opComplete, opAbort        = 6, 7, 8, 9, 10
	opWaitPublished, opLatestPublished, opSnapshot, opVersions, opRetain = 11, 12, 13, 14, 15
	opDropVersion, opPin, opUnpin, opGCInfo, opMarkReclaimed             = 16, 17, 18, 19, 20
	// A resolve's tree walk (meta role).
	opWalkNodes = 21

	// Reply statuses; a miss answers a node try-get only.
	statusOK, statusErr, statusMiss = 0, 1, 2

	// maxFrame bounds one frame's payload: disk reads amortize syscalls,
	// per-frame buffers stay bounded.
	maxFrame = 256 << 10

	// frameAbort is the frame size that aborts a body mid-stream.
	frameAbort = 0xFFFFFFFF

	frameHeaderLen = 40

	// maxNodeBody bounds the encoded node either end accepts: some 79,000
	// fragments in one leaf.
	maxNodeBody = 4 << 20

	// maxVMBody bounds a version-manager op's request or reply body: the
	// version list of a blob with some eight million versions.
	maxVMBody = 64 << 20

	// maxWalkBody bounds a walk's request and reply body: room for one
	// node of the largest a node put accepts, behind its count, key and
	// length.
	maxWalkBody = 4 + walkHead + maxNodeBody
)

// sendsBody reports whether a request of op carries a body.
func sendsBody(op byte) bool {
	return op == opPut || op == opNodePut || op == opAssignTicket || op == opComplete || op == opWalkNodes
}

var (
	errAborted    = errors.New("remote: stream aborted by peer")
	errNoDataRole = errors.New("remote: chunk op on a node without the data role")
	errNoMetaRole = errors.New("remote: node op on a node without the meta role")
	errNoVMRole   = errors.New("remote: version-manager op on a node without the VM role")
)

// wireSentinels are the errors a caller tests for with errors.Is, which a
// server's error reply — a message only — would otherwise lose.
var wireSentinels = []error{
	vmanager.ErrUnknownBlob, vmanager.ErrBlobExists, vmanager.ErrEmptyWrite,
	vmanager.ErrUnknownVersion, vmanager.ErrDoubleComplete, vmanager.ErrShardDown,
	vmanager.ErrVersionDropped, vmanager.ErrVersionPinned, vmanager.ErrUndroppable,
	vmanager.ErrNotPinned, vmanager.ErrNotPending,
	chunk.ErrNotFound, chunk.ErrExists, segtree.ErrBadLink,
}

// wireError is the error a server reported as msg, with the sentinel its
// text names restored: the same message, wrapping the sentinel.
func wireError(msg string) error {
	for _, s := range wireSentinels {
		if i := strings.Index(msg, s.Error()); i >= 0 {
			return fmt.Errorf("%s%w%s", msg[:i], s, msg[i+len(s.Error()):])
		}
	}
	return errors.New(msg)
}

// PutOverrunError refuses a put whose body carried payload beyond the
// length its header declared, instead of acknowledging bytes the store
// was never handed.
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

// peek returns the next n bytes of r, at most its buffer, unconsumed. A
// stream that ends inside them is an unexpected EOF, before them a clean
// one.
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

// frameBodyReader adapts a framed body to io.Reader, so a store consumes
// payload bytes straight off the connection, and feeds the per-frame
// metrics. A server connection has one, reset per body.
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

// readBody reads a whole body of at most limit bytes, never nil. It
// allocates frame by frame — for the usual single-frame body once,
// exactly — so never more than one frame ahead of the bytes that
// arrived. An error leaves the rest of the body unread.
func readBody(fr *frameBodyReader, limit int) ([]byte, error) {
	data := []byte{}
	for {
		if err := fr.next(); fr.done {
			return data, nil
		} else if err != nil {
			return data, err // io.EOF too: the stream ended before the terminator
		}
		n := len(data) + int(fr.left)
		if n > limit {
			return data, fmt.Errorf("remote: body exceeds the limit of %d bytes", limit)
		}
		data = slices.Grow(data, int(fr.left))[:n]
		if _, err := io.ReadFull(fr, data[n-int(fr.left):]); err != nil {
			return data, err
		}
	}
}

// framedServer serves the framed plane of one node against its roles,
// any of them nil when the node lacks it. Its series are nil-tolerant: a
// node without a metrics role serves uncounted.
type framedServer struct {
	vm       VMBackend
	r        *provider.Router
	nodes    *metadata.Store
	frames   *metrics.Counter   // bs_data_frames_total
	bytes    *metrics.Counter   // bs_data_stream_bytes_total
	flushOps *metrics.Histogram // bs_data_flush_ops
	// Requests answered: bs_data_requests_total{op},
	// bs_meta_node_ops_total{op}, bs_rpc_requests_total{method}.
	requests  [opWalkNodes + 1]*metrics.Counter
	walkNodes *metrics.Histogram // bs_meta_walk_nodes: nodes per walk reply
	walkBound int                // a walk reply's bytes: maxWalkBody (tests lower it)
}

func newFramedServer(roles Roles) *framedServer {
	s := &framedServer{vm: roles.VM, r: roles.Data, nodes: roles.Meta, walkBound: maxWalkBody}
	if reg := roles.Metrics; reg != nil {
		s.frames = reg.Counter("bs_data_frames_total")
		s.bytes = reg.Counter("bs_data_stream_bytes_total")
		s.flushOps = reg.Histogram("bs_data_flush_ops", trainBuckets())
		s.requests[opPut] = reg.Counter("bs_data_requests_total", metrics.Label{Key: "op", Value: "put"})
		s.requests[opGet] = reg.Counter("bs_data_requests_total", metrics.Label{Key: "op", Value: "get"})
		s.requests[opNodePut] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "put"})
		s.requests[opNodeGet] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "get"})
		s.requests[opNodeTryGet] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "tryget"})
		s.requests[opWalkNodes] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "walk"})
		s.walkNodes = reg.Histogram("bs_meta_walk_nodes", metrics.ExponentialBuckets(1, 2, 14))
		for i, name := range strings.Fields("CreateBlob Geometry AssignTicket Complete Abort WaitPublished " +
			"LatestPublished Snapshot Versions Retain DropVersion Pin Unpin GCInfo MarkReclaimed") {
			s.requests[opCreateBlob+i] = rpcCounter(reg, "VM."+name) // as net/rpc named them
		}
	}
	return s
}

// trainBuckets are the bounds of the two requests-per-round-trip
// histograms: 1, 2, 4 … up to the longest train a client forms.
func trainBuckets() []float64 { return metrics.ExponentialBuckets(1, 2, 6) }

// serve handles one framed connection until EOF or a protocol error,
// answering requests in order and flushing only when no further request
// bytes are buffered (bs_data_flush_ops counts requests per flush); see
// the file header.
func (s *framedServer) serve(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 64<<10)
	body := &frameBodyReader{r: br, frames: s.frames, bytes: s.bytes}
	out := &frameWriter{conn: conn, frames: s.frames, bytes: s.bytes}
	var walkReply []byte // reused from walk to walk
	answered := 0        // requests served since the input last ran dry
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
		case opWalkNodes:
			err = s.serveWalk(body, bw, h, &walkReply)
		default:
			if h.op < opCreateBlob || h.op > opMarkReclaimed {
				return // protocol violation
			}
			err = s.serveVM(body, bw, h)
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
	// A payload error below is fatal — the frame word already promised
	// the bytes — so it propagates up and closes the connection.
	if wt, ok := chunk.InMemory(rc); ok && 4+min(h.length, maxFrame) >= int64(bw.Size()) {
		// Frames too large for the write buffer, from a reader that holds
		// its bytes in memory (a mem:// store's slice, a coded read's
		// fragments or slab): it writes itself to the socket through out,
		// one vectored write per slice, uncopied. A disk:// store's chunk
		// file keeps the loop below. The terminator waits in bw for the
		// serve loop's flush, so the counters are current before a client
		// can see the get done.
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
			// The frame fits the write buffer: copied in beside its word,
			// small replies share writes. Room is made first, or bufio
			// would hand the reader to the socket with a copy buffer.
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
			// the store reader to the socket: a disk store's rc is the
			// chunk file, which the kernel sendfiles (CHANGES.md, PR 15).
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

// frameWriter frames what is written to it as the body of a get reply of
// exactly left bytes: each Write is one vectored write of `u32 size +
// payload` per maxFrame slice, uncopied; a Write past left is refused
// before a byte is sent. A server connection has one, left set per body.
type frameWriter struct {
	conn   net.Conn
	left   int64 // bytes of the body still to come
	frames *metrics.Counter
	bytes  *metrics.Counter

	words     []byte      // reused from body to body, as are
	bufs, vec net.Buffers // the write vector (vec, which WriteTo consumes)
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

// serveNodePut stores the node the body encodes. As in servePut the body
// is consumed whatever becomes of the put, and what is wrong with it
// fails this op alone.
func (s *framedServer) serveNodePut(body *frameBodyReader, bw *bufio.Writer, h frameHeader) error {
	body.reset()
	var enc []byte
	err := errNoMetaRole
	if s.nodes != nil {
		enc, err = readBody(body, maxNodeBody)
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
	// (A node past maxNodeBody, which only an in-process writer can have
	// stored, is refused by the client, at the cost of the connection.)
	return s.writeOK(bw, segtree.AppendNode(nil, n))
}

// writeOK writes an ok reply whose body is enc.
func (s *framedServer) writeOK(bw *bufio.Writer, enc []byte) error {
	if werr := bw.WriteByte(statusOK); werr != nil {
		return werr
	}
	for len(enc) > 0 {
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

// serveVM answers a version-manager op; a request body is consumed as in
// serveNodePut.
func (s *framedServer) serveVM(body *frameBodyReader, bw *bufio.Writer, h frameHeader) error {
	var req []byte
	var err error
	if sendsBody(h.op) {
		body.reset()
		req, err = readBody(body, maxVMBody)
		if derr := body.drain(); derr != nil {
			return derr
		}
	}
	var out []byte
	switch {
	case s.vm == nil:
		err = errNoVMRole
	case err == nil:
		out, err = s.callVM(h, req)
	}
	if err != nil {
		return writeErrReply(bw, err)
	}
	return s.writeOK(bw, out)
}

// encoded turns a result encoder into the reply of a call that returns
// the result and an error.
func encoded[T any](enc func([]byte, T) []byte) func(T, error) ([]byte, error) {
	return func(v T, err error) ([]byte, error) { return enc(nil, v), err }
}

// callVM makes the call a version-manager op names, with its request
// body req, and returns the reply body.
func (s *framedServer) callVM(h frameHeader, req []byte) ([]byte, error) {
	m, blob, v := s.vm, h.key.Blob, h.key.Version
	switch h.op {
	case opCreateBlob:
		return nil, m.CreateBlob(blob, segtree.Geometry{Capacity: h.off, Page: h.length})
	case opGeometry:
		return encoded(vmanager.AppendGeometry)(m.Geometry(blob))
	case opAssignTicket:
		l, err := vmanager.DecodeExtents(req)
		if err != nil {
			return nil, err
		}
		return encoded(vmanager.AppendTicket)(m.AssignTicket(blob, l))
	case opComplete:
		root, err := vmanager.DecodeNodeKey(req)
		if err != nil {
			return nil, err
		}
		return nil, m.Complete(blob, v, root)
	case opAbort:
		return nil, m.Abort(blob, v)
	case opWaitPublished:
		return nil, m.WaitPublished(blob, v)
	case opLatestPublished:
		return encoded(vmanager.AppendSnapshotInfo)(m.LatestPublished(blob))
	case opSnapshot:
		return encoded(vmanager.AppendSnapshotInfo)(m.Snapshot(blob, v))
	case opVersions:
		return encoded(vmanager.AppendVersions)(m.Versions(blob))
	case opRetain:
		return encoded(vmanager.AppendVersions)(m.Retain(blob, int(h.off)))
	case opDropVersion:
		return nil, m.DropVersion(blob, v)
	case opPin:
		return nil, m.Pin(blob, v)
	case opUnpin:
		return nil, m.Unpin(blob, v)
	case opGCInfo:
		return encoded(vmanager.AppendGCInfo)(m.GCInfo(blob))
	default: // opMarkReclaimed
		return nil, m.MarkReclaimed(blob, v)
	}
}

// --- client side ---

// framedPoolCap bounds the connections, in use plus idle, a pool keeps
// to its endpoint. More connections buy parallelism at the server and
// cost shorter trains: tile_atomic's many-piece writes and reads are
// fastest on 2 or 4, checkpoint_restore's 1 MiB transfers flat from 2 to
// 16 (CHANGES.md, PR 17); 4 keeps four large transfers moving at once.
const framedPoolCap = 4

// A train is the run of calls one connection carries in one round trip:
// at most maxTrainCalls of them and, past the first, at most
// maxTrainBytes of payload (request bodies, or the bytes gets ask for),
// so a megabyte chunk travels alone and a train of small pieces never
// holds a connection longer than one large transfer would.
const (
	maxTrainCalls = 32
	maxTrainBytes = 1 << 20
)

// ErrClientClosed is returned by a call started after, queued at, or
// parked in a wait at Client.Close.
var ErrClientClosed = errors.New("remote: client closed")

// framedCall is one op on its way through the pool.
type framedCall struct {
	h frameHeader
	// put, node put: the body; get: the caller's destination, h.length
	// bytes to fill; node get: the encoded node, nil on a miss; VM op: the
	// request body, once answered the reply body.
	data []byte
	ids  []provider.ID // put: the replica set; get: the fresh set, if any
	err  error

	retried bool         // re-sent after a transport failure, or never to be
	of      *framedTrain // the train the call was handed to the pool in
}

// payload is what the call counts towards maxTrainBytes.
func (c *framedCall) payload() int64 {
	if c.h.op == opGet {
		return c.h.length
	}
	return int64(len(c.data))
}

// framedTrain is a run of calls of one kind within the train bounds, cut
// from a batch, and the unit the pool queues. Its owner blocks until
// every call has its outcome: leading the train itself, or woken by the
// leader of the train it was merged into.
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
// by one train at a time. scratch (headers, frame words, terminators)
// and bufs (the write vector) are reused from train to train.
type framedConn struct {
	c       net.Conn
	br      *bufio.Reader
	scratch []byte
	bufs    net.Buffers
}

// framedPool runs batches of framed calls — all of a caller's calls of
// one kind at once — over a bounded set of connections to one endpoint.
// It cuts a batch into trains within the train bounds, no fewer than the
// connections the batch could use (a write of two pieces moves on two
// sockets), each carried in one round trip. A train that finds a
// connection free, or room to dial one, leaves at once; otherwise it
// queues, and a connection that comes free takes the head of the queue
// plus the trains of the same kind behind it, up to the bounds — so
// concurrent lone callers share round trips too. Whoever brought the head
// train leads: no pool goroutine, no timer, and of one batch only the
// caller and at most framedPoolCap-1 helpers block. Steady state dials
// nothing.
type framedPool struct {
	addr     string
	max      int                // connections in use plus idle: framedPoolCap, or no bound
	dials    *metrics.Counter   // bs_data_dials_total, nil-tolerant
	trainOps *metrics.Histogram // bs_data_train_ops, nil-tolerant

	mu     sync.Mutex
	idle   []*framedConn
	open   int            // connections in use plus idle, never above max
	queue  []*framedTrain // non-empty only while idle is empty and open is at max
	closed bool
	busy   map[*framedConn]bool // a wait pool's connections in use, which close ends too
}

func newFramedPool(addr string) *framedPool {
	return &framedPool{addr: addr, max: framedPoolCap}
}

// newWaitPool is the pool of the calls that park at the server
// (WaitPublished): each on a connection of its own, idle or dialed for
// it, without bound; close ends the parked calls too.
func newWaitPool(addr string) *framedPool {
	return &framedPool{addr: addr, max: math.MaxInt, busy: make(map[*framedConn]bool)}
}

// putCall, getCall and nodeCall are the chunk and node calls.
func putCall(key chunk.Key, data []byte) framedCall {
	return framedCall{h: frameHeader{op: opPut, key: key, length: int64(len(data))}, data: data}
}

// getCall reads length bytes into dst, or — dst nil — into a buffer of
// its own once the reply is ok.
func getCall(dst []byte, length int64, replicas []provider.ID, key chunk.Key, off int64) framedCall {
	return framedCall{h: frameHeader{op: opGet, key: key, off: off, length: length, replicas: replicas}, data: dst}
}

func nodeCall(op byte, blob uint64, key segtree.NodeKey, body []byte) framedCall {
	return framedCall{
		h:    frameHeader{op: op, key: chunk.Key{Blob: blob, Version: key.Version}, off: key.Offset, length: key.Size},
		data: body,
	}
}

// vmCall is a version-manager call. One that changes the manager's state
// is never re-sent after a transport failure: the server may have applied
// it, and a second AssignTicket would leave a ticket nobody completes,
// stalling every later version's publication.
func vmCall(op byte, blob, v uint64, off, length int64, body []byte) framedCall {
	c := framedCall{h: frameHeader{op: op, key: chunk.Key{Blob: blob, Version: v}, off: off, length: length}, data: body}
	switch op {
	case opGeometry, opWaitPublished, opLatestPublished, opSnapshot, opVersions, opGCInfo:
	default:
		c.retried = true
	}
	return c
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
	case p.open < p.max:
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

// lead carries calls — the train me and whatever the queue merged behind
// it — over fc, or over a connection dialed into the caller's slot when
// fc is nil, wakes the owner of each other train as the last of its
// replies arrives, and hands the connection on.
//
// A server-reported error fails its call alone. A transport failure
// leaves answered calls answered; on a used connection it looks like a
// stale socket left by a peer restart, so the idle list is flushed and
// the unanswered calls are re-sent, once each, on a fresh dial in the
// same slot; on a fresh dial it fails the call it hit. Re-sent puts are
// safe, both stores being immutable: a put applied but unanswered yields
// chunk.ErrExists on a chunk's retry, nothing on a node's.
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
			fc, err = p.dial()
		}
		if err == nil && p.busy != nil { // a wait pool: close must find fc
			p.mu.Lock()
			if err = ErrClientClosed; !p.closed {
				p.busy[fc], err = true, nil
			}
			p.mu.Unlock()
		}
		if err != nil {
			for _, c := range calls {
				c.err = err
				settle(c)
			}
			break
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
		p.mu.Lock()
		delete(p.busy, fc)
		if p.closed {
			err = ErrClientClosed // a parked call that close ended, say
		}
		p.mu.Unlock()
		fc = nil
		if !dialed {
			p.flushIdle()
		}
		again := calls[:0]
		for i, c := range calls {
			if c.retried || (i == 0 && dialed) || err == ErrClientClosed {
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
	delete(p.busy, fc)
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
	fc, err := dialFramed(p.addr)
	if err == nil {
		p.dials.Inc()
	}
	return fc, err
}

// dialFramed opens a framed connection to addr.
func dialFramed(addr string) (*framedConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial framed %s: %w", addr, err)
	}
	if _, err := c.Write([]byte(framedMagic)); err != nil {
		c.Close()
		return nil, err
	}
	return &framedConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// flushIdle closes every idle connection, after a used one turned out
// dead: a peer restart killed them all. (The queue is empty whenever idle
// is not, so nobody waits for the freed slots.)
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

// close closes every idle connection and the pool: queued and later
// calls fail with ErrClientClosed, a train on the wire finishes — a wait
// pool's calls are ended — and its leader closes the connection.
func (p *framedPool) close() {
	p.mu.Lock()
	p.closed = true
	queue := p.queue
	p.queue = nil
	for fc := range p.busy {
		fc.c.Close() // a wait pool's parked calls end with them
	}
	p.mu.Unlock()
	p.flushIdle()
	for _, t := range queue {
		for _, c := range t.calls {
			c.err = ErrClientClosed
		}
		t.wake <- struct{}{}
	}
}

// send writes every request of train in one vectored write: headers,
// frame words and terminators from scratch, bodies from the callers' own
// slices, never copied.
func (fc *framedConn) send(train []*framedCall) error {
	buf, bufs, sent := fc.scratch[:0], fc.bufs[:0], 0
	for _, c := range train {
		buf = appendHeader(buf, &c.h)
		if !sendsBody(c.h.op) {
			continue
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
		c.err = wireError(msg)
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
		c.data, err = readBody(&frameBodyReader{r: fc.br}, maxNodeBody) // never nil: only a miss is
		return err
	}
	if c.h.op >= opCreateBlob {
		// Kept only whole: the request body stays for a re-send.
		limit := maxVMBody
		if c.h.op == opWalkNodes {
			limit = maxWalkBody
		}
		body, err := readBody(&frameBodyReader{r: fc.br}, limit)
		if err == nil {
			c.data = body
		}
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
	// Exactly the bytes asked for land in the destination, from byte 0 (a
	// re-sent get refills it): an overrunning frame is refused before it
	// is read, an early terminator fails the op. GetFrom's get gets its
	// destination only now, the reply being ok.
	if c.data == nil {
		c.data = make([]byte, c.h.length)
	}
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
