// Framed plane: the binary wire protocol that carries every call a
// Client makes — the version manager's calls, chunk payloads and
// segment-tree nodes — each body behind its length.
//
// A client opens each framed connection by sending the 4-byte magic
// "BSD4", the wire's version; the server peeks the first bytes of every
// accepted connection and routes magic-led ones to the framed loop,
// everything else — a peer of another wire version too — to the HTTP
// server of the operator calls (admin.go). A node answers an op whose
// role it does not host — VM, data or meta — with an in-band error,
// keeping the connection.
//
// Wire format (all integers little-endian, matching chunk.Ref):
//
//	request header (40 bytes):
//	  op u8, flags u8 (reserved), reserved u8 (must be 0), pad u8,
//	  index u32, blob u64, version u64, off i64, length i64
//	            A header whose must-be-0 byte is not 0 closes the
//	            connection (in a list get: refuses the list in-band).
//	ops:        1=put, 2=list get (chunks, data role); 3=node put, 4=node
//	            get, 5=node try-get (tree nodes, meta role: blob,
//	            version, off and length name the node); 6..20 (VM role)
//	            the blob.VersionService calls in its order: CreateBlob
//	            (off, length = capacity, page), Geometry, AssignTicket,
//	            Complete, Abort, WaitPublished, LatestPublished,
//	            Snapshot, Versions, Retain (off = keepLast), DropVersion,
//	            Pin, Unpin, GCInfo, MarkReclaimed; 21=walk (meta role: a
//	            resolve's tree walk, blob in the header); 22=build (meta
//	            role: a write's tree, blob in the header).
//	body:       a u32 length, then exactly that many bytes, at most the
//	            bound of its op (bodyLimit); a request body over it is
//	            refused in-band, its bytes skipped as they arrive.
//	err reply:  status u8 1, u32 len + message, to any op.
//	put:        header + the chunk payload: exactly the length the header
//	            declares, no length word. A length over the chunk bound is
//	            refused in-band, its bytes skipped; a negative one is
//	            refused and closes the connection, nothing saying where
//	            its payload ends. Reply: status u8; 0 ok → u8 count +
//	            count*u32 replica IDs.
//	list get:   header (op alone) + body: count u32 (1..maxTrainCalls),
//	            then per entry a get header — op 2, the chunk key, off,
//	            length — asking for at most maxTrainBytes in all (one
//	            entry may ask for more alone). Each entry is read from the
//	            providers the data node's placement map names. A
//	            malformed list is refused whole, in-band. Reply: ok →
//	            per entry a status, ok → nothing more, err → u32
//	            len + message; then the ok entries' bytes back to back,
//	            no length word, exactly the sum of their lengths. A store
//	            failure mid-payload closes the connection — the statuses
//	            already promised the bytes; open-time errors fail their
//	            entry alone.
//	node put:   header + body, the node in segtree's binary form, at most
//	            maxNodeBody bytes. Reply: ok.
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
//	build:      header + body: the geometry (capacity i64, page i64),
//	            the ticket in vmanager's form (version u64, count u32,
//	            count × (extent, version u64)), then the placed list
//	            (count u32, count × (offset i64, length i64, chunk.Ref)),
//	            at most maxBuildBody bytes. The server refuses a geometry
//	            that fails Validate, counts the body cannot hold and bytes
//	            after the list, then runs segtree.Tree.Build over its
//	            store, which refuses pieces out of order or across a page.
//	            Reply: ok → a body, the root key. A build stores up to
//	            pieces × (tree depth + 1) nodes; it is never re-sent after
//	            a transport failure (Client.BuildTree).
//	VM ops:     AssignTicket sends a body, the extent list, Complete one,
//	            the root key. Reply: ok → a body, the result (empty for
//	            calls that return none). Bodies are vmanager's binary
//	            forms (vmanager/wire.go), at most maxVMBody bytes.
//
// Requests pipeline on a connection: a client may write any number of
// whole requests back to back before it reads the first reply, and the
// server answers them in order, writing its replies out only when it
// holds no further request bytes or replyBufSize bytes are queued — so
// at most one reply, a train's, past that bound: the bytes it copied and
// the slices in-memory stores handed it uncopied, in one vectored write.
// That is safe because of one
// client-side rule: a request, once begun, is written to its end without
// waiting for any reply. The client here writes a whole train of
// requests of one kind before it reads the train's first reply — put
// bodies still being written while get replies stream back could fill
// both socket buffers and stop both ends. A pool forms trains from the
// batch a caller hands it (Client.PutMany, GetManyInto, PutNodes,
// GetNodes; a lone call is the batch of one), and from its queue when
// every connection is busy; see framedPool. A train of gets travels as
// one list get.
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
// framed plane, and names its version: a change to the wire format
// bumps it, so peers of different versions refuse each other at
// connect. No HTTP request starts with these bytes (a method name comes
// first), so the peek is unambiguous.
const framedMagic = "BSD4"

const (
	// Chunk ops (data role), node ops (meta role).
	opPut, opGet, opNodePut, opNodeGet, opNodeTryGet = 1, 2, 3, 4, 5
	// Version-manager ops (VM role), in blob.VersionService's order.
	opCreateBlob, opGeometry, opAssignTicket, opComplete, opAbort        = 6, 7, 8, 9, 10
	opWaitPublished, opLatestPublished, opSnapshot, opVersions, opRetain = 11, 12, 13, 14, 15
	opDropVersion, opPin, opUnpin, opGCInfo, opMarkReclaimed             = 16, 17, 18, 19, 20
	// A resolve's tree walk, a write's tree build (meta role).
	opWalkNodes, opBuildTree = 21, 22

	// Reply statuses; a miss answers a node try-get only.
	statusOK, statusErr, statusMiss = 0, 1, 2

	// bodyStep is how far a body's buffer grows ahead of the bytes that
	// arrived: a body up to this long is read into one buffer of its
	// length, a longer one a step at a time, so a length word that lies
	// costs at most one step.
	bodyStep = 256 << 10

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

	// maxBuildBody bounds a build's request body: room for the largest
	// ticket a version manager sends and a placed list as long.
	maxBuildBody = 2 * maxVMBody

	// maxGetBody bounds a list get's request body: a train of gets.
	maxGetBody = 4 + maxTrainCalls*frameHeaderLen

	// replyBufSize is how many bytes a server copies into its replies
	// before it writes them out, and how many it queues at most between
	// requests.
	replyBufSize = 64 << 10
)

// bodyLimit is the bound of the body a request of op carries, 0 for an
// op that sends none. (A put's payload is no body: its header declares
// its length.)
func bodyLimit(op byte) int {
	switch op {
	case opGet:
		return maxGetBody
	case opNodePut:
		return maxNodeBody
	case opAssignTicket, opComplete:
		return maxVMBody
	case opWalkNodes:
		return maxWalkBody
	case opBuildTree:
		return maxBuildBody
	}
	return 0
}

var (
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

// frameHeader is the fixed request header of one framed operation.
type frameHeader struct {
	op       byte
	key      chunk.Key // node ops: Blob and Version name the node, Index goes unused
	off      int64     // node ops: the node's offset
	length   int64     // put: total payload size; get entry: read length; node ops: the node's size
	reserved byte      // as received; sent as 0, and refused otherwise
}

// nodeKey is the node a node op names.
func (h *frameHeader) nodeKey() segtree.NodeKey {
	return segtree.NodeKey{Version: h.key.Version, Offset: h.off, Size: h.length}
}

// maxWireIDs is what the one-byte ID count of a put reply can carry.
const maxWireIDs = 255

// appendHeader appends h's wire form to buf.
func appendHeader(buf []byte, h *frameHeader) []byte {
	buf = append(buf, h.op, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, h.key.Index)
	buf = binary.LittleEndian.AppendUint64(buf, h.key.Blob)
	buf = binary.LittleEndian.AppendUint64(buf, h.key.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.off))
	return binary.LittleEndian.AppendUint64(buf, uint64(h.length))
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
	h := parseHeader(buf)
	r.Discard(frameHeaderLen)
	return h, nil
}

// parseHeader decodes a header, frameHeaderLen bytes of buf.
func parseHeader(buf []byte) frameHeader {
	return frameHeader{
		op:       buf[0],
		reserved: buf[2],
		key: chunk.Key{
			Index:   binary.LittleEndian.Uint32(buf[4:]),
			Blob:    binary.LittleEndian.Uint64(buf[8:]),
			Version: binary.LittleEndian.Uint64(buf[16:]),
		},
		off:    int64(binary.LittleEndian.Uint64(buf[24:])),
		length: int64(binary.LittleEndian.Uint64(buf[32:])),
	}
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

// appendErrReply appends the error form of a reply.
func appendErrReply(buf []byte, err error) []byte {
	msg := err.Error()
	buf = binary.LittleEndian.AppendUint32(append(buf, statusErr), uint32(len(msg)))
	return append(buf, msg...)
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

func appendIDs(buf []byte, ids []provider.ID) []byte {
	if len(ids) > maxWireIDs {
		ids = ids[:maxWireIDs]
	}
	buf = append(buf, byte(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// readIDs reads a put reply's replica set: a u8 count, then count u32
// IDs; none is a nil list.
func readIDs(r *bufio.Reader) ([]provider.ID, error) {
	c, err := r.ReadByte()
	if err != nil || c == 0 {
		return nil, err
	}
	n := int(c)
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

// readBody reads a body — a u32 length, then that many bytes — into
// buf[:0] and returns it, never nil. It grows the buffer as the bytes
// arrive, at most bodyStep ahead of them. A body over limit is refused
// (refused), its bytes skipped, and the stream stays aligned; err is a
// stream that failed, which costs the connection.
func readBody(r *bufio.Reader, buf []byte, limit int) (body []byte, refused, err error) {
	n, err := readU32(r)
	if err != nil {
		return nil, nil, err
	}
	if int64(n) > int64(limit) {
		if _, err := r.Discard(int(n)); err != nil {
			return nil, nil, err
		}
		return nil, fmt.Errorf("remote: body of %d bytes exceeds the limit of %d", n, limit), nil
	}
	if body = buf[:0]; body == nil {
		body = []byte{}
	}
	for len(body) < int(n) {
		step := min(int(n)-len(body), bodyStep)
		body = slices.Grow(body, step)[:len(body)+step]
		if _, err := io.ReadFull(r, body[len(body)-step:]); err != nil {
			return nil, nil, err
		}
	}
	return body, nil, nil
}

// framedServer serves the framed plane of one node against its roles,
// any of them nil when the node lacks it. Its series are nil-tolerant: a
// node without a metrics role serves uncounted.
type framedServer struct {
	vm       VMBackend
	r        *provider.Router
	nodes    *metadata.Store
	bytes    *metrics.Counter   // bs_data_stream_bytes_total: payload and body bytes, either way
	flushOps *metrics.Histogram // bs_data_flush_ops
	// Requests answered: bs_data_requests_total{op} (a list get counts
	// its entries), bs_meta_node_ops_total{op},
	// bs_rpc_requests_total{method}.
	requests  [opBuildTree + 1]*metrics.Counter
	walkNodes *metrics.Histogram // bs_meta_walk_nodes: nodes per walk reply
	walkBound int                // a walk reply's bytes: maxWalkBody (tests lower it)
}

func newFramedServer(roles Roles) *framedServer {
	s := &framedServer{vm: roles.VM, r: roles.Data, nodes: roles.Meta, walkBound: maxWalkBody}
	if reg := roles.Metrics; reg != nil {
		s.bytes = reg.Counter("bs_data_stream_bytes_total")
		s.flushOps = reg.Histogram("bs_data_flush_ops", trainBuckets())
		s.requests[opPut] = reg.Counter("bs_data_requests_total", metrics.Label{Key: "op", Value: "put"})
		s.requests[opGet] = reg.Counter("bs_data_requests_total", metrics.Label{Key: "op", Value: "get"})
		s.requests[opNodePut] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "put"})
		s.requests[opNodeGet] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "get"})
		s.requests[opNodeTryGet] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "tryget"})
		s.requests[opWalkNodes] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "walk"})
		s.requests[opBuildTree] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: "build"})
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
// answering requests in order and writing the replies out when no
// further request bytes are buffered (bs_data_flush_ops counts requests
// per such flush) or replyBufSize bytes are queued; see the file header.
func (s *framedServer) serve(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	w := &replyWriter{conn: conn}
	defer w.release()               // closes the readers of replies that never left
	put := &io.LimitedReader{R: br} // a put's payload, straight off the connection
	gets := &getScratch{}           // reused from list get to list get
	var scratch, walkReply []byte   // reused from body to body, from walk to walk
	answered := 0                   // requests served since the input last ran dry
	for {
		h, err := readHeader(br)
		if err != nil || h.reserved != 0 {
			return // EOF, dead peer or protocol violation
		}
		// A body is read whole before its op is served; one over its
		// op's bound fails the op alone.
		var body []byte
		var refused error
		if limit := bodyLimit(h.op); limit > 0 {
			if body, refused, err = readBody(br, scratch, limit); err != nil {
				return
			}
			if cap(body) <= bodyStep {
				scratch = body // nothing served keeps a body
			}
			if h.op != opGet { // a list names chunk bytes, it carries none
				s.bytes.Add(int64(len(body)))
			}
		}
		n := 1 // requests answered: a list get's entries
		switch {
		case refused != nil:
			writeErrReply(w, refused)
		case h.op == opPut:
			err = s.servePut(br, put, w, h)
		case h.op == opGet:
			n, err = s.serveGets(w, gets, body)
		case h.op == opNodePut:
			s.serveNodePut(w, h, body)
		case h.op == opNodeGet || h.op == opNodeTryGet:
			err = s.serveNodeGet(w, h)
		case h.op == opWalkNodes:
			err = s.serveWalk(w, h, body, &walkReply)
		case h.op == opBuildTree:
			err = s.serveBuild(w, h, body)
		case h.op < opCreateBlob || h.op > opMarkReclaimed:
			return // protocol violation
		default:
			err = s.serveVM(w, h, body)
		}
		if err != nil {
			return
		}
		s.requests[h.op].Add(int64(n))
		answered += n
		if br.Buffered() == 0 {
			// Counted before the flush: once the replies are on the
			// wire a client may already be reading the registry.
			s.flushOps.Observe(float64(answered))
			answered = 0
		} else if w.queued() < replyBufSize {
			continue
		}
		if err := w.flush(); err != nil {
			return
		}
	}
}

// replyWriter queues a connection's replies until the serve loop writes
// them out, in one vectored write: the bytes copied into buf, and the
// slices in-memory store readers hand over (chunk.Held), uncopied. Each
// reader is closed once the write that carried its slices returns.
type replyWriter struct {
	conn net.Conn
	buf  []byte // copied bytes, those from cut on not yet in vec
	cut  int
	vec  net.Buffers // what is queued before buf[cut:]
	n    int         // vec's bytes
	held []io.Closer // the readers whose slices are in vec
}

// queued is how many bytes wait for the next flush.
func (w *replyWriter) queued() int { return w.n + len(w.buf) - w.cut }

// write copies p into the reply. Past replyBufSize what is queued is
// written out first, and a p that large goes to the socket at once.
func (w *replyWriter) write(p []byte) (err error) {
	if w.queued()+len(p) > replyBufSize {
		if err = w.flush(); err == nil && len(p) >= replyBufSize {
			_, err = w.conn.Write(p)
			return err
		}
	}
	w.buf = append(w.buf, p...)
	return err
}

// send queues the length bytes of a chunk read rc serves, and takes rc
// over. A reader holding them in memory hands its slices over, to leave
// with the next flush and be closed after it. Any other — a disk://
// chunk file, which the kernel sendfiles — is copied to the socket
// behind what is queued, then closed. A reader that serves other than
// length bytes costs the connection: the statuses promised them.
func (w *replyWriter) send(rc io.ReadCloser, key chunk.Key, length int64) error {
	var n int64
	if h, ok := chunk.InMemory(rc); ok {
		// buf's bytes so far go first; later appends never touch them,
		// even where buf moves.
		w.vec, w.n, w.cut = append(w.vec, w.buf[w.cut:]), w.queued(), len(w.buf)
		from := len(w.vec)
		w.vec, w.held = h.AppendHeld(w.vec), append(w.held, rc)
		for _, p := range w.vec[from:] {
			n += int64(len(p))
		}
		w.n += int(n)
	} else {
		defer rc.Close()
		err := w.flush()
		if err == nil {
			n, err = io.CopyN(w.conn, rc, length)
		}
		if err != nil && err != io.EOF {
			return err
		}
	}
	if n != length {
		return fmt.Errorf("remote: store reader for chunk %v served %d of %d bytes", key, n, length)
	}
	return nil
}

// flush writes out what is queued — copied bytes alone in a plain write
// — then closes the readers whose slices it carried.
func (w *replyWriter) flush() (err error) {
	if len(w.vec) == 0 {
		if len(w.buf) > 0 {
			_, err = w.conn.Write(w.buf)
		}
	} else {
		vec := append(w.vec, w.buf[w.cut:])
		w.vec = vec[:0] // WriteTo consumes its copy, clearing what it wrote
		_, err = vec.WriteTo(w.conn)
	}
	w.release()
	return err
}

// release drops what is queued and closes the readers that handed it
// over.
func (w *replyWriter) release() {
	for _, c := range w.held {
		c.Close()
	}
	clear(w.held)
	w.buf, w.cut, w.n, w.held = w.buf[:0], 0, 0, w.held[:0]
}

// writeErrReply queues the error form of a reply.
func writeErrReply(w *replyWriter, err error) error {
	w.buf = appendErrReply(w.buf, err)
	return nil
}

// servePut hands the store the put's payload off br through put,
// limited to the length its header declares, then skips what the store
// left unread: all of a payload it refused, say. A negative length is
// answered, then costs the connection: nothing says where its payload
// ends.
func (s *framedServer) servePut(br *bufio.Reader, put *io.LimitedReader, w *replyWriter, h frameHeader) error {
	var ids []provider.ID
	err, unread := errNoDataRole, h.length
	if s.r != nil {
		if max := s.r.MaxChunkSize(); h.length < 0 || h.length > max {
			// The declared size comes straight off the wire; reject it here
			// before the router can act on it (PutStream checks again, but
			// the server must not trust the router to be its input filter).
			err = &provider.ChunkTooLargeError{Size: h.length, Max: max}
		} else {
			put.N = h.length
			ids, err = s.r.PutStream(h.key, h.length, put)
			s.bytes.Add(h.length - put.N)
			unread = put.N
		}
	}
	if unread < 0 {
		writeErrReply(w, err)
		w.flush()
		return err
	}
	if _, derr := br.Discard(int(unread)); derr != nil {
		return derr
	}
	if err != nil {
		return writeErrReply(w, err)
	}
	w.buf = appendIDs(append(w.buf, statusOK), ids)
	return nil
}

// getScratch is what a connection reuses from list get to list get.
type getScratch struct {
	entries []frameHeader
	readers []io.ReadCloser
}

// serveGets answers a list get: every entry opened, each answered with
// its status, then the ok entries' bytes in order (replyWriter.send).
// What is wrong with the list, req, fails it alone. It returns the
// requests answered: the entries, or the one list it refused.
func (s *framedServer) serveGets(w *replyWriter, g *getScratch, req []byte) (int, error) {
	err := errNoDataRole
	if s.r != nil {
		g.entries, err = decodeGets(req, g.entries[:0])
	}
	if err != nil {
		return 1, writeErrReply(w, err)
	}
	w.buf = append(w.buf, statusOK)
	readers := g.readers[:0]
	for _, h := range g.entries {
		rc, err := s.r.Open(h.key, h.off, h.length)
		if err != nil {
			w.buf, rc = appendErrReply(w.buf, err), nil
		} else {
			w.buf = append(w.buf, statusOK)
		}
		readers = append(readers, rc)
	}
	defer func() {
		for _, rc := range readers {
			if rc != nil {
				rc.Close() // never sent: an earlier entry failed
			}
		}
		clear(readers)
		g.readers = readers[:0]
	}()
	for i, h := range g.entries {
		if rc := readers[i]; rc != nil {
			readers[i] = nil // send takes it over
			if err := w.send(rc, h.key, h.length); err != nil {
				return 0, err
			}
			s.bytes.Add(h.length)
		}
	}
	return len(g.entries), nil
}

// decodeGets decodes a list get's body into entries, refusing what no
// client sends: no entries, more than maxTrainCalls, or more than the
// body holds; an entry of another op, with a negative offset or length,
// a non-zero reserved byte, or a range past the largest int64; entries
// asking for more than maxTrainBytes together (an entry alone may ask
// for more).
func decodeGets(b []byte, entries []frameHeader) ([]frameHeader, error) {
	if len(b) < 4 {
		return entries, errors.New("remote: list get truncated")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 1 || n > maxTrainCalls {
		return entries, fmt.Errorf("remote: list get of %d entries, want 1 to %d", n, maxTrainCalls)
	}
	var total int64
	for i := range n {
		if len(b) < frameHeaderLen {
			return entries, fmt.Errorf("remote: list get entry %d of %d runs past the body", i, n)
		}
		h := parseHeader(b)
		b = b[frameHeaderLen:]
		switch {
		case h.op != opGet:
			return entries, fmt.Errorf("remote: list get entry %d is op %d", i, h.op)
		case h.reserved != 0:
			return entries, fmt.Errorf("remote: list get entry %d has reserved byte %d, want 0", i, h.reserved)
		case h.off < 0 || h.length < 0 || h.length > math.MaxInt64-h.off:
			return entries, fmt.Errorf("remote: list get entry %d asks for %d bytes at %d", i, h.length, h.off)
		case n > 1 && h.length > maxTrainBytes-total:
			return entries, fmt.Errorf("remote: list get of %d entries asks for more than %d bytes", n, maxTrainBytes)
		}
		total += h.length
		entries = append(entries, h)
	}
	if len(b) != 0 {
		return entries, fmt.Errorf("remote: %d bytes after a list get", len(b))
	}
	return entries, nil
}

// serveNodePut stores the node enc encodes; what is wrong with it fails
// this op alone.
func (s *framedServer) serveNodePut(w *replyWriter, h frameHeader, enc []byte) {
	err := errNoMetaRole
	if s.nodes != nil {
		var n *segtree.Node
		if n, err = segtree.DecodeNode(enc); err == nil {
			err = s.nodes.PutNode(h.key.Blob, h.nodeKey(), n)
		}
	}
	if err != nil {
		writeErrReply(w, err)
		return
	}
	w.buf = append(w.buf, statusOK)
}

// serveNodeGet answers a node get or try-get.
func (s *framedServer) serveNodeGet(w *replyWriter, h frameHeader) error {
	if s.nodes == nil {
		return writeErrReply(w, errNoMetaRole)
	}
	n, found, err := s.nodes.TryGetNode(h.key.Blob, h.nodeKey())
	if !found && err == nil && h.op == opNodeGet {
		_, err = s.nodes.GetNode(h.key.Blob, h.nodeKey()) // the store's own error for a miss
	}
	if err != nil {
		return writeErrReply(w, err)
	}
	if !found {
		w.buf = append(w.buf, statusMiss)
		return nil
	}
	// (A node past maxNodeBody, which only an in-process writer can have
	// stored, is refused by the client, at the cost of the connection.)
	return s.writeOK(w, segtree.AppendNode(nil, n))
}

// writeOK writes an ok reply whose body is enc.
func (s *framedServer) writeOK(w *replyWriter, enc []byte) error {
	w.buf = binary.LittleEndian.AppendUint32(append(w.buf, statusOK), uint32(len(enc)))
	s.bytes.Add(int64(len(enc)))
	return w.write(enc)
}

// serveVM answers a version-manager op whose request body is req.
func (s *framedServer) serveVM(w *replyWriter, h frameHeader, req []byte) error {
	if s.vm == nil {
		return writeErrReply(w, errNoVMRole)
	}
	out, err := s.callVM(h, req)
	if err != nil {
		return writeErrReply(w, err)
	}
	return s.writeOK(w, out)
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
		if len(req) != segtree.NodeKeyLen {
			return nil, fmt.Errorf("remote: complete body of %d bytes, want %d", len(req), segtree.NodeKeyLen)
		}
		return nil, m.Complete(blob, v, segtree.DecodeKey(req))
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
// to its endpoint, and so the trains a batch is cut into by its payload
// (cutTrains). More connections buy parallelism at the server and cost
// shorter trains: tile_atomic's many-piece writes and reads are fastest
// on 2 or 4, checkpoint_restore's 1 MiB transfers flat from 2 to 16
// (CHANGES.md); 4 keeps four large transfers moving at once.
const framedPoolCap = 4

// minTrainBytes is the payload one train of a batch carries at most
// before the batch is cut into one more, from two up to framedPoolCap: a
// list of small calls travels in as few round trips as its bytes need,
// not in one per connection, since a round trip's fixed cost dominates a
// small list. Swept on subarray_reread_beside_writer (a 16 x 16 KiB read
// beside an open-loop writer, 2-vCPU loopback host): at 64 KiB that read
// is 4 trains, one per connection, and gains nothing; at 128 KiB it is 2,
// read_mibps +12 % with the writer on time.
//
// A batch of two calls or more is never one train, whatever its bytes:
// its caller would run it alone, with no helper goroutine, and the
// writer beside reads so cut starved — 16, 15 or 8 x 16 KiB reads as one
// train gained up to 40 % read_mibps, but a fifth to a third of the
// writes started over 5 ms late, the latest 104 ms. The likely cause: no
// new goroutine wakes the idle P that holds the writer's timer.
const minTrainBytes = 128 << 10

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
	// get: the buffer data is cut from, at offset at; nil for a
	// destination allocated once the reply is ok. Gets that fill
	// consecutive bytes of one buffer are read off the socket as one.
	into []byte
	at   int
	ids  []provider.ID // put: the replica set
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
// by one train at a time. scratch (headers and length words) and bufs
// (the write vector) are reused from train to train.
type framedConn struct {
	c       net.Conn
	br      *bufio.Reader
	scratch []byte
	bufs    net.Buffers
}

// framedPool runs batches of framed calls — all of a caller's calls of
// one kind at once — over a bounded set of connections to one endpoint.
// It cuts a batch into trains by its payload, one per minTrainBytes or
// part of it, two at least (the two pieces of a small write still move
// on two sockets) and one per connection at most, and more where the
// train bounds say so, each carried in one round trip. A train that
// finds a connection free, or room to dial one, leaves at once;
// otherwise it queues, and a connection that comes free takes the head
// of the queue plus the trains of the same kind behind it, up to the
// bounds — so concurrent lone callers share round trips too. Whoever
// brought the head train leads: no pool goroutine, no timer, and of one
// batch only the caller and at most framedPoolCap-1 helpers block.
// Steady state dials nothing.
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

// getCall reads length bytes into into[at:], or — into nil — into a
// buffer of its own once the reply is ok.
func getCall(into []byte, at int, length int64, key chunk.Key, off int64) framedCall {
	c := framedCall{h: frameHeader{op: opGet, key: key, off: off, length: length}, into: into, at: at}
	if into != nil {
		c.data = into[at : at+int(length) : at+int(length)]
	}
	return c
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

// cutTrains cuts a batch into trains of equal length, one per
// minTrainBytes of its payload or part of it, at least two (a lone call
// is one) and at most framedPoolCap, shorter where the train bounds say
// so.
func cutTrains(batch []framedCall) []*framedTrain {
	calls := make([]*framedCall, len(batch))
	var total int64
	for i := range batch {
		calls[i] = &batch[i]
		total += batch[i].payload()
	}
	cut := int(min(max((total+minTrainBytes-1)/minTrainBytes, 2), framedPoolCap))
	per := min((len(batch)+cut-1)/cut, maxTrainCalls)
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
			n := 1
			if calls[0].h.op == opGet {
				n, err = len(calls), fc.readGets(calls)
				if extra := fc.br.Buffered(); err == nil && extra > 0 {
					// Nothing follows a list get's reply: these bytes are
					// more than the train asked for.
					err = fmt.Errorf("remote: reply for chunk %v exceeds the bytes requested by at least %d", calls[n-1].h.key, extra)
				}
			} else {
				err = fc.readReply(calls[0])
			}
			if err == nil {
				for _, c := range calls[:n] {
					settle(c)
				}
				calls = calls[n:]
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

// send writes every request of train in one vectored write: headers
// and length words from scratch, payloads and bodies from the callers'
// own slices, never copied. A train of gets is one list get.
func (fc *framedConn) send(train []*framedCall) error {
	buf, bufs, sent := fc.scratch[:0], fc.bufs[:0], 0
	if train[0].h.op == opGet {
		buf = appendGets(buf, train)
		train = nil
	}
	for _, c := range train {
		buf = appendHeader(buf, &c.h)
		if bodyLimit(c.h.op) > 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.data)))
		}
		// A call without a body has no data before its reply. No empty
		// entry: on some conns one is a write of its own.
		if len(c.data) > 0 {
			bufs = append(bufs, buf[sent:], c.data)
			sent = len(buf)
		}
	}
	if sent < len(buf) {
		bufs = append(bufs, buf[sent:])
	}
	// Keep what the appends grew; WriteTo clears the entries it wrote.
	fc.scratch, fc.bufs = buf[:0], bufs[:0]
	_, err := bufs.WriteTo(fc.c)
	return err
}

// appendGets appends a list get of the calls: the header, then a body
// of the count and each call's get header.
func appendGets(buf []byte, calls []*framedCall) []byte {
	buf = appendHeader(buf, &frameHeader{op: opGet})
	word := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // the body's length, set below
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(calls)))
	for _, c := range calls {
		buf = appendHeader(buf, &c.h)
	}
	binary.LittleEndian.PutUint32(buf[word:], uint32(len(buf)-word-4))
	return buf
}

// readGets reads the reply to a list get of calls into them: each call's
// status, then the ok calls' bytes, exactly their lengths, into their
// destinations from byte 0 (a re-sent get refills them). Get's
// destination is allocated only now, its entry being ok. Calls
// that fill consecutive bytes of one buffer are read as one run. Errors
// are as for readReply.
func (fc *framedConn) readGets(calls []*framedCall) error {
	listErr, err := readStatus(fc.br)
	if err != nil {
		return err
	}
	for _, c := range calls {
		c.err = listErr
		if listErr == nil {
			if c.err, err = readStatus(fc.br); err != nil {
				return err
			}
		}
	}
	for i := 0; i < len(calls); i++ {
		c := calls[i]
		if c.err != nil {
			continue
		}
		if c.data == nil {
			c.data = make([]byte, c.h.length)
		}
		run := c.data
		for i+1 < len(calls) && calls[i+1].err == nil && sameBuffer(calls[i+1].into, c.into) && calls[i+1].at == c.at+len(run) {
			i++
			run = c.into[c.at : c.at+len(run)+len(calls[i].data)]
		}
		if err := fc.readPayload(run); err != nil {
			return fmt.Errorf("remote: short reply for chunk %v: %w", c.h.key, err)
		}
	}
	return nil
}

// readStatus reads a reply's status: ok, or the error the server
// reported (reported), or none the stream can be trusted for (err).
func readStatus(r *bufio.Reader) (reported, err error) {
	switch status, err := r.ReadByte(); {
	case err != nil:
		return nil, err
	case status == statusOK:
		return nil, nil
	case status != statusErr:
		return nil, fmt.Errorf("remote: reply status %d", status)
	}
	msg, err := readErrString(r)
	return wireError(msg), err
}

// sameBuffer reports whether a and b are one buffer: the same bytes from
// the same first one.
func sameBuffer(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// readPayload fills p with what the reader holds buffered, then the rest
// straight off the socket.
func (fc *framedConn) readPayload(p []byte) error {
	if n := min(fc.br.Buffered(), len(p)); n > 0 {
		fc.br.Read(p[:n])
		p = p[n:]
	}
	_, err := io.ReadFull(fc.c, p)
	return err
}

// readReply reads the reply to c, a call other than a get, into it. A
// non-nil return means the stream failed or can no longer be trusted, and
// costs the connection; an error the server reported is c's outcome and
// returns nil.
func (fc *framedConn) readReply(c *framedCall) error {
	if b, err := fc.br.Peek(1); err == nil && b[0] == statusMiss && c.h.op == opNodeTryGet {
		fc.br.Discard(1)
		return nil
	}
	var err error
	if c.err, err = readStatus(fc.br); c.err != nil || err != nil {
		return err
	}
	limit := maxVMBody
	switch c.h.op {
	case opPut:
		c.ids, err = readIDs(fc.br)
		return err
	case opNodePut:
		return nil
	case opNodeGet, opNodeTryGet:
		limit = maxNodeBody
	case opWalkNodes:
		limit = maxWalkBody
	case opBuildTree:
		limit = segtree.NodeKeyLen
	}
	// Kept only whole: a request body stays for a re-send. A node is
	// never nil: only a miss is.
	body, refused, err := readBody(fc.br, nil, limit)
	if err == nil {
		err = refused
	}
	if err == nil {
		c.data = body
	}
	return err
}
