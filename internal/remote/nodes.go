// Combined node calls: the metadata service has one RPC, Meta.Nodes,
// carrying a list of put/get/tryget ops and returning one result per
// op. A write that stores a hundred tree nodes from a window of
// goroutines therefore costs a handful of gob round trips instead of a
// hundred, while a lone caller still pays exactly one.
//
// Failures are per-op (encoded as strings, since net/rpc's gob stream
// cannot carry error values), so one node's ErrExists never fails its
// batch peers; the RPC itself fails only on a transport problem or a
// request the server refuses whole.
package remote

import (
	"errors"
	"fmt"
	"net/rpc"
	"sync"

	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

// Node op kinds. Zero is not a kind, so an all-zero op off the wire
// fails as unknown instead of reading as a put.
const (
	nodePut = iota + 1
	nodeGet
	nodeTryGet
)

// nodeOpNames are the op label values of bs_meta_node_ops_total.
var nodeOpNames = [...]string{nodePut: "put", nodeGet: "get", nodeTryGet: "tryget"}

const nodeOpKinds = len(nodeOpNames)

// maxNodeBatch bounds the ops of one Meta.Nodes request: the client
// never sends more and the server refuses more. It is segtree's window
// of in-flight node requests per write, so one write's backlog fits one
// request.
const maxNodeBatch = 64

// NodeOp is one metadata node operation.
type NodeOp struct {
	Kind uint8
	Blob uint64
	Key  segtree.NodeKey
	Node *segtree.Node // puts only
}

// NodeResult is one op's outcome.
type NodeResult struct {
	Node  *segtree.Node // gets
	Found bool          // gets: the node exists
	Err   string        // empty on success
}

// NodesArgs carries the ops of one combined request.
type NodesArgs struct {
	Ops []NodeOp
}

// NodesReply carries the per-op outcomes, in request order.
type NodesReply struct {
	Results []NodeResult
}

// BatchTooLargeError refuses a Meta.Nodes request with more ops than
// the protocol's fixed bound.
type BatchTooLargeError struct {
	Ops, Max int
}

func (e *BatchTooLargeError) Error() string {
	return fmt.Sprintf("remote: node batch of %d ops exceeds the limit of %d", e.Ops, e.Max)
}

func newMetaServer(s *metadata.Store, reg *metrics.Registry) *MetaServer {
	m := &MetaServer{S: s}
	if reg != nil {
		for kind := nodePut; kind < nodeOpKinds; kind++ {
			m.nodeOps[kind] = reg.Counter("bs_meta_node_ops_total", metrics.Label{Key: "op", Value: nodeOpNames[kind]})
		}
		m.batchOps = reg.Histogram("bs_meta_batch_ops", metrics.ExponentialBuckets(1, 2, 7))
	}
	return m
}

// Nodes RPC: applies the ops in order against the store. The request
// size and every op come straight off the wire: an oversize request is
// refused whole before anything is applied, an op of unknown kind or a
// put without a node fails alone.
func (s *MetaServer) Nodes(a *NodesArgs, reply *NodesReply) error {
	if len(a.Ops) > maxNodeBatch {
		return &BatchTooLargeError{Ops: len(a.Ops), Max: maxNodeBatch}
	}
	s.batchOps.Observe(float64(len(a.Ops)))
	reply.Results = make([]NodeResult, len(a.Ops))
	for i := range a.Ops {
		op, res := &a.Ops[i], &reply.Results[i]
		var err error
		switch op.Kind {
		case nodePut:
			if op.Node == nil {
				err = errors.New("remote: node put without a node")
			} else {
				err = s.S.PutNode(op.Blob, op.Key, op.Node)
			}
		case nodeGet:
			res.Node, err = s.S.GetNode(op.Blob, op.Key)
			res.Found = err == nil
		case nodeTryGet:
			res.Node, res.Found, err = s.S.TryGetNode(op.Blob, op.Key)
		default:
			err = fmt.Errorf("remote: unknown node op kind %d", op.Kind)
		}
		if int(op.Kind) < nodeOpKinds {
			s.nodeOps[op.Kind].Inc()
		}
		if err != nil {
			res.Err = err.Error()
		}
	}
	return nil
}

// nodeCall is one caller's op on its way through the combiner.
type nodeCall struct {
	op  NodeOp
	res NodeResult
	err error // the whole request failed: transport, or refused by the server

	// wake is signalled exactly once to a queued caller: with batch set
	// it now leads that request, otherwise res/err are final.
	wake  chan struct{}
	batch []*nodeCall
}

// nodeCombiner turns concurrent node calls on one metadata connection
// into Meta.Nodes requests, at most one in flight. A caller that finds
// the connection idle sends its own op inline; callers that arrive
// while a request is in flight queue up and form the next request,
// which the first of them sends. Whoever sent a request hands the lead
// to the head of the queue when its reply is in, so no caller keeps
// serving others after its own op is done. There is no timer: a
// request carries whatever queued during one round trip, up to
// maxNodeBatch.
type nodeCombiner struct {
	rpc *rpc.Client

	mu    sync.Mutex
	busy  bool // a request is in flight or being handed on
	queue []*nodeCall
}

// do runs one op and returns its result; a per-op failure comes back as
// the rpc.ServerError a single-op RPC would have produced.
func (nc *nodeCombiner) do(op NodeOp) (NodeResult, error) {
	call := &nodeCall{op: op}
	nc.mu.Lock()
	if !nc.busy {
		nc.busy = true
		nc.mu.Unlock()
		nc.send([]*nodeCall{call})
		nc.handOff()
	} else {
		call.wake = make(chan struct{}, 1)
		nc.queue = append(nc.queue, call)
		nc.mu.Unlock()
		<-call.wake
		if call.batch != nil {
			nc.send(call.batch)
			nc.handOff()
		}
	}
	if call.err == nil && call.res.Err != "" {
		call.err = rpc.ServerError(call.res.Err)
	}
	return call.res, call.err
}

// send performs one Meta.Nodes round trip for batch, whose first call
// is the sender's own, and wakes the others with their results. A
// failed request fails every op in it with the same error.
func (nc *nodeCombiner) send(batch []*nodeCall) {
	args := NodesArgs{Ops: make([]NodeOp, len(batch))}
	for i, c := range batch {
		args.Ops[i] = c.op
	}
	var reply NodesReply
	err := nc.rpc.Call(metaService+".Nodes", &args, &reply)
	if err == nil && len(reply.Results) != len(batch) {
		err = errors.New("remote: node batch reply length mismatch")
	}
	for i, c := range batch {
		if err != nil {
			c.err = err
		} else {
			c.res = reply.Results[i]
		}
		if i > 0 {
			c.wake <- struct{}{}
		}
	}
}

// handOff ends the caller's turn as sender: the head of the queue leads
// the next request, or the combiner goes idle.
func (nc *nodeCombiner) handOff() {
	nc.mu.Lock()
	batch := nc.queue
	nc.queue = nil
	if len(batch) > maxNodeBatch {
		batch, nc.queue = batch[:maxNodeBatch:maxNodeBatch], batch[maxNodeBatch:]
	}
	nc.busy = len(batch) > 0
	nc.mu.Unlock()
	if len(batch) > 0 {
		batch[0].batch = batch
		batch[0].wake <- struct{}{}
	}
}

// PutNode implements segtree.NodeStore.
func (c *Client) PutNode(blobID uint64, key segtree.NodeKey, n *segtree.Node) error {
	_, err := c.nodes.do(NodeOp{Kind: nodePut, Blob: blobID, Key: key, Node: n})
	return err
}

// GetNode implements segtree.NodeStore.
func (c *Client) GetNode(blobID uint64, key segtree.NodeKey) (*segtree.Node, error) {
	res, err := c.nodes.do(NodeOp{Kind: nodeGet, Blob: blobID, Key: key})
	return res.Node, err
}

// TryGetNode implements segtree.NodeStore.
func (c *Client) TryGetNode(blobID uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	res, err := c.nodes.do(NodeOp{Kind: nodeTryGet, Blob: blobID, Key: key})
	return res.Node, res.Found, err
}
