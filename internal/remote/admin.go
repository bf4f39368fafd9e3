// Operator surface: every administrative call is an HTTP route on the
// node's one port, answered in JSON (the metrics in Prometheus text) —
// curl :4000/health, curl -X POST ':4000/scrub?sync=true'. A route whose
// role the node lacks answers 404 with the reason, a failed call 500
// with its error. Each route counts into bs_rpc_requests_total{method}
// under the name it had as an RPC.
package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/provider"
)

// CodingReply is GET /coding: the node's chunk placement mode, erasure
// coding (K data + M parity fragments) when Coded, R-way replication
// otherwise.
type CodingReply struct {
	Coded    bool
	K, M     int
	Replicas int
	Quorum   int
}

// ReadTierReply is GET /read-tier: the reader domain with its locality
// counters and, when the read cache is enabled, the cache's.
type ReadTierReply struct {
	LocalDomain  string
	Locality     provider.ReadLocalityStats
	CacheEnabled bool
	Cache        provider.ReadCacheStats
}

var (
	errNoHeal    = errors.New("remote: self-heal not enabled on this node (blobseerd -self-heal)")
	errNoGC      = errors.New("remote: GC not enabled on this node (blobseerd -gc)")
	errNoMetrics = errors.New("remote: no metrics registry on this node")
)

// rpcCounter is the bs_rpc_requests_total series of one call.
func rpcCounter(reg *metrics.Registry, method string) *metrics.Counter {
	return reg.Counter("bs_rpc_requests_total", metrics.Label{Key: "method", Value: method})
}

// newAdminMux routes the operator calls to the roles that answer them.
func newAdminMux(roles Roles) *http.ServeMux {
	r := roles.Data
	flag := func(q *http.Request, name string, unset bool) (bool, error) {
		if s := q.URL.Query().Get(name); s != "" {
			return strconv.ParseBool(s)
		}
		return unset, nil
	}
	routes := []struct {
		pattern, method string
		hosted          bool  // the node hosts the role the call needs
		lacks           error // why it cannot answer otherwise
		serve           func(*http.Request) (any, error)
	}{
		{"GET /metrics", "Node.Metrics", roles.Metrics != nil, errNoMetrics, func(*http.Request) (any, error) {
			var buf strings.Builder
			err := roles.Metrics.WritePrometheus(&buf)
			return buf.String(), err
		}},
		{"GET /shards", "VM.ShardStatus", roles.VM != nil, errNoVMRole, func(*http.Request) (any, error) { return roles.VM.ShardStatuses(), nil }},
		{"GET /health", "Data.Health", roles.Health != nil, errNoHeal, func(*http.Request) (any, error) { return roles.Health.Snapshot(), nil }},
		{"GET /coding", "Data.Coding", r != nil, errNoDataRole, func(*http.Request) (any, error) {
			k, m, coded := r.Coding()
			return CodingReply{Coded: coded, K: k, M: m, Replicas: r.Replicas(), Quorum: r.WriteQuorum()}, nil
		}},
		{"GET /usage", "Data.Usage", r != nil, errNoDataRole, func(*http.Request) (any, error) { return r.Usage(), nil }},
		{"GET /read-tier", "Data.ReadTier", r != nil, errNoDataRole, func(*http.Request) (any, error) {
			rt := ReadTierReply{LocalDomain: r.LocalDomain(), Locality: r.ReadLocality()}
			if c := r.ReadCache(); c != nil {
				rt.CacheEnabled, rt.Cache = true, c.Stats()
			}
			return rt, nil
		}},
		{"GET /spread-audit", "Data.SpreadAudit", r != nil, errNoDataRole, func(*http.Request) (any, error) { return r.SpreadAudit(), nil }},
		{"POST /repair", "Data.Repair", r != nil, errNoDataRole, func(*http.Request) (any, error) { return r.Repair(), nil }},
		{"POST /scrub", "Data.Scrub", roles.Healer != nil, errNoHeal, func(q *http.Request) (any, error) {
			if pass, err := flag(q, "sync", false); err != nil || !pass {
				return roles.Healer.Stats(), err
			}
			return roles.Healer.Pass(), nil
		}},
		{"POST /gc", "Data.GC", roles.Reaper != nil, errNoGC, func(q *http.Request) (any, error) {
			if pass, err := flag(q, "sync", false); err != nil || !pass {
				return roles.Reaper.Stats(), err
			}
			return roles.Reaper.Pass(), nil
		}},
		{"POST /providers/{id}/down", "Data.SetProviderDown", r != nil, errNoDataRole, func(q *http.Request) (any, error) {
			id, err := strconv.ParseUint(q.PathValue("id"), 10, 32)
			down, ferr := flag(q, "down", true)
			if err = errors.Join(err, ferr); err != nil {
				return nil, err
			}
			return nil, r.SetDown(provider.ID(id), down)
		}},
		{"POST /providers/{id}/domain", "Data.SetProviderDomain", r != nil, errNoDataRole, func(q *http.Request) (any, error) {
			id, err := strconv.ParseUint(q.PathValue("id"), 10, 32)
			if err != nil {
				return nil, err
			}
			return nil, r.SetDomain(provider.ID(id), q.URL.Query().Get("name"))
		}},
	}
	mux := http.NewServeMux()
	for _, rt := range routes {
		var calls *metrics.Counter
		if roles.Metrics != nil {
			calls = rpcCounter(roles.Metrics, rt.method)
		}
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, q *http.Request) {
			calls.Inc()
			if !rt.hosted {
				http.Error(w, rt.lacks.Error(), http.StatusNotFound)
			} else if out, err := rt.serve(q); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			} else if text, ok := out.(string); ok {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4")
				io.WriteString(w, text)
			} else if out != nil { // a call without a result answers 200 alone
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(out)
			}
		})
	}
	return mux
}

// adminClient makes operator calls, each on a connection of its own:
// they are rare, and nothing is left open behind them.
var adminClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// Admin makes one operator call on the node at addr — method and path as
// newAdminMux names them — and decodes the reply into out: JSON, or the
// text itself into a *string; out may be nil. A call the node refuses
// returns the node's message as its error.
func Admin(addr, method, path string, out any) error {
	req, err := http.NewRequest(method, "http://"+addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch text, isText := out.(*string); {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return wireError(strings.TrimSpace(string(body)))
	case isText:
		*text = string(body)
	case out != nil:
		return json.Unmarshal(body, out)
	}
	return nil
}

// SetProviderDown marks one provider on the data node dead (or revives
// it) through the node's operator surface.
func (c *Client) SetProviderDown(id provider.ID, down bool) error {
	return Admin(c.data, http.MethodPost, fmt.Sprintf("/providers/%d/down?down=%t", id, down), nil)
}

// connListener is the listener the node's HTTP server accepts from: the
// accept loop hands it every connection that is not framed.
type connListener struct {
	net.Listener // the node's, for Addr
	conns        chan net.Conn
	done         chan struct{}
	once         sync.Once
}

// hand passes conn to the HTTP server, or closes it once that is gone.
func (l *connListener) hand(conn net.Conn) {
	select {
	case l.conns <- conn:
	case <-l.done:
		conn.Close()
	}
}

func (l *connListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *connListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}
