package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hyperm/internal/transport"
)

// wireMethods are the RPC methods the serving runtime puts on the wire: the
// client front door (range, knn, publish), the node→node methods of
// internal/node, and the membership methods of internal/membership. The
// wrapper counts each separately; a method outside this list is counted as
// "other", and a nonzero "other" fails the run (see checkCounters), so a
// renamed method cannot silently zero a per-layer metric.
var wireMethods = []string{
	"range", "knn", "publish", "publish_batch",
	"can_search", "can_search_agg", "fetch_range", "fetch_knn", "view_version",
	"replicate_refs", "fetch_sub", "inval_fetch", "warm_views",
	"m.join", "m.handoff", "m.ping", "m.takeover", "m.zones", "m.store_rec",
	"other",
}

var methodIndex = func() map[string]int {
	m := make(map[string]int, len(wireMethods))
	for i, name := range wireMethods {
		m[name] = i
	}
	return m
}()

func methodSlot(method string) int {
	if i, ok := methodIndex[method]; ok {
		return i
	}
	return len(wireMethods) - 1
}

// methodStats is one method's call-side tally.
type methodStats struct {
	calls   atomic.Int64
	retries atomic.Int64 // attempts that failed with a retryable error
	bytes   atomic.Int64 // request plus response body bytes
}

// tally is a point-in-time copy of a methodStats.
type tally struct{ calls, retries, bytes int64 }

// countingTransport wraps the transport.Transport every node of a cluster
// shares. Call counts each node→node attempt by method (two atomic adds: the
// call and its bytes), which stays on in the measured runs so counts are
// taken under load. With a recorder it also records one span per Call and
// one per served request (the node's handler time).
type countingTransport struct {
	inner transport.Transport
	stats []methodStats // indexed like wireMethods
	rec   *recorder     // nil: counting only
}

func newCountingTransport(inner transport.Transport, rec *recorder) *countingTransport {
	return &countingTransport{inner: inner, stats: make([]methodStats, len(wireMethods)), rec: rec}
}

func (t *countingTransport) Call(ctx context.Context, addr string, req transport.Request) (transport.Response, error) {
	st := &t.stats[methodSlot(req.Method)]
	var start time.Time
	if t.rec != nil {
		start = time.Now()
	}
	resp, err := t.inner.Call(ctx, addr, req)
	if t.rec != nil {
		t.rec.add("transport.call."+req.Method, addr, start, time.Now())
	}
	st.calls.Add(1)
	st.bytes.Add(int64(len(req.Body) + len(resp.Body)))
	if transport.Retryable(err) {
		st.retries.Add(1)
	}
	return resp, err
}

func (t *countingTransport) Serve(addr string, h transport.Handler) (transport.Server, error) {
	if t.rec == nil {
		return t.inner.Serve(addr, h)
	}
	// The bound address is known only once Serve returns; no peer can call
	// before then because nobody has the address yet.
	var self atomic.Pointer[string]
	srv, err := t.inner.Serve(addr, func(ctx context.Context, req transport.Request) (transport.Response, error) {
		start := time.Now()
		resp, err := h(ctx, req)
		at := ""
		if p := self.Load(); p != nil {
			at = *p
		}
		t.rec.add("node.handle."+req.Method, at, start, time.Now())
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	a := srv.Addr()
	self.Store(&a)
	return srv, nil
}

func (t *countingTransport) Close() error { return t.inner.Close() }

// snapshot copies every method's tally.
func (t *countingTransport) snapshot() map[string]tally {
	out := make(map[string]tally, len(wireMethods))
	for i, name := range wireMethods {
		st := &t.stats[i]
		out[name] = tally{st.calls.Load(), st.retries.Load(), st.bytes.Load()}
	}
	return out
}

// diffTallies returns b - a per method.
func diffTallies(a, b map[string]tally) map[string]tally {
	out := make(map[string]tally, len(b))
	for name, tb := range b {
		ta := a[name]
		out[name] = tally{tb.calls - ta.calls, tb.retries - ta.retries, tb.bytes - ta.bytes}
	}
	return out
}

// sumTallies totals every method.
func sumTallies(m map[string]tally) tally {
	var s tally
	for _, t := range m {
		s.calls += t.calls
		s.retries += t.retries
		s.bytes += t.bytes
	}
	return s
}

// span is one timed interval at a layer boundary. Op is the id of the client
// operation it belongs to (-1 outside any op, e.g. set-up); Parent indexes
// the span that caused it (-1 for a root) and is filled in by linkSpans.
type span struct {
	Name   string `json:"name"`
	Addr   string `json:"addr,omitempty"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. The traced
// run issues one op at a time, so the current op id labels every span
// recorded while it is outstanding.
type recorder struct {
	t0 time.Time
	op atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.op.Store(-1)
	return r
}

func (r *recorder) add(name, addr string, start, end time.Time) {
	s := span{Name: name, Addr: addr, Op: r.op.Load(), Parent: -1,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f and records it as a span of the current op.
func (r *recorder) timed(name string, f func()) {
	start := time.Now()
	f()
	r.add(name, "", start, time.Now())
}
