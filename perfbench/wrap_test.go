package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
)

// startSmall boots a caching 8-peer cluster on tr and a client on the same
// transport.
func startSmall(t *testing.T, tr transport.Transport) (*core.System, *node.Cluster, *node.Client) {
	t.Helper()
	sys, err := experiments.BuildMarkovSystem(experiments.Params{
		Peers: 8, ItemsPerPeer: 40, Dim: dim, Levels: levels, ClustersPerPeer: clustersPerPeer, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	p := transport.Policy{Timeout: 30 * time.Second}
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "" }, p, membership.Options{},
		node.Tuning{CacheViews: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return sys, cl, node.NewClient(tr, p)
}

// The counting, span-recording wrapper must not change a served byte, and
// its per-method call counts must equal the nodes' own rpc.<method> counters.
func TestWrapperIsTransparent(t *testing.T) {
	plainTr := transport.NewChan()
	defer plainTr.Close()
	rec := newRecorder()
	wrapped := newCountingTransport(transport.NewChan(), rec)
	defer wrapped.Close()
	sys, plain, plainClient := startSmall(t, plainTr)
	_, traced, tracedClient := startSmall(t, wrapped)

	c := corpusOf(sys)
	pool := buildPool(c, 12, opRand(5, -1))
	ctx := context.Background()
	for i, q := range pool {
		from := i % 3
		if i == 6 { // a write mid-way: publish, fetch-memo invalidation
			id, item := writeItem(c.vecs[i], 5, int64(i))
			if err := plainClient.Publish(ctx, plain.Addrs[from], id, item); err != nil {
				t.Fatal(err)
			}
			if err := tracedClient.Publish(ctx, traced.Addrs[from], id, item); err != nil {
				t.Fatal(err)
			}
		}
		var a, b []byte
		if q.kind == opRange {
			ra, err := plainClient.Range(ctx, plain.Addrs[from], q.center, q.eps, core.RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := tracedClient.Range(ctx, traced.Addrs[from], q.center, q.eps, core.RangeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			a, b = canonRange(ra), canonRange(rb)
		} else {
			ka, err := plainClient.KNN(ctx, plain.Addrs[from], q.center, knnK, core.KNNOptions{})
			if err != nil {
				t.Fatal(err)
			}
			kb, err := tracedClient.KNN(ctx, traced.Addrs[from], q.center, knnK, core.KNNOptions{})
			if err != nil {
				t.Fatal(err)
			}
			a, b = canonKNN(ka), canonKNN(kb)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("query %d: answer through the wrapper differs from the plain transport's", i)
		}
	}

	calls := wrapped.snapshot()
	cc := clusterCounters(traced.Nodes)
	total := int64(0)
	for _, m := range wireMethods[:len(wireMethods)-1] {
		if got, want := calls[m].calls, int64(cc["rpc."+m]); got != want {
			t.Errorf("method %s: wrapper counted %d calls, nodes handled %d", m, got, want)
		}
		total += calls[m].calls
	}
	if calls["other"].calls != 0 || calls["can_search"].calls == 0 || calls["inval_fetch"].calls == 0 {
		t.Errorf("calls: other=%d can_search=%d inval_fetch=%d; want 0, >0, >0",
			calls["other"].calls, calls["can_search"].calls, calls["inval_fetch"].calls)
	}
	handled := 0
	for _, s := range rec.spans {
		if strings.HasPrefix(s.Name, "node.handle.") {
			handled++
		}
	}
	if int64(handled) != total {
		t.Errorf("%d handler spans for %d calls", handled, total)
	}
}

func TestLinkSpansAndSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op.range", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "node.handle.range", Addr: "a", Op: 0, Parent: -1, Start: 5, End: 95},
		{Name: "transport.call.can_search", Addr: "b", Op: 0, Parent: -1, Start: 10, End: 40},
		{Name: "transport.call.can_search", Addr: "c", Op: 0, Parent: -1, Start: 20, End: 50},
		{Name: "node.handle.can_search", Addr: "c", Op: 0, Parent: -1, Start: 25, End: 45},
		{Name: "node.handle.can_search", Addr: "b", Op: 0, Parent: -1, Start: 12, End: 30},
		{Name: "setup.build", Op: -1, Parent: -1, Start: 0, End: 1},
	}
	linkSpans(spans)
	for i, want := range []int{-1, 0, 1, 1, 3, 2, -1} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s@%s): parent %d, want %d", i, spans[i].Name, spans[i].Addr, spans[i].Parent, want)
		}
	}
	m := map[string]metric{}
	spanLayers(spans, m)
	// The coordinator waits on [10,50] (two overlapping calls): 40 of its 90.
	if got := m["engine.range.wait_us"].Value; got != us(40) {
		t.Errorf("engine.range.wait_us = %v, want %v", got, us(40))
	}
	if got := m["engine.range.self_us"].Value; got != us(50) {
		t.Errorf("engine.range.self_us = %v, want %v", got, us(50))
	}
	// Call minus handler: b 30-18=12, c 30-20=10; median 11.
	if got := m["transport.wait_us"].Value; got != us(11) {
		t.Errorf("transport.wait_us = %v, want %v", got, us(11))
	}
}
