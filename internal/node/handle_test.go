package node

import (
	"context"
	"math"
	"testing"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
)

// TestHandleRejectsWrongDimension sends node RPCs whose vectors have the
// wrong length, or whose query or radius is not finite (NaN, ±Inf, a
// negative radius). Each must come back as an error instead of a handler
// panic (which would take the whole process down) or an answer in arbitrary
// order, and the same node must then still answer valid queries.
func TestHandleRejectsWrongDimension(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tuning Tuning
	}{
		{"uncached", Tuning{}},
		{"cached", Tuning{CacheViews: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { testHandleRejectsWrongDimension(t, tc.tuning) })
	}
}

func testHandleRejectsWrongDimension(t *testing.T, tuning Tuning) {
	params := experiments.Params{Peers: 4, ItemsPerPeer: 20, Dim: 16, Levels: 2, ClustersPerPeer: 3, Seed: 5}
	sys, err := experiments.BuildMarkovSystem(params)
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	defer tr.Close()
	policy := transport.Policy{Timeout: 5 * time.Second}
	cl, err := StartClusterTuned(sys, tr, func(int) string { return "" }, policy, membership.Options{}, tuning)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// Target a node holding records at level 0, so a short can_search key
	// reaches the record filter.
	target, keyDim := -1, 0
	for p, nd := range cl.Nodes {
		if ls := nd.Membership().View(0); len(ls.Owned)+len(ls.Replicas) > 0 && len(ls.Zones) > 0 {
			target, keyDim = p, len(ls.Zones[0].Lo)
			break
		}
	}
	if target < 0 {
		t.Fatal("no node holds a level-0 record")
	}
	addr := cl.Addrs[target]
	dim := params.Dim
	vecOf := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.5
		}
		return v
	}
	inf := math.Inf(1)
	withAt := func(n, i int, x float64) []float64 {
		v := vecOf(n)
		v[i] = x
		return v
	}

	cli := transport.NewClient(tr, policy)
	client := NewClient(tr, policy)
	ctx := context.Background()
	for _, bad := range []struct {
		name   string
		method string
		body   []byte
	}{
		{"fetch_knn short", methodFetchKNN, encodeFetchKNNReq(vecOf(3), 5)},
		{"fetch_knn long", methodFetchKNN, encodeFetchKNNReq(vecOf(dim+1), 5)},
		{"fetch_range short", methodFetchRange, encodeFetchRangeReq(vecOf(3), 1)},
		{"fetch_range long", methodFetchRange, encodeFetchRangeReq(vecOf(dim+1), 1)},
		{"can_search short key", methodCanSearch, encodeSearchReq(0, vecOf(keyDim-1), 10, false)},
		{"can_search long key", methodCanSearch, encodeSearchReq(0, vecOf(keyDim+1), 10, false)},
		{"can_search empty key", methodCanSearch, encodeSearchReq(0, nil, 10, false)},
		{"fetch_knn NaN query", methodFetchKNN, encodeFetchKNNReq(withAt(dim, 2, math.NaN()), 5)},
		{"fetch_knn +Inf query", methodFetchKNN, encodeFetchKNNReq(withAt(dim, 0, inf), 5)},
		{"fetch_knn -Inf query", methodFetchKNN, encodeFetchKNNReq(withAt(dim, dim-1, -inf), 5)},
		{"fetch_range NaN query", methodFetchRange, encodeFetchRangeReq(withAt(dim, 1, math.NaN()), 1)},
		{"fetch_range +Inf query", methodFetchRange, encodeFetchRangeReq(withAt(dim, 0, inf), 1)},
		{"fetch_range -Inf query", methodFetchRange, encodeFetchRangeReq(withAt(dim, 3, -inf), 1)},
		{"fetch_range NaN eps", methodFetchRange, encodeFetchRangeReq(vecOf(dim), math.NaN())},
		{"fetch_range +Inf eps", methodFetchRange, encodeFetchRangeReq(vecOf(dim), inf)},
		{"fetch_range -Inf eps", methodFetchRange, encodeFetchRangeReq(vecOf(dim), -inf)},
		{"fetch_range negative eps", methodFetchRange, encodeFetchRangeReq(vecOf(dim), -1)},
		{"range NaN query", methodRange, encodeRangeReq(withAt(dim, 0, math.NaN()), 1, core.RangeOptions{})},
		{"range NaN eps", methodRange, encodeRangeReq(vecOf(dim), math.NaN(), core.RangeOptions{})},
		{"knn +Inf query", methodKNN, encodeKNNReq(withAt(dim, 0, inf), 3, core.KNNOptions{})},
	} {
		if _, err := cli.Call(ctx, addr, transport.Request{Method: bad.method, Body: bad.body}); err == nil {
			t.Errorf("%s: malformed request answered without error", bad.name)
		}
		// The node survived and still serves well-formed traffic.
		if _, err := cli.Call(ctx, addr, transport.Request{Method: methodCanSearch, Body: encodeSearchReq(0, vecOf(keyDim), 10, false)}); err != nil {
			t.Fatalf("after %s: valid can_search: %v", bad.name, err)
		}
		q := vecOf(dim)
		if _, err := client.Range(ctx, addr, q, 1, core.RangeOptions{}); err != nil {
			t.Fatalf("after %s: valid range query: %v", bad.name, err)
		}
		if _, err := client.KNN(ctx, addr, q, 3, core.KNNOptions{}); err != nil {
			t.Fatalf("after %s: valid knn query: %v", bad.name, err)
		}
	}
	// A full-view request carries no key and stays valid.
	if _, err := cli.Call(ctx, addr, transport.Request{Method: methodCanSearch, Body: encodeSearchReq(0, nil, 0, true)}); err != nil {
		t.Fatalf("full can_search: %v", err)
	}
}
