package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/store"
)

// tracedOut is what the traced part of a run adds to its op tally.
type tracedOut struct{ attempted, failed int }

// serialSequence issues the workload's fixed traced sequence one op at a
// time from a single client and returns its wall time. On a read-only
// workload the last tenth of the sequence is publish-probe writes. With rec,
// every op gets an op span and its id labels the spans recorded while it
// runs.
func serialSequence(r *runner, rec *recorder) time.Duration {
	start := time.Now()
	for j := 0; j < r.w.traceOps; j++ {
		n := int64(traceBase + j)
		o := r.opAt(n)
		if r.w.writeFrac == 0 && j >= r.w.traceOps*9/10 {
			o = r.probeOp(n)
		}
		if rec == nil {
			r.issue(n, o, -1)
			continue
		}
		rec.op.Store(int64(j))
		t0 := time.Now()
		kind, _ := r.issue(n, o, -1)
		rec.add("op."+kind.String(), "", t0, time.Now())
	}
	if rec != nil {
		rec.op.Store(-1)
	}
	return time.Since(start)
}

// tracedDeployment boots a fresh deployment, warms it serially, runs the
// traced sequence and checks its answers, which it returns. The untraced
// twin (rec == nil) gives the sequence's wall time without span recording.
func tracedDeployment(w workload, seed int64, entries []int, rec *recorder) (*runner, []answer, time.Duration, error) {
	d, _, err := deploy(w, rec)
	if err != nil {
		return nil, nil, 0, err
	}
	defer d.stop()
	r := newRunner(w, seed, entries, d)
	r.warmUp(1)
	r.checkAnswers()
	took := serialSequence(r, rec)
	answers, _ := r.checkAnswers()
	if rec != nil {
		// The layers below the node, timed from outside on the same inputs:
		// every traced read's local scan on every peer's store, and the
		// stream kernel while the oracle replays the acknowledged writes.
		storeScans(r, answers, rec)
	}
	r.replayWrites(rec)
	return r, answers, took, nil
}

// storeScans times core.LocalRange/LocalKNN directly on every peer's store
// for each traced read, as spans of that read's op.
func storeScans(r *runner, answers []answer, rec *recorder) {
	stores := peerStores(r)
	for _, a := range answers {
		rec.op.Store(a.n - traceBase)
		for _, st := range stores {
			if a.o.kind == opRange {
				eps := r.pool[a.o.q].eps
				rec.timed("store.local_range", func() { core.LocalRange(a.q, eps, st) })
			} else {
				rec.timed("store.local_knn", func() { core.LocalKNN(a.q, knnK, st) })
			}
		}
	}
	rec.op.Store(-1)
}

// knnAllocBytes is the heap allocated per core.LocalKNN call over the
// traced kNN reads on every peer's store.
func knnAllocBytes(r *runner, answers []answer) float64 {
	stores := peerStores(r)
	var a, b runtime.MemStats
	calls := 0
	runtime.ReadMemStats(&a)
	for _, an := range answers {
		if an.o.kind != opKNN {
			continue
		}
		for _, st := range stores {
			core.LocalKNN(an.q, knnK, st)
			calls++
		}
	}
	runtime.ReadMemStats(&b)
	if calls == 0 {
		return 0
	}
	return float64(b.TotalAlloc-a.TotalAlloc) / float64(calls)
}

// peerStores copies every peer's item store out of the oracle once
// (System.PeerStore returns a clone).
func peerStores(r *runner) []*store.Store {
	out := make([]*store.Store, r.w.peers)
	for p := range out {
		out[p] = r.d.sys.PeerStore(p)
	}
	return out
}

func isClientMethod(m string) bool { return m == "range" || m == "knn" || m == "publish" }

// linkSpans fills in each span's parent. Within one op: the entry node's
// handler of the client request is the op span's child; every node→node
// call is made by that handler (coordinator or write holder); a node→node
// handler belongs to the call of the same method to the same address that
// encloses it (the latest-starting one); store.* and stream.* spans hang off
// the op span.
func linkSpans(spans []span) {
	byOp := map[int64][]int{}
	for i, s := range spans {
		if s.Op >= 0 {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for _, idx := range byOp {
		root, entry := -1, -1
		for _, i := range idx {
			name := spans[i].Name
			if strings.HasPrefix(name, "op.") {
				root = i
			} else if m, ok := strings.CutPrefix(name, "node.handle."); ok && isClientMethod(m) {
				entry = i
			}
		}
		caller := entry
		if caller < 0 {
			caller = root
		}
		for _, i := range idx {
			s := &spans[i]
			switch {
			case i == root:
			case i == entry:
				s.Parent = root
			case strings.HasPrefix(s.Name, "transport.call."):
				s.Parent = caller
			case strings.HasPrefix(s.Name, "node.handle."):
				s.Parent = caller
				want := "transport.call." + strings.TrimPrefix(s.Name, "node.handle.")
				best := int64(-1)
				for _, j := range idx {
					c := spans[j]
					if c.Name == want && c.Addr == s.Addr && c.Start <= s.Start && c.End >= s.End && c.Start > best {
						best, s.Parent = c.Start, j
					}
				}
			default:
				s.Parent = root
			}
		}
	}
}

// unionWithin is the total length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if s >= e {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// medianOr0 is the median, or 0 for an empty sample (a layer the workload
// does not exercise).
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLayers derives the span-based per-layer metrics of the traced run.
func spanLayers(spans []span, m map[string]metric) {
	durs := map[string][]float64{}
	var waits []float64
	self := map[string][]float64{}
	wait := map[string][]float64{}
	var opUs, selfShare, waitShare, outsideShare []float64
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		durs[s.Name] = append(durs[s.Name], us(s.dur()))
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "transport.call.") {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
		if s.Parent >= 0 && strings.HasPrefix(s.Name, "node.handle.") && strings.HasPrefix(spans[s.Parent].Name, "transport.call.") {
			waits = append(waits, us(spans[s.Parent].dur()-s.dur()))
		}
	}
	for i, s := range spans {
		method, ok := strings.CutPrefix(s.Name, "node.handle.")
		if s.Op < 0 || !ok || (method != "range" && method != "knn") || s.Parent < 0 {
			continue
		}
		w := unionWithin(children[i], s.Start, s.End)
		self[method] = append(self[method], us(s.dur()-time.Duration(w)))
		wait[method] = append(wait[method], us(time.Duration(w)))
		op := spans[s.Parent].dur()
		opUs = append(opUs, us(op))
		selfShare = append(selfShare, float64(s.dur()-time.Duration(w))/float64(op))
		waitShare = append(waitShare, float64(w)/float64(op))
		outsideShare = append(outsideShare, float64(op-s.dur())/float64(op))
	}
	m["transport.can_search.rtt_us"] = metric{medianOr0(durs["transport.call.can_search"]), "us"}
	m["transport.wait_us"] = metric{medianOr0(waits), "us"}
	for _, h := range []struct{ metric, method string }{
		{"can_search", "can_search"}, {"fetch_range", "fetch_range"}, {"fetch_knn", "fetch_knn"},
		{"publish", "publish"}, {"store_rec", "m.store_rec"},
	} {
		m["node."+h.metric+".handler_us"] = metric{medianOr0(durs["node.handle."+h.method]), "us"}
	}
	for _, k := range []string{"range", "knn"} {
		m["engine."+k+".self_us"] = metric{medianOr0(self[k]), "us"}
		m["engine."+k+".wait_us"] = metric{medianOr0(wait[k]), "us"}
	}
	m["store.local_range_us"] = metric{medianOr0(durs["store.local_range"]), "us"}
	m["store.local_knn_us"] = metric{medianOr0(durs["store.local_knn"]), "us"}
	m["trace.read_op_us"] = metric{medianOr0(opUs), "us"}
	m["trace.coord_self_share"] = metric{medianOr0(selfShare), "fraction"}
	m["trace.coord_wait_share"] = metric{medianOr0(waitShare), "fraction"}
	m["trace.outside_coord_share"] = metric{medianOr0(outsideShare), "fraction"}
}

// traceRun is the traced part of a run: an untraced twin and a traced
// deployment run the same serial sequence; the per-layer metrics combine
// the spans with the counts the measured phases took under load.
func traceRun(w workload, seed int64, entries []int, p *phases, traceDir string) (map[string]metric, tracedOut, error) {
	var out tracedOut
	twin, _, twinTook, err := tracedDeployment(w, seed, entries, nil)
	if err != nil {
		return nil, out, err
	}
	rec := newRecorder()
	tr, answers, took, err := tracedDeployment(w, seed, entries, rec)
	if err != nil {
		return nil, out, err
	}
	out.attempted = 2 * (w.warmOps + w.traceOps)
	out.failed = twin.failed + tr.failed
	linkSpans(rec.spans)

	m := map[string]metric{}
	spanLayers(rec.spans, m)
	m["trace.overhead_frac"] = metric{(took.Seconds() - twinTook.Seconds()) / twinTook.Seconds(), "fraction"}
	m["store.local_knn_alloc_bytes"] = metric{knnAllocBytes(tr, answers), "B"}
	m["store.bytes_per_item"] = metric{p.storeBytes, "B"}

	var peers, hops, reads, fetched, knns float64
	for _, a := range answers {
		peers += float64(a.peers)
		hops += float64(a.hops)
		reads++
		if a.o.kind == opKNN {
			fetched += float64(len(a.items)) / knnK
			knns++
		}
	}
	m["engine.peers_contacted_per_query"] = metric{ratio(peers, reads), "count"}
	m["engine.overlay_hops_per_query"] = metric{ratio(hops, reads), "count"}
	m["engine.knn.fetched_per_answer"] = metric{ratio(fetched, knns), "count"}

	ops, writes := float64(p.timedOps()), float64(p.timedWrites())
	c := p.counters
	all := sumTallies(p.calls)
	fetchRPC := float64(p.calls["fetch_range"].calls + p.calls["fetch_knn"].calls)
	m["transport.can_search.calls_per_op"] = metric{float64(p.calls["can_search"].calls) / ops, "count"}
	m["transport.fetch.calls_per_op"] = metric{fetchRPC / ops, "count"}
	m["transport.view_version.calls_per_op"] = metric{float64(p.calls["view_version"].calls) / ops, "count"}
	m["transport.retries_per_op"] = metric{float64(all.retries) / ops, "count"}
	m["transport.bytes_per_call"] = metric{ratio(float64(all.bytes), float64(all.calls)), "B"}
	m["membership.store_rec.calls_per_write"] = metric{ratio(float64(p.calls["m.store_rec"].calls), writes), "count"}
	// Each view-cache probe counts exactly one Get outcome. Under
	// StreamPublish a hit is then revalidated, which revalidations_per_op
	// reports.
	hits := c.get("cache.hit") + c.get("cache.replica_hit")
	probes := hits + c.get("cache.stale") + c.get("cache.neg_hit") + c.get("cache.miss")
	m["viewcache.hit_rate"] = metric{ratio(hits, probes), "fraction"}
	m["viewcache.memo_hit_rate"] = metric{ratio(c.get("cache.path_hit"), c.get("cache.path_hit")+c.get("cache.path_miss")), "fraction"}
	m["viewcache.revalidations_per_op"] = metric{c.get("cache.revalidate") / ops, "count"}
	local := c.get("cache.fetch_local_hit")
	m["fetchcache.hit_rate"] = metric{ratio(local, local+fetchRPC), "fraction"}
	m["fetchcache.inval_per_write"] = metric{ratio(c.get("cache.fetch_inval"), writes), "count"}

	var ins []float64
	for _, d := range p.inserts {
		ins = append(ins, us(d))
	}
	m["stream.insert_us"] = metric{medianOr0(ins), "us"}
	m["stream.deltas_per_insert"] = metric{ratio(float64(p.deltas), float64(len(p.inserts))), "count"}

	m["runtime.alloc_bytes_per_op"] = metric{float64(p.alloc) / ops, "B"}
	pauses := append([]float64(nil), p.pauses...)
	sort.Float64s(pauses)
	gcP99 := 0.0
	if t, err := percentile(pauses, 0.99); err == nil {
		gcP99 = t.Value
	} else if len(pauses) > 0 {
		gcP99 = pauses[len(pauses)-1] // too few cycles for a p99: the worst
	}
	m["runtime.gc_pause_p99_ms"] = metric{gcP99, "ms"}

	var build, pub, start []float64
	for _, s := range p.setups {
		build = append(build, s.build.Seconds())
		pub = append(pub, s.publish.Seconds())
		start = append(start, s.start.Seconds())
	}
	m["setup.build_s"] = metric{median(build), "s"}
	m["setup.publish_s"] = metric{median(pub), "s"}
	m["setup.start_s"] = metric{median(start), "s"}
	lag, err := percentile(p.lags(), 0.99)
	if err != nil {
		return nil, out, fmt.Errorf("dispatcher lag: %w", err)
	}
	m["gen.lag_p99_ms"] = metric{lag.Value, "ms"}
	outstanding := 0
	for _, rd := range p.rounds {
		outstanding = max(outstanding, rd.open.outstanding)
	}
	m["gen.outstanding_at_close"] = metric{float64(outstanding), "count"}

	if err := writeSpans(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)), rec.spans); err != nil {
		return nil, out, err
	}
	return m, out, nil
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	return nil
}
