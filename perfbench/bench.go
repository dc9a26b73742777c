package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
)

const (
	// setupReps is how many times a run sets the deployment up; setup_s is
	// the median.
	setupReps = 11
	// rounds is how many times a run repeats its timed phases; qps, and the
	// latencies where rounds are big enough (see roundTails), are the best of
	// the rounds' values, so a stall of the machine during some rounds does
	// not move them.
	rounds = 5
	// recallQueries is the size of the fixed query set whose served answers
	// give recall; finalQueries that of the set compared byte for byte with
	// the oracle after the run.
	recallQueries = 128
	finalQueries  = 32
	// sampleEvery: on read-only workloads about one timed answer in
	// sampleEvery is compared byte for byte with the oracle.
	sampleEvery = 32
	// Op numbers of each phase (and round) start at a fixed base, so a
	// write's id and a read's jitter depend only on (seed, phase, position).
	warmBase   = 0
	openBase   = 1 << 22
	closedBase = 2 << 22
	probeBase  = 3 << 22
	traceBase  = 4 << 22
	roundSpan  = 1 << 19
)

var policy = transport.Policy{Timeout: 30 * time.Second}

// deploySeed fixes each workload's deployment across runs: the corpus, peer
// assignment, CAN overlays, published clusters, entry peers and the pool of
// base queries. --seed drives the traffic over it: which queries are asked
// in what order and popularity, their jitter, the written items and their
// holders, and the arrival schedule. A 4- or 64-peer overlay, a pair of
// entry peers or a 256-query pool drawn afresh per seed moves routing and
// fetch cost by up to a fifth (a few peers or queries carry the traffic),
// which would swamp the regression bounds.
const deploySeed = 1

// deployment is one booted cluster plus its oracle and a client.
type deployment struct {
	sys      *core.System
	cl       *node.Cluster
	tr       *countingTransport
	clientTr transport.Transport
	client   *node.Client
}

type setupTimes struct{ build, publish, start time.Duration }

func (s setupTimes) total() time.Duration { return s.build + s.publish + s.start }

// deploy builds the workload's corpus, publishes it and starts one serving
// node per peer on TCP loopback, timing each step. rec, when non-nil, records spans
// of every node's calls and handlers.
func deploy(w workload, rec *recorder) (*deployment, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sys, err := experiments.BuildMarkovSystem(experiments.Params{
		Peers: w.peers, ItemsPerPeer: w.items, Dim: dim, Levels: levels,
		ClustersPerPeer: clustersPerPeer, Seed: deploySeed,
	})
	if err != nil {
		return nil, st, fmt.Errorf("build corpus: %w", err)
	}
	t1 := time.Now()
	sys.PublishAll()
	t2 := time.Now()
	tr := newCountingTransport(transport.NewTCP(), rec)
	cl, err := node.StartClusterTuned(sys, tr, func(int) string { return "127.0.0.1:0" },
		policy, membership.Options{}, w.tuning)
	if err != nil {
		tr.Close()
		return nil, st, fmt.Errorf("start cluster: %w", err)
	}
	t3 := time.Now()
	st = setupTimes{build: t1.Sub(t0), publish: t2.Sub(t1), start: t3.Sub(t2)}
	if rec != nil {
		rec.add("setup.build", "", t0, t1)
		rec.add("setup.publish", "", t1, t2)
		rec.add("setup.start", "", t2, t3)
	}
	if w.tuning.StreamPublish {
		sys.SetStreamTuning(core.StreamTuning{GrowSlack: w.tuning.GrowSlack, ReclusterEvery: w.tuning.ReclusterEvery})
	}
	// The load generator has its own transport: one multiplexed connection
	// per entry node, none shared with node→node traffic.
	clientTr := transport.NewTCP()
	return &deployment{sys: sys, cl: cl, tr: tr, clientTr: clientTr, client: node.NewClient(clientTr, policy)}, st, nil
}

func (d *deployment) stop() {
	d.clientTr.Close()
	d.cl.Stop()
	d.tr.Close()
}

// answer is one served read, kept for the checks that run after the timed
// phases.
type answer struct {
	n           int64
	o           op
	q           []float64
	items       []int
	peers, hops int
	full        []byte // canonical result; sampled ops only
}

// write is one acknowledged publish.
type write struct {
	holder int // entry index
	id     int
	item   []float64
}

// runner issues one workload's ops against one deployment and logs what the
// checks need.
type runner struct {
	w       workload
	seed    int64
	entries []int         // entry peers
	addrs   []string      // their addresses
	held    [][][]float64 // their stored items at set-up
	d       *deployment
	c       corpus
	pool    []query
	seq     []op

	// streamMu serializes streamed writes across holders: the record stores
	// the store_rec announcements of two holders reach depend on how their
	// floods interleave, which the oracle can only replay when one write is
	// in flight at a time.
	streamMu sync.Mutex

	mu      sync.Mutex
	answers []answer
	writes  []write // in acknowledgement order; each holder's writes are sequential
	// replayed counts the writes applied to the oracle so far.
	replayed int
	failed   int
	errs     []string
}

func newRunner(w workload, seed int64, entries []int, d *deployment) *runner {
	c := corpusOf(d.sys)
	held := make([][][]float64, len(entries))
	for i, p := range entries {
		_, held[i] = d.sys.PeerData(p)
	}
	pool := buildPool(c, w.poolSize, opRand(deploySeed, -1<<40))
	addrs := make([]string, len(entries))
	for i, p := range entries {
		addrs[i] = d.cl.Addrs[p]
	}
	return &runner{
		w: w, seed: seed, entries: entries, addrs: addrs, held: held, d: d, c: c, pool: pool,
		seq: genOps(w, seed, len(pool), len(entries)),
	}
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// sampled picks the timed answers compared with the oracle (a splitmix64
// hash of the seed and op number).
func (r *runner) sampled(n int64) bool {
	x := uint64(r.seed)*0x9E3779B97F4A7C15 + uint64(n)
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return r.w.writeFrac == 0 && x%sampleEvery == 0
}

// opAt is op n of the workload's sequence.
func (r *runner) opAt(n int64) op { return r.seq[n%seqLen] }

// probeOp is op n of a read-only workload's publish probe: a write through
// entry n mod entries.
func (r *runner) probeOp(n int64) op {
	return op{kind: opPublish, q: int(uint64(n*7919+r.seed) >> 1), entry: int(n % int64(len(r.entries)))}
}

// issue runs op o as op number n. holder >= 0 redirects a write to that
// entry (closed-loop client c writes only through entry c, so each holder's
// writes are sequential and their acknowledgement order is known).
func (r *runner) issue(n int64, o op, holder int) (opKind, error) {
	ctx := context.Background()
	if o.kind == opPublish {
		if holder >= 0 {
			o.entry = holder
		}
		held := r.held[o.entry]
		id, item := writeItem(held[o.q%len(held)], r.seed, n)
		if r.w.tuning.StreamPublish {
			r.streamMu.Lock()
			defer r.streamMu.Unlock()
		}
		if err := r.d.client.Publish(ctx, r.addrs[o.entry], id, item); err != nil {
			r.fail("publish %d: %v", n, err)
			return opPublish, err
		}
		r.mu.Lock()
		r.writes = append(r.writes, write{o.entry, id, item})
		r.c.byID[id] = item
		r.mu.Unlock()
		return opPublish, nil
	}
	q := readQuery(r.pool, o, r.seed, n, !r.w.skewed)
	addr := r.addrs[o.entry]
	a := answer{n: n, o: o, q: q}
	if o.kind == opRange {
		res, err := r.d.client.Range(ctx, addr, q, r.pool[o.q].eps, core.RangeOptions{})
		if err != nil {
			r.fail("range %d: %v", n, err)
			return o.kind, err
		}
		a.items, a.peers, a.hops = res.Items, res.PeersContacted, res.OverlayHops
		if r.sampled(n) {
			a.full = canonRange(res)
		}
	} else {
		res, err := r.d.client.KNN(ctx, addr, q, knnK, core.KNNOptions{})
		if err != nil {
			r.fail("knn %d: %v", n, err)
			return o.kind, err
		}
		a.items, a.peers, a.hops = res.Items, res.PeersContacted, res.OverlayHops
		if r.sampled(n) {
			a.full = canonKNN(res)
		}
	}
	r.mu.Lock()
	r.answers = append(r.answers, a)
	r.mu.Unlock()
	return o.kind, nil
}

// warmUp issues the untimed warm-up ops closed-loop.
func (r *runner) warmUp(clients int) {
	closedLoop(clients, func(n int64) bool { return n < int64(r.w.warmOps) },
		func(c int, n int64) (opKind, error) { return r.issue(warmBase+n, r.opAt(warmBase+n), c) })
}

// checkAnswers runs the cheap invariants on every answer logged since the
// last check and, on read-only workloads, compares the sampled ones byte for
// byte with the oracle from the same coordinator; it then drops them from
// the log and returns them. It runs before the writes issued since the
// sampled reads are replayed into the oracle.
func (r *runner) checkAnswers() (checked []answer, compared int) {
	checked, r.answers = r.answers, nil
	for _, a := range checked {
		var err error
		if a.o.kind == opRange {
			err = checkRange(r.c.byID, a.q, r.pool[a.o.q].eps, a.items)
		} else {
			err = checkKNN(r.c.byID, a.q, a.items)
		}
		if err != nil {
			r.fail("op %d: %v", a.n, err)
			continue
		}
		if a.full == nil {
			continue
		}
		compared++
		if want := r.oracle(a.o, a.q); !bytes.Equal(want, a.full) {
			r.fail("op %d (%s from peer %d): served answer differs from the oracle", a.n, a.o.kind, r.entries[a.o.entry])
		}
	}
	return checked, compared
}

// oracle answers read o with query q on the simulator from o's coordinator.
func (r *runner) oracle(o op, q []float64) []byte {
	from := r.entries[o.entry]
	if o.kind == opRange {
		return canonRange(r.d.sys.RangeQuery(from, q, r.pool[o.q].eps, core.RangeOptions{}))
	}
	return canonKNN(r.d.sys.KNNQuery(from, q, knnK, core.KNNOptions{}))
}

// replayWrites applies every acknowledged write to the oracle in
// acknowledgement order (PostInsert, or StreamInsert when writes stream) and
// adds the items to the brute-force corpus. It returns the StreamInsert
// durations and delta counts, and records each as a stream.insert span when
// rec is non-nil.
func (r *runner) replayWrites(rec *recorder) (inserts []time.Duration, deltas int) {
	for _, wr := range r.writes {
		p := r.entries[wr.holder]
		if r.w.tuning.StreamPublish {
			t0 := time.Now()
			ds, _ := r.d.sys.StreamInsert(p, wr.id, wr.item)
			t1 := time.Now()
			inserts = append(inserts, t1.Sub(t0))
			if rec != nil {
				rec.add("stream.insert", "", t0, t1)
			}
			deltas += len(ds)
		} else {
			r.d.sys.PostInsert(p, wr.id, wr.item)
		}
		r.c.ids = append(r.c.ids, wr.id)
		r.c.vecs = append(r.c.vecs, wr.item)
	}
	r.replayed += len(r.writes)
	r.writes = nil
	return inserts, deltas
}

// recallOf issues the first n pool queries to the live cluster and returns
// the recall of the served answers against brute force over the live corpus
// (which must hold every acknowledged write).
func (r *runner) recallOf(n int) (rangeRecall, knnRecall float64, attempted int) {
	live := liveSet{ids: r.c.ids, vecs: r.c.vecs}
	var rr, kr []float64
	ctx := context.Background()
	for v := 0; v < n && v < len(r.pool); v++ {
		q, addr := r.pool[v], r.addrs[v%len(r.addrs)]
		attempted++
		if q.kind == opRange {
			res, err := r.d.client.Range(ctx, addr, q.center, q.eps, core.RangeOptions{})
			if err != nil {
				r.fail("recall range %d: %v", v, err)
				continue
			}
			rr = append(rr, recall(res.Items, live.rangeIDs(q.center, q.eps)))
			continue
		}
		res, err := r.d.client.KNN(ctx, addr, q.center, knnK, core.KNNOptions{})
		if err != nil {
			r.fail("recall knn %d: %v", v, err)
			continue
		}
		kr = append(kr, recall(res.Items[:min(knnK, len(res.Items))], live.knnIDs(q.center, knnK)))
	}
	return mean(rr), mean(kr), attempted
}

// verify issues the first n pool queries to the live cluster and compares
// every answer byte for byte with the oracle, which must hold every
// acknowledged write.
func (r *runner) verify(n int) (attempted int) {
	ctx := context.Background()
	for v := 0; v < n && v < len(r.pool); v++ {
		o := op{kind: r.pool[v].kind, q: v, entry: v % len(r.entries)}
		q, addr := r.pool[v].center, r.addrs[o.entry]
		attempted++
		var got []byte
		if o.kind == opRange {
			res, err := r.d.client.Range(ctx, addr, q, r.pool[v].eps, core.RangeOptions{})
			if err != nil {
				r.fail("verify range %d: %v", v, err)
				continue
			}
			got = canonRange(res)
		} else {
			res, err := r.d.client.KNN(ctx, addr, q, knnK, core.KNNOptions{})
			if err != nil {
				r.fail("verify knn %d: %v", v, err)
				continue
			}
			got = canonKNN(res)
		}
		if !bytes.Equal(got, r.oracle(o, q)) {
			r.fail("verify %s %d from peer %d: served answer differs from the oracle", o.kind, v, r.entries[o.entry])
		}
	}
	return attempted
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// heapBytesPerItem is the live heap after a collection over the items the
// nodes store.
func heapBytesPerItem(nodes []*node.Node) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	items := 0
	for _, nd := range nodes {
		items += nd.ItemCount()
	}
	return float64(m.HeapAlloc) / float64(items)
}

// gcPauses returns the stop-the-world pauses between two MemStats reads
// (the runtime keeps the last 256).
func gcPauses(a, b *runtime.MemStats) []float64 {
	n := int(b.NumGC - a.NumGC)
	if n > len(b.PauseNs) {
		n = len(b.PauseNs)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(b.PauseNs[(int(b.NumGC)-1-i+len(b.PauseNs))%len(b.PauseNs)])/1e6)
	}
	return out
}
