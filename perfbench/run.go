package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"hyperm/internal/benchio"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp says what ran, on what, at what load; printed before the result.
type stamp struct {
	Env          benchio.Env `json:"env"`
	Workload     string      `json:"workload"`
	Why          string      `json:"why"`
	Seed         int64       `json:"seed"`
	Seconds      int         `json:"seconds"`
	Trace        bool        `json:"trace"`
	Transport    string      `json:"transport"`
	Peers        int         `json:"peers"`
	ItemsPerPeer int         `json:"items_per_peer"`
	EntryPeers   []int       `json:"entry_peers"`
	Clients      int         `json:"closed_loop_clients"`
	OfferedRate  float64     `json:"open_loop_ops_per_s"`
	ClosedOps    int64       `json:"closed_loop_ops_per_round"`
	ProbeRate    float64     `json:"probe_publishes_per_s,omitempty"`
	Rounds       int         `json:"rounds"`
}

// maxLagMs is the dispatcher lateness (p99) beyond which the open-loop
// latencies are not reported as valid.
const maxLagMs = 50

// loadCaps refuses a configuration whose load goroutines or entry nodes
// outnumber the CPUs: the generator must not out-compete the cluster it
// measures.
func loadCaps(clients, entries, nproc int) error {
	if clients > nproc || entries > nproc {
		return fmt.Errorf("load uses %d clients and %d entry nodes, more than nproc=%d", clients, entries, nproc)
	}
	return nil
}

// round is one repetition of the timed phases.
type round struct {
	open     openStats
	closed   []sample
	closedEl time.Duration
}

// phases is what the measured part of a run observed, for the end-to-end
// metrics and for the per-layer ones of a traced run.
type phases struct {
	setups      []setupTimes
	rounds      []round
	probe       openStats        // the publish probe of a read-only workload
	counters    counters         // node counter deltas over the open and closed phases
	calls       map[string]tally // node→node calls over the open and closed phases
	alloc       uint64           // bytes allocated during them
	pauses      []float64        // GC pauses (ms) during them
	heapPerItem float64
	inserts     []time.Duration // oracle StreamInsert durations
	deltas      int
	storeBytes  float64 // node item-store bytes per item
}

// measure runs one timed phase and adds its node counter, call, allocation
// and GC-pause deltas to p. It collects garbage first, so no phase pays for
// the untimed checks before it.
func (p *phases) measure(d *deployment, f func()) {
	runtime.GC()
	cc0, calls0 := clusterCounters(d.cl.Nodes), d.tr.snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	f()
	runtime.ReadMemStats(&ms1)
	for k, v := range clusterCounters(d.cl.Nodes).minus(cc0) {
		p.counters[k] += v
	}
	for k, t := range diffTallies(calls0, d.tr.snapshot()) {
		a := p.calls[k]
		p.calls[k] = tally{a.calls + t.calls, a.retries + t.retries, a.bytes + t.bytes}
	}
	p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	p.pauses = append(p.pauses, gcPauses(&ms0, &ms1)...)
}

// timedOps and timedWrites count the ops of the open and closed phases.
func (p *phases) timedOps() int {
	n := 0
	for _, rd := range p.rounds {
		n += len(rd.open.samples) + len(rd.closed)
	}
	return n
}

func (p *phases) timedWrites() int {
	n := 0
	for _, rd := range p.rounds {
		for _, ss := range [][]sample{rd.open.samples, rd.closed} {
			for _, s := range ss {
				if s.kind == opPublish {
					n++
				}
			}
		}
	}
	return n
}

// lags pools the dispatcher lateness of every open-loop phase.
func (p *phases) lags() []float64 {
	var out []float64
	for _, rd := range p.rounds {
		out = append(out, durationsMs(rd.open.lags)...)
	}
	return out
}

// runWorkload is one benchmark run: set-up, warm-up, rounds of the timed
// open- and closed-loop phases, the checks, and (traced) the serial traced
// sequence.
func runWorkload(w workload, seed int64, seconds int, trace bool, traceDir string) (result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	nEntries := min(nproc, w.peers)
	if err := loadCaps(nEntries, nEntries, nproc); err != nil {
		return result{}, err
	}
	p := phases{counters: counters{}, calls: map[string]tally{}}
	var d *deployment
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		// No set-up pays for collecting the garbage of the one before.
		runtime.GC()
		nd, times, err := deploy(w, nil)
		if err != nil {
			return result{}, err
		}
		d = nd
		p.setups = append(p.setups, times)
	}
	defer d.stop()
	entries, err := pickEntries(d.sys, nEntries)
	if err != nil {
		return result{}, err
	}

	// Of each round's share of the window, most goes to the open loop, whose
	// tail percentiles need the samples. The closed loop runs a fixed number
	// of ops, sized to take its share at three times the open-loop rate
	// (which is a fifth to two fifths of the closed-loop qps), so every
	// run applies the same writes whatever its speed: on the write workloads
	// the stores grow through the run, and a speed-dependent write count
	// would make each run measure a different state. A read-only workload
	// gives a tenth of the window to its publish probe, which runs once after
	// the last read round, so every read round is served by the same
	// deployment.
	readOnly := w.writeFrac == 0
	window := time.Duration(seconds) * time.Second / rounds
	openW, closedW, probeW := window*3/4, window/4, time.Duration(0)
	st := stamp{
		Env: benchio.CurrentEnv(), Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds, Trace: trace,
		Transport: "tcp-loopback", Peers: w.peers, ItemsPerPeer: w.items, EntryPeers: entries,
		Clients: nEntries, OfferedRate: w.openRate, Rounds: rounds,
	}
	if readOnly {
		openW, closedW, probeW = window*7/10, window*2/10, rounds*window/10
		st.ProbeRate = probeRate
	}
	closedOps := int64(3 * w.openRate * closedW.Seconds())
	st.ClosedOps = closedOps
	js, _ := json.Marshal(st) // plain struct: cannot fail
	fmt.Printf("stamp %s\n", js)

	r := newRunner(w, seed, entries, d)
	r.warmUp(nEntries)
	var rangeRecall, knnRecall float64
	verified, compared := 0, 0
	for i := 0; i < rounds; i++ {
		var rd round
		ob, cb := int64(openBase+i*roundSpan), int64(closedBase+i*roundSpan)
		p.measure(d, func() {
			rd.open = openLoop(w.openRate, openW, seed*rounds+int64(i),
				func(n int64) int {
					if o := r.opAt(ob + n); o.kind == opPublish {
						return o.entry
					}
					return -1
				},
				func(n int64) (opKind, error) { return r.issue(ob+n, r.opAt(ob+n), -1) })
		})
		if i == 0 {
			// Untimed: the first open loop's writes are a seeded, fixed set,
			// so recall is taken here, on a state that does not depend on
			// the machine's speed.
			_, c := r.checkAnswers()
			compared += c
			ins, deltas := r.replayWrites(nil)
			p.inserts, p.deltas = append(p.inserts, ins...), p.deltas+deltas
			var v int
			rangeRecall, knnRecall, v = r.recallOf(recallQueries)
			verified += v
		}
		p.measure(d, func() {
			rd.closed, rd.closedEl = closedLoop(nEntries, func(n int64) bool { return n < closedOps },
				func(c int, n int64) (opKind, error) { return r.issue(cb+n, r.opAt(cb+n), c) })
		})
		// Untimed: check this round's answers against the oracle state they
		// were served from, then bring the oracle up to date.
		_, c := r.checkAnswers()
		compared += c
		ins, deltas := r.replayWrites(nil)
		p.inserts, p.deltas = append(p.inserts, ins...), p.deltas+deltas
		p.rounds = append(p.rounds, rd)
	}

	// Untimed: the memory of the deployment the read rounds were served by.
	p.heapPerItem = heapBytesPerItem(d.cl.Nodes)
	storeBytes, items := 0, 0
	for _, nd := range d.cl.Nodes {
		storeBytes += nd.StoreHeapBytes()
		items += nd.ItemCount()
	}
	p.storeBytes = float64(storeBytes) / float64(items)
	if readOnly {
		// A plain publish appends to the holder's store and absorbs the item
		// into its fixed set of cluster summaries, so the probe's cost does
		// not grow with the items it adds.
		runtime.GC()
		p.probe = openLoop(probeRate, probeW, -seed,
			func(n int64) int { return r.probeOp(probeBase + n).entry },
			func(n int64) (opKind, error) { return r.issue(probeBase+n, r.probeOp(probeBase+n), -1) })
		r.replayWrites(nil)
	}

	// Everything below is outside the timed windows.
	verified += r.verify(finalQueries)
	if err := checkCounters(w.name, p.counters, p.calls); err != nil {
		return result{}, err
	}

	res := result{Attempted: w.warmOps + p.timedOps() + verified, Metrics: map[string]metric{}}
	valid := true
	lagP99, lagErr := percentile(p.lags(), 0.99)
	if lagErr != nil || lagP99.Value > maxLagMs {
		valid = false
		fmt.Fprintf(os.Stderr, "perfbench: open loop invalid: dispatcher lag p99 %.3f ms (%v)\n", lagP99.Value, lagErr)
	}
	res.Attempted += len(p.probe.samples)
	for i, rd := range p.rounds {
		if rd.open.growing {
			valid = false
			fmt.Fprintf(os.Stderr, "perfbench: open loop invalid: backlog grew in round %d (%d ops outstanding at close)\n",
				i, rd.open.outstanding)
		}
	}
	if p.probe.growing {
		valid = false
		fmt.Fprintf(os.Stderr, "perfbench: publish probe invalid: backlog grew (%d ops outstanding at close)\n", p.probe.outstanding)
	}
	fmt.Printf("checks: %d timed answers compared with the oracle, %d fixed queries answered for recall and checks, %d writes replayed\n",
		compared, verified, r.replayed)
	if trace {
		layer, traced, err := traceRun(w, seed, entries, &p, traceDir)
		if err != nil {
			return result{}, err
		}
		res.Attempted += traced.attempted
		r.failed += traced.failed
		res.Metrics = layer
	} else {
		e2e, err := endToEnd(w, &p, rangeRecall, knnRecall)
		if err != nil {
			return result{}, err
		}
		res.Metrics = e2e
	}
	res.Failed = r.failed
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
	}
	res.Correct = res.Failed == 0 && valid
	return res, nil
}

// tailQ is the tail percentile reported as *_p90_ms. A p99 of sub-millisecond
// ops reads 15 to 50% apart between runs on a shared 2-vCPU VM (host
// interference lands on about 1% of ops), wider than any regression bound
// could be; the p90 holds within a few percent.
const tailQ = 0.90

// minRoundSamples is the smallest round whose own percentiles are used: its
// p90 then has ten samples beyond it.
const minRoundSamples = 100

// roundTails reduces per-round latency samples to a p50 and a p90. When every
// round holds minRoundSamples, each is the best (lowest) of the rounds' own
// values: interference from other work on the machine only ever slows a
// round, so the best round is the steadiest reading of what the system itself
// does. Smaller rounds give percentiles too coarse to pick from, so they are
// pooled into one estimate. The p99 over all rounds is returned for the
// record.
func roundTails(perRound [][]float64) (p50 float64, p90, p99 tail, err error) {
	var pooled []float64
	each := true
	for _, xs := range perRound {
		pooled = append(pooled, xs...)
		each = each && len(xs) >= minRoundSamples
	}
	if !each {
		perRound = [][]float64{pooled}
	}
	p50 = math.Inf(1)
	p90 = tail{Value: math.Inf(1)}
	for _, xs := range perRound {
		m, err := percentile(xs, 0.5)
		if err != nil {
			return 0, tail{}, tail{}, err
		}
		t, err := percentile(xs, tailQ)
		if err != nil {
			return 0, tail{}, tail{}, err
		}
		p50 = min(p50, m.Value)
		if t.Value < p90.Value {
			p90 = t
		}
	}
	p99, err = percentile(pooled, 0.99)
	return p50, p90, p99, err
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// latencies returns the successful samples of one kind, in ms.
func latencies(ss []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range ss {
		if s.kind == kind && s.err == nil {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func successes(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err == nil {
			n++
		}
	}
	return n
}

// endToEnd derives the user-visible metrics of a measured run. qps is the
// best round's, latencies are reduced over the rounds by roundTails, and
// setup_s is the median set-up.
func endToEnd(w workload, p *phases, rangeRecall, knnRecall float64) (map[string]metric, error) {
	m := map[string]metric{}
	var setup, qps []float64
	for _, s := range p.setups {
		setup = append(setup, s.total().Seconds())
	}
	m["setup_s"] = metric{median(setup), "s"}
	best := 0.0
	for _, rd := range p.rounds {
		q := float64(successes(rd.closed)) / rd.closedEl.Seconds()
		qps, best = append(qps, q), max(best, q)
	}
	m["qps"] = metric{best, "ops/s"}
	fmt.Printf("qps by round: %.1f\n", qps)
	for _, kind := range []opKind{opRange, opKNN, opPublish} {
		var perRound [][]float64
		for _, rd := range p.rounds {
			perRound = append(perRound, latencies(rd.open.samples, kind))
		}
		if kind == opPublish && w.writeFrac == 0 {
			perRound = [][]float64{latencies(p.probe.samples, kind)}
		}
		p50, p90, p99, err := roundTails(perRound)
		if err != nil {
			return nil, fmt.Errorf("%s latency: %w", kind, err)
		}
		m[kind.String()+"_p50_ms"] = metric{p50, "ms"}
		m[kind.String()+"_p90_ms"] = metric{p90.Value, "ms"}
		fmt.Printf("latency %-8s p50 %.3f ms, p%.1f %.3f ms (of %d samples; see roundTails); all rounds: p%.2f %.3f ms (%d samples)\n",
			kind, p50, 100*p90.P, p90.Value, p90.N, 100*p99.P, p99.Value, p99.N)
	}
	all := sumTallies(p.calls)
	ops := float64(p.timedOps())
	m["rpcs_per_op"] = metric{float64(all.calls) / ops, "count"}
	m["wire_kib_per_op"] = metric{float64(all.bytes) / 1024 / ops, "KiB"}
	m["heap_bytes_per_item"] = metric{p.heapPerItem, "B"}
	m["range_recall"] = metric{rangeRecall, "fraction"}
	m["knn_recall"] = metric{knnRecall, "fraction"}
	return m, nil
}
