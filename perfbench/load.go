package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed op: its kind, its latency and its error.
type sample struct {
	kind opKind
	lat  time.Duration
	err  error
}

// openStats is the outcome of one open-loop phase.
type openStats struct {
	samples []sample        // in dispatch order; latency from the due time
	lags    []time.Duration // how late the dispatcher sent each op
	// outstanding counts the ops still in flight when the window closed.
	outstanding int
	// growing reports a backlog that grew over the window: the mean number of
	// ops in flight at dispatch in the second half of the window exceeded
	// twice that of the first half plus four.
	growing bool
}

// openLoop runs one open-loop phase: a single dispatcher goroutine sends op
// n at its due time on a seeded schedule of the given mean rate, for as long
// as due times fall inside window, and never waits for completions. Gaps are
// drawn uniformly between half and one and a half mean gaps: jittered like
// independent arrivals, without the long bursts of a Poisson draw, so a
// run's tail latency measures the system rather than the draw.
// Each op's latency is timed from its due time, so a stall delays the
// measured latency of every op scheduled behind it. chain(n) >= 0 names a
// queue whose ops run one at a time in dispatch order (a holder's writes);
// -1 runs the op at once. The phase returns when every op has completed.
func openLoop(rate float64, window time.Duration, seed int64, chain func(n int64) int, issue func(n int64) (opKind, error)) openStats {
	rng := rand.New(rand.NewSource(seed))
	var st openStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	var inflight atomic.Int64
	last := map[int]chan struct{}{}
	var inflightAt []int64
	start := time.Now()
	due := start
	for n := int64(0); ; n++ {
		due = due.Add(time.Duration((0.5 + rng.Float64()) / rate * float64(time.Second)))
		if due.Sub(start) > window {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.lags = append(st.lags, time.Since(due))
		inflightAt = append(inflightAt, inflight.Load())
		var wait chan struct{}
		var done chan struct{}
		if k := chain(n); k >= 0 {
			wait, done = last[k], make(chan struct{})
			last[k] = done
		}
		inflight.Add(1)
		wg.Add(1)
		go func(n int64, due time.Time) {
			defer wg.Done()
			if wait != nil {
				<-wait
			}
			kind, err := issue(n)
			lat := time.Since(due)
			inflight.Add(-1)
			if done != nil {
				close(done)
			}
			mu.Lock()
			st.samples = append(st.samples, sample{kind: kind, lat: lat, err: err})
			mu.Unlock()
		}(n, due)
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}
	st.outstanding = int(inflight.Load())
	wg.Wait()
	st.growing = backlogGrew(inflightAt)
	return st
}

// backlogGrew compares the mean in-flight count of the second half of a
// phase's dispatches with the first half's.
func backlogGrew(inflightAt []int64) bool {
	h := len(inflightAt) / 2
	if h == 0 {
		return false
	}
	avg := func(xs []int64) float64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return avg(inflightAt[h:]) > 2*avg(inflightAt[:h])+4
}

// closedLoop runs clients goroutines that each issue one op after another,
// claiming op numbers from a shared counter while more(n) holds. It returns
// every completed op and the time until the last one finished.
func closedLoop(clients int, more func(n int64) bool, issue func(client int, n int64) (opKind, error)) ([]sample, time.Duration) {
	var next atomic.Int64
	out := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if !more(n) {
					return
				}
				t0 := time.Now()
				kind, err := issue(c, n)
				out[c] = append(out[c], sample{kind: kind, lat: time.Since(t0), err: err})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, elapsed
}
