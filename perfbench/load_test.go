package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// Latency is timed from each op's due time, so ops queued behind a slow one
// carry its delay, and a queue that keeps growing is flagged — while the
// dispatcher itself stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const work = 20 * time.Millisecond
	var issued atomic.Int64
	st := openLoop(200, 300*time.Millisecond, 1,
		func(int64) int { return 0 }, // one queue: ops run one at a time
		func(int64) (opKind, error) {
			issued.Add(1)
			time.Sleep(work)
			return opRange, nil
		})
	n := len(st.samples)
	if n < 20 || int64(n) != issued.Load() || len(st.lags) != n {
		t.Fatalf("%d samples, %d issued, %d lags; want one of each per dispatched op (~60)", n, issued.Load(), len(st.lags))
	}
	// The k-th op to finish waited for k-1 before it: its latency from the
	// due time is at least the queue it found, not just its own work.
	var worst time.Duration
	for _, s := range st.samples {
		worst = max(worst, s.lat)
	}
	if min := time.Duration(n/2) * work; worst < min {
		t.Errorf("worst latency %v with %d ops queued on %v of work each; want >= %v", worst, n, work, min)
	}
	if !st.growing {
		t.Error("a queue served at a tenth of its arrival rate was not flagged as a growing backlog")
	}
	if st.outstanding == 0 {
		t.Error("no ops outstanding when the window closed, but the queue was far behind")
	}
	lag, err := percentile(durationsMs(st.lags), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lag.Value > 5 {
		t.Errorf("median dispatcher lag %.2f ms: the dispatcher must not wait for completions", lag.Value)
	}
}

func TestOpenLoopKeepsUpWhenIdle(t *testing.T) {
	st := openLoop(500, 200*time.Millisecond, 2, func(int64) int { return -1 },
		func(int64) (opKind, error) { return opKNN, nil })
	if st.growing || st.outstanding > 2 {
		t.Errorf("instant ops flagged: growing=%v outstanding=%d", st.growing, st.outstanding)
	}
	if n := len(st.samples); n < 50 || n > 200 {
		t.Errorf("%d ops in 200ms at 500/s, want about 100", n)
	}
}

func TestBacklogGrew(t *testing.T) {
	for _, c := range []struct {
		inflight []int64
		want     bool
	}{
		{[]int64{1, 2, 1, 2, 1, 2, 2, 1}, false},
		{[]int64{0, 1, 2, 3, 10, 20, 30, 40}, true},
		{[]int64{3}, false},
	} {
		if got := backlogGrew(c.inflight); got != c.want {
			t.Errorf("backlogGrew(%v) = %v, want %v", c.inflight, got, c.want)
		}
	}
}

func TestClosedLoopCountsEveryOp(t *testing.T) {
	var seen [2]atomic.Int64
	ss, el := closedLoop(2, func(n int64) bool { return n < 100 }, func(c int, n int64) (opKind, error) {
		seen[c].Add(1)
		return opRange, nil
	})
	if len(ss) != 100 || seen[0].Load()+seen[1].Load() != 100 || el <= 0 {
		t.Fatalf("%d samples, %d+%d issued, elapsed %v; want 100", len(ss), seen[0].Load(), seen[1].Load(), el)
	}
}

func TestLoadCapsRefuseMoreThanNproc(t *testing.T) {
	if err := loadCaps(2, 2, 2); err != nil {
		t.Errorf("2 clients, 2 entries on 2 CPUs: %v", err)
	}
	if loadCaps(3, 2, 2) == nil || loadCaps(2, 3, 2) == nil {
		t.Error("more clients or entry nodes than CPUs was not refused")
	}
}
