package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 over fewer than ~1000 samples is one or two outliers, not a tail.
const minBeyond = 10

// tail is one reported percentile of a sample: the value, the percentile
// actually used (lowered when the sample is too small for the one asked
// for) and the sample count, so every printed tail names its base.
type tail struct {
	Value float64 `json:"value"`
	P     float64 `json:"p"`
	N     int     `json:"n"`
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs,
// lowered if needed so that at least minBeyond samples lie above it. The
// median (p = 0.5) needs no samples beyond it and is always nearest-rank.
// It returns an error when the sample is too small for any such percentile.
func percentile(xs []float64, p float64) (tail, error) {
	n := len(xs)
	if n == 0 {
		return tail{}, fmt.Errorf("percentile of an empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if p > 0.5 {
		if n < minBeyond+1 {
			return tail{}, fmt.Errorf("p%g needs more than %d samples, have %d", 100*p, minBeyond, n)
		}
		if lim := n - 1 - minBeyond; i > lim {
			i = lim
		}
	}
	return tail{Value: s[i], P: float64(i+1) / float64(n), N: n}, nil
}

// median is the plain middle value (mean of the two middle ones for an even
// count); for summaries of whole runs, not latency tails.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the steadiness report reads the same as an external check of the runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
