package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	got, err := percentile(seq(2000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 1980 || got.P != 0.99 || got.N != 2000 {
		t.Fatalf("p99 of 1..2000 = %+v, want value 1980 at p 0.99", got)
	}
	med, err := percentile(seq(5), 0.5)
	if err != nil || med.Value != 3 {
		t.Fatalf("median of 1..5 = %+v, %v; want 3", med, err)
	}
}

// A tail percentile keeps at least minBeyond samples above it: with 200
// samples p99 would have 2 beyond it, so the helper reports p95 instead and
// says so.
func TestPercentileKeepsTenBeyond(t *testing.T) {
	got, err := percentile(seq(200), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 190 || got.P != 0.95 {
		t.Fatalf("p99 of 1..200 = %+v, want value 190 reported as p95", got)
	}
	for _, n := range []int{11, 57, 999, 1000, 1001} {
		got, err := percentile(seq(n), 0.99)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := n - int(got.Value)
		if beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported p%.2f, want >= %d", n, beyond, 100*got.P, minBeyond)
		}
	}
	if _, err := percentile(seq(10), 0.99); err == nil {
		t.Fatal("p99 of 10 samples: want an error, none can have ten beyond it")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("median of no samples: want an error")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25}, // quantiles(range(1,11), n=4)
		{[]float64{3, 1, 2}, 1, 2, 3},                               // quantiles([3,1,2], n=4)
		{[]float64{1, 2}, 0.75, 1.5, 2.25},                          // quantiles([1,2], n=4)
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},                 // quantiles([10,20,30,40,50], n=4)
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// roundTails takes the best round's p50 and p90 when every round is big
// enough, and pools the rounds otherwise.
func TestRoundTails(t *testing.T) {
	slow := make([]float64, 200)
	for i := range slow {
		slow[i] = 2 * float64(200-i)
	}
	p50, p90, _, err := roundTails([][]float64{slow, seq(200)})
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 100 || p90.Value != 180 || p90.N != 200 {
		t.Fatalf("big rounds: p50 %g, p90 %+v; want the fast round's 100 and 180", p50, p90)
	}
	p50, p90, _, err = roundTails([][]float64{seq(50), seq(50), seq(50)})
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 25 || p90.Value != 45 || p90.N != 150 {
		t.Fatalf("small rounds: p50 %g, p90 %+v; want 25 and 45 over the 150 pooled samples", p50, p90)
	}
}
