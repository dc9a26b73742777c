package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"hyperm/internal/core"
	"hyperm/internal/vec"
)

// Canonical encodings of query results: every field, floats by bit pattern,
// so two results compare equal exactly when they are byte-identical. Empty
// and nil slices encode alike (the wire codec does not keep the difference).

func putInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func putScores(b []byte, ss []core.PeerScore) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = binary.AppendVarint(b, int64(s.Peer))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.Score))
	}
	return b
}

func canonRange(r core.RangeResult) []byte {
	b := putInts(nil, r.Items)
	b = putScores(b, r.Scores)
	b = binary.AppendVarint(b, int64(r.PeersContacted))
	return binary.AppendVarint(b, int64(r.OverlayHops))
}

func canonKNN(r core.KNNResult) []byte {
	b := putInts(nil, r.Items)
	b = putScores(b, r.Scores)
	b = binary.AppendUvarint(b, uint64(len(r.EpsPerLevel)))
	for _, e := range r.EpsPerLevel {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e))
	}
	b = binary.AppendVarint(b, int64(r.PeersContacted))
	return binary.AppendVarint(b, int64(r.OverlayHops))
}

// checkRange is the cheap invariant of a range answer: every item exists and
// lies within eps of q by true distance (the nodes' own LocalRange test).
func checkRange(byID map[int][]float64, q []float64, eps float64, items []int) error {
	eps2 := eps * eps
	for _, id := range items {
		v, ok := byID[id]
		if !ok {
			return fmt.Errorf("range answer holds unknown item %d", id)
		}
		if d := vec.Dist2(q, v); d > eps2 {
			return fmt.Errorf("range answer item %d at distance %g > eps %g", id, math.Sqrt(d), eps)
		}
	}
	return nil
}

// checkKNN is the cheap invariant of a kNN answer: known items in strictly
// ascending (distance, id) order.
func checkKNN(byID map[int][]float64, q []float64, items []int) error {
	prevD, prevID := -1.0, 0
	for i, id := range items {
		v, ok := byID[id]
		if !ok {
			return fmt.Errorf("knn answer holds unknown item %d", id)
		}
		d := vec.Dist2(q, v)
		if i > 0 && (d < prevD || (d == prevD && id <= prevID)) {
			return fmt.Errorf("knn answer out of (distance, id) order at position %d", i)
		}
		prevD, prevID = d, id
	}
	return nil
}

// liveSet is the brute-force view of the live corpus.
type liveSet struct {
	ids  []int
	vecs [][]float64
}

func (l liveSet) rangeIDs(q []float64, eps float64) map[int]bool {
	eps2 := eps * eps
	out := map[int]bool{}
	for i, v := range l.vecs {
		if vec.Dist2(q, v) <= eps2 {
			out[l.ids[i]] = true
		}
	}
	return out
}

func (l liveSet) knnIDs(q []float64, k int) map[int]bool {
	type cand struct {
		id int
		d  float64
	}
	less := func(a, b cand) bool { return a.d < b.d || (a.d == b.d && a.id < b.id) }
	best := make([]cand, 0, k+1) // ascending (distance, id)
	for i, v := range l.vecs {
		c := cand{l.ids[i], vec.Dist2(q, v)}
		if len(best) == k && !less(c, best[k-1]) {
			continue
		}
		best = append(best, c)
		for j := len(best) - 1; j > 0 && less(best[j], best[j-1]); j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make(map[int]bool, len(best))
	for _, c := range best {
		out[c.id] = true
	}
	return out
}

// recall is the share of truth found in got.
func recall(got []int, truth map[int]bool) float64 {
	if len(truth) == 0 {
		return 1
	}
	hit := 0
	for _, id := range got {
		if truth[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
