package core

import (
	"math"

	"hyperm/internal/store"
	"hyperm/internal/vec"
	"hyperm/internal/wavelet"
)

// LocalRange is the second query phase on a contacted peer: an exact scan of
// its flat item store, returning the ids of every item within eps of q in
// storage order. Exported so serving nodes (internal/node) answer fetch RPCs
// with the exact same rule as the in-process simulation.
//
// Each row's distance exits early once its partial sum passes eps²: the
// bound is the next float above eps², and vec.Dist2Capped is bit-identical to
// vec.Dist2 below its bound, so membership is decided exactly as
// vec.Dist2(q, x) <= eps² would decide it. q and eps must be finite (nodes
// reject anything else at the wire).
func LocalRange(q []float64, eps float64, st *store.Store) []int {
	var out []int
	eps2 := eps * eps
	bound := math.Nextafter(eps2, math.Inf(1))
	for i, n := 0, st.Len(); i < n; i++ {
		if vec.Dist2Capped(q, st.Vec(i), bound) <= eps2 {
			out = append(out, st.ID(i))
		}
	}
	return out
}

// LocalKNN returns the k locally stored items closest to q with their squared
// distances, ordered by ascending distance (ties by ascending id). Exported
// for serving nodes, like LocalRange. q must be finite.
//
// The scan keeps a bounded max-heap of the k best rows so far, keyed on
// (dist², id), and allocates only the min(k, st.Len()) result. Once the heap
// is full a row is scored with vec.Dist2Capped against the heap's worst
// distance: a result above it cannot enter; a result below it is the exact
// distance (bit-identical to vec.Dist2); a result equal to it may be a
// partial sum that merely reached the bound, so the full distance is
// recomputed before the id tie-break.
func LocalKNN(q []float64, k int, st *store.Store) []ItemDist {
	n := st.Len()
	if k <= 0 || n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	h := make([]ItemDist, k)
	for i := range h {
		h[i] = ItemDist{ID: st.ID(i), Dist2: vec.Dist2(q, st.Vec(i))}
	}
	for i := k/2 - 1; i >= 0; i-- {
		heapDown(h, i)
	}
	for i := k; i < n; i++ {
		x := st.Vec(i)
		worst := h[0].Dist2
		d := vec.Dist2Capped(q, x, worst)
		if d > worst {
			continue
		}
		id := st.ID(i)
		if d == worst {
			if d = vec.Dist2(q, x); d > worst || id >= h[0].ID {
				continue
			}
		}
		h[0] = ItemDist{ID: id, Dist2: d}
		heapDown(h, 0)
	}
	// Heap sort in place: repeatedly move the worst survivor to the end.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		heapDown(h[:end], 0)
	}
	return h
}

// ranksAfter reports whether a orders after b by (dist², id).
func ranksAfter(a, b ItemDist) bool {
	if a.Dist2 != b.Dist2 {
		return a.Dist2 > b.Dist2
	}
	return a.ID > b.ID
}

// heapDown sifts h[i] down until no child ranks after it, restoring the
// max-heap order (worst at the root) of the subtree at i.
func heapDown(h []ItemDist, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && ranksAfter(h[r], h[c]) {
			c = r
		}
		if !ranksAfter(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// AbsorbInsert applies the local bookkeeping of a post-creation insert to a
// peer's published summaries: at every level the item joins the nearest
// published cluster, whose local Items count is bumped (the overlay copy
// stays stale — exactly the Fig 10c degradation). Exported so serving nodes
// apply the same rule to their snapshot when handling Publish RPCs.
func AbsorbInsert(published [][]ClusterRef, item []float64, conv wavelet.Convention) {
	if published == nil {
		return
	}
	dec := wavelet.Decompose(item, conv)
	for l := range published {
		refs := published[l]
		if len(refs) == 0 {
			continue
		}
		coeff := dec.Subspace(l)
		best, bestD := 0, -1.0
		for i, ref := range refs {
			d := vec.Dist(coeff, ref.Center)
			if bestD < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		refs[best].Items++ // local bookkeeping; the published copy is stale
	}
}
