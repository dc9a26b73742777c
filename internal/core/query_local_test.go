package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hyperm/internal/dataset"
	"hyperm/internal/store"
	"hyperm/internal/vec"
)

// localRangeReference is the frozen full-distance scan LocalRange replaced:
// every row's complete vec.Dist2 against eps². Test oracle only.
func localRangeReference(q []float64, eps float64, st *store.Store) []int {
	var out []int
	eps2 := eps * eps
	for i, n := 0, st.Len(); i < n; i++ {
		if vec.Dist2(q, st.Vec(i)) <= eps2 {
			out = append(out, st.ID(i))
		}
	}
	return out
}

// localKNNReference is the frozen sort-based scan LocalKNN replaced: one
// candidate per stored row, fully sorted by (dist², id), cut at k. Test
// oracle only.
func localKNNReference(q []float64, k int, st *store.Store) []ItemDist {
	if k <= 0 || st.Len() == 0 {
		return nil
	}
	cands := make([]ItemDist, st.Len())
	for i := range cands {
		cands[i] = ItemDist{ID: st.ID(i), Dist2: vec.Dist2(q, st.Vec(i))}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Dist2 != cands[j].Dist2 {
			return cands[i].Dist2 < cands[j].Dist2
		}
		return cands[i].ID < cands[j].ID
	})
	if k > len(cands) {
		k = len(cands)
	}
	return cands[:k]
}

// sameKNN reports the first difference between two kNN answers, comparing
// distances by their bits; "" when they are identical.
func sameKNN(got, want []ItemDist) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("got %d items (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist2) != math.Float64bits(want[i].Dist2) {
			return fmt.Sprintf("slot %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// sameIDs reports the first difference between two range answers.
func sameIDs(got, want []int) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("got %d ids (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("slot %d: got id %d, want %d", i, got[i], want[i])
		}
	}
	return ""
}

// checkScans runs both scans and their references on one query and reports
// every divergence. ks and epss are the k and eps values to try.
func checkScans(t *testing.T, name string, st *store.Store, q []float64, ks []int, epss []float64) {
	t.Helper()
	for _, k := range ks {
		if d := sameKNN(LocalKNN(q, k, st), localKNNReference(q, k, st)); d != "" {
			t.Fatalf("%s: LocalKNN k=%d: %s", name, k, d)
		}
	}
	for _, eps := range epss {
		if d := sameIDs(LocalRange(q, eps, st), localRangeReference(q, eps, st)); d != "" {
			t.Fatalf("%s: LocalRange eps=%v: %s", name, eps, d)
		}
	}
}

// kSweep is every k the differential tests try on an n-row store: 0, 1,
// n-1, n, n+1 and far beyond, plus a mid value.
func kSweep(n int) []int {
	return []int{-1, 0, 1, 2, 10, n / 2, n - 1, n, n + 1, 4 * n, 1 << 40}
}

// epsSweep is the radii the differential tests try for q: zero, and the
// exact distance to several stored rows — the boundary where a capped
// partial sum meets eps² — and a radius covering everything.
func epsSweep(q []float64, st *store.Store) []float64 {
	out := []float64{0, 1e-300, math.MaxFloat64}
	for i := 0; i < st.Len(); i += 1 + st.Len()/7 {
		d := math.Sqrt(vec.Dist2(q, st.Vec(i)))
		out = append(out, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
	}
	return out
}

// TestLocalScansMatchReference is the differential test: LocalKNN and
// LocalRange against the frozen references, bit for bit, over stores built
// to hit every edge of the bounded heap and the capped distances.
func TestLocalScansMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grid := func(dim int) []float64 { // small integer coordinates: many exact ties
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(3))
		}
		return v
	}
	gauss := func(dim int) []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	for _, tc := range []struct {
		name string
		dim  int
		rows int
		gen  func(int) []float64
		// dupEvery > 0 repeats every dupEvery-th row's vector under a new id.
		dupEvery int
	}{
		{"empty", 8, 0, gauss, 0},
		{"one row", 3, 1, gauss, 0},
		{"ties dim 1", 1, 60, grid, 0},
		{"ties dim 5", 5, 300, grid, 0},
		{"ties dim 16", 16, 500, grid, 0},
		{"duplicates", 32, 400, gauss, 2},
		{"two blocks", 32, store.BlockRows + 37, gauss, 5},
		{"three blocks ties", 9, 2*store.BlockRows + 5, grid, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := store.New(tc.dim)
			var last []float64
			for i := 0; i < tc.rows; i++ {
				v := tc.gen(tc.dim)
				if tc.dupEvery > 0 && i%tc.dupEvery == 1 {
					v = last
				}
				last = v
				// Ids descend against storage order so the id tie-break,
				// not the scan order, decides equal distances.
				st.Append(10*(tc.rows-i)+rng.Intn(3), v)
			}
			queries := [][]float64{tc.gen(tc.dim), make([]float64, tc.dim)}
			if st.Len() > 0 {
				queries = append(queries, vec.Clone(st.Vec(st.Len()/2)), vec.Clone(st.Vec(st.Len()-1)))
			}
			for qi, q := range queries {
				checkScans(t, fmt.Sprintf("query %d", qi), st, q, kSweep(st.Len()), epsSweep(q, st))
			}
		})
	}
}

// markovStore builds the scan workload's store shape: rows of a Markov
// corpus at dim 32 (the paper's §5.1 generator), ids in a shuffled order.
func markovStore(rows int, seed int64) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	data := dataset.Markov(dataset.MarkovConfig{N: rows, Dim: 32}, rng)
	ids := rng.Perm(rows)
	return store.FromRows(32, ids, data)
}

// scanQueries draws n query centers the way the benchmark does: a stored
// row, every other one nudged off the row so no distance is exactly zero.
func scanQueries(st *store.Store, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	qs := make([][]float64, n)
	for i := range qs {
		q := vec.Clone(st.Vec(rng.Intn(st.Len())))
		if i%2 == 1 {
			for j := range q {
				q[j] += rng.NormFloat64()
			}
		}
		qs[i] = q
	}
	return qs
}

// rangeEps returns the radius reaching q's m-th nearest row, as the
// benchmark's range queries do.
func rangeEps(q []float64, st *store.Store, m int) float64 {
	nn := localKNNReference(q, m, st)
	return math.Sqrt(nn[len(nn)-1].Dist2)
}

func TestLocalScansMatchReferenceScanShape(t *testing.T) {
	rows := 3*store.BlockRows + 100
	if testing.Short() {
		rows = store.BlockRows + 100
	}
	st := markovStore(rows, 7)
	for qi, q := range scanQueries(st, 24, 8) {
		epss := []float64{rangeEps(q, st, 20), rangeEps(q, st, 60)}
		checkScans(t, fmt.Sprintf("query %d", qi), st, q, []int{1, 3, 10, 100}, epss)
	}
}

// FuzzLocalScans builds a small store from the fuzz bytes and checks both
// scans against the references on finite input. Narrow mode reads one byte
// per coordinate (a coarse grid, so distances tie often); wide mode reads
// eight, reinterpreted as a float64 with non-finite values zeroed, so huge
// coordinates overflow distances to +Inf and tie there.
func FuzzLocalScans(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2), int64(3), uint16(40), false)
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(3), int64(2), uint16(0), false)
	f.Add(make([]byte, 200), uint8(8), int64(5), uint16(1), false)
	f.Add([]byte{0x7f, 0xe0, 0, 0, 0, 0, 0, 1, 0xff, 0xe0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), int64(2), uint16(9), true)
	f.Fuzz(func(t *testing.T, data []byte, dimSeed uint8, k int64, epsSeed uint16, wide bool) {
		dim := 1 + int(dimSeed%17)
		width := 1
		if wide {
			width = 8
		}
		coord := func(b []byte) float64 {
			if !wide {
				return float64(int8(b[0])) / 4
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(b))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		row := dim*width + 1 // coordinates, then one id byte
		if len(data) < row {
			return
		}
		q := make([]float64, dim)
		for j := range q {
			q[j] = coord(data[j*width:])
		}
		st := store.New(dim)
		for off := row; off+row <= len(data) && st.Len() < 4096; off += row {
			v := make([]float64, dim)
			for j := range v {
				v[j] = coord(data[off+j*width:])
			}
			st.Append(int(data[off+row-1]), v) // ids repeat: duplicates too
		}
		eps := float64(epsSeed) / 64
		epss := append([]float64{eps}, epsSweep(q, st)...)
		checkScans(t, "fuzz", st, q, append(kSweep(st.Len()), int(k)), epss)
	})
}

// Allocation fences for the phase-two scans. LocalKNN allocates its result
// and nothing else — O(k), independent of the store size, and never more
// than the store holds however large k is. LocalRange allocates only while
// growing its output slice. A regression (per-row candidates, a sort
// closure, an allocation sized by k) fails here instead of showing up as
// heap churn in the scan benchmark.

func TestLocalKNNAllocFence(t *testing.T) {
	for _, rows := range []int{50, 2000, 2 * store.BlockRows} {
		st := markovStore(rows, 3)
		q := scanQueries(st, 1, 4)[0]
		for _, k := range []int{1, 10, rows, 1 << 40} {
			want := k
			if want > rows {
				want = rows
			}
			var got []ItemDist
			allocs := testing.AllocsPerRun(20, func() { got = LocalKNN(q, k, st) })
			if allocs > 1 {
				t.Errorf("LocalKNN rows=%d k=%d: %.0f allocs, want 1 (the result)", rows, k, allocs)
			}
			if len(got) != want || cap(got) != want {
				t.Errorf("LocalKNN rows=%d k=%d: result len %d cap %d, want both %d", rows, k, len(got), cap(got), want)
			}
		}
	}
}

func TestLocalRangeAllocFence(t *testing.T) {
	st := markovStore(2000, 5)
	q := scanQueries(st, 1, 6)[0]
	for _, m := range []int{1, 20, 60, 500} {
		eps := rangeEps(q, st, m)
		hits := len(LocalRange(q, eps, st))
		// The allocations of growing a slice to hits elements by append.
		var grown []int
		growths := 0
		for i := 0; i < hits; i++ {
			c := cap(grown)
			if grown = append(grown, i); cap(grown) != c {
				growths++
			}
		}
		allocs := testing.AllocsPerRun(20, func() { LocalRange(q, eps, st) })
		if allocs > float64(growths) {
			t.Errorf("LocalRange with %d hits: %.0f allocs, want <= %d (output growth)", hits, allocs, growths)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { LocalRange(q, 0, store.New(32)) }); allocs != 0 {
		t.Errorf("LocalRange on an empty store: %.0f allocs, want 0", allocs)
	}
}

// The store-scan layer's benchmarks, at the store sizes of the benchmark's
// lookup (40 rows), ingest (2,000) and scan (50,000) workloads, dim 32.
// Each size runs the scan and its frozen reference, so one run shows the
// before/after pair. `make bench-scan` runs them with -benchmem.

var scanBenchRows = []int{40, 2000, 50000}

// Package-level sinks keep the compiler from dropping the measured calls.
var (
	knnSink   []ItemDist
	rangeSink []int
)

func BenchmarkLocalKNN(b *testing.B) {
	const k = 10
	for _, rows := range scanBenchRows {
		st := markovStore(rows, 1)
		qs := scanQueries(st, 64, 2)
		for _, impl := range []struct {
			name string
			fn   func([]float64, int, *store.Store) []ItemDist
		}{{"heap", LocalKNN}, {"reference", localKNNReference}} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					knnSink = impl.fn(qs[i%len(qs)], k, st)
				}
			})
		}
	}
}

func BenchmarkLocalRange(b *testing.B) {
	for _, rows := range scanBenchRows {
		st := markovStore(rows, 1)
		qs := scanQueries(st, 64, 2)
		epss := make([]float64, len(qs))
		for i, q := range qs {
			epss[i] = rangeEps(q, st, min(40, rows))
		}
		for _, impl := range []struct {
			name string
			fn   func([]float64, float64, *store.Store) []int
		}{{"capped", LocalRange}, {"reference", localRangeReference}} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rangeSink = impl.fn(qs[i%len(qs)], epss[i%len(qs)], st)
				}
			})
		}
	}
}
