package main

import (
	"fmt"
	"math"
	"math/rand"

	"hyperm/internal/core"
	"hyperm/internal/node"
	"hyperm/internal/vec"
)

// Shape shared by every workload (the paper's §5.1 corpus, scaled down).
const (
	dim             = 32
	levels          = 3
	clustersPerPeer = 4
	knnK            = 10
	// Range radii are the distance from the query center to its m-th nearest
	// item, m drawn from [minRangeHits, maxRangeHits]: every true answer
	// holds tens of items, so scans, not result encoding, are the work.
	minRangeHits = 20
	maxRangeHits = 60
	// writeIDBase puts published ids above every corpus id.
	writeIDBase = 1 << 30
	// seqLen is the length of the pregenerated op sequence; op i uses
	// seq[i%seqLen] (distinct workloads still get distinct queries, see
	// readQuery).
	seqLen = 1 << 16
)

// workload is one named traffic mix against one deployment shape.
type workload struct {
	name string
	why  string
	// Deployment: peers × items per peer, and the node tuning.
	peers, items int
	tuning       node.Tuning
	// skewed: reads draw Zipf(s=1.5) over the query pool with 50%
	// repeat-previous, each query hashed to one entry coordinator. Otherwise
	// every read is a distinct query at a seeded entry.
	skewed bool
	// writeFrac is the share of ops that publish a new item; 0 makes the
	// workload read-only, its publish latency then measured by a probe after
	// the read phases.
	writeFrac float64
	// openRate is the offered rate (ops/s) of the open-loop phase, fixed at
	// a fifth to two fifths of the closed-loop qps measured on a 2-vCPU
	// x86-64 VM: at half, a slow stretch of the shared machine tipped the
	// queue into tails that no longer measured the system.
	openRate float64
	// poolSize is the number of base queries; warmOps the untimed warm-up
	// ops; traceOps the length of the traced serial sequence.
	poolSize, warmOps, traceOps int
}

var workloads = []workload{
	{
		name: "lookup", peers: 64, items: 40,
		why:      "64 peers x 40 items, caches off, distinct reads (50/50 range/kNN): overlay routing, transport and wire codecs do the work; about 70 can_search RPCs per query",
		openRate: 300, poolSize: 256, warmOps: 200, traceOps: 500,
	},
	{
		name: "scan", peers: 4, items: 50000,
		why:      "4 peers x 50,000 items, caches off, distinct reads: phase-two LocalRange/LocalKNN scans over big stores dominate; the corpus exceeds every cache",
		openRate: 50, poolSize: 512, warmOps: 20, traceOps: 60,
	},
	{
		name: "ingest", peers: 16, items: 2000,
		tuning: node.Tuning{CacheViews: true, StreamPublish: true, ReclusterEvery: 500},
		why:    "16 x 2,000, streaming publish + view cache: 20% streamed writes beside Zipf(1.5) reads exercise store appends, the stream kernel, store_rec floods, revalidation, fetch memos",
		skewed: true, writeFrac: 0.20,
		openRate: 1200, poolSize: 256, warmOps: 1000, traceOps: 3000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opRange opKind = iota
	opKNN
	opPublish
)

var opNames = [...]string{"range", "knn", "publish"}

func (k opKind) String() string { return opNames[k] }

// corpus is every stored item in peer order, plus an id index.
type corpus struct {
	ids  []int
	vecs [][]float64
	byID map[int][]float64
}

func corpusOf(sys *core.System) corpus {
	c := corpus{byID: make(map[int][]float64, sys.TotalItems())}
	for p := 0; p < sys.Config().Peers; p++ {
		ids, items := sys.PeerData(p)
		for i, id := range ids {
			c.ids = append(c.ids, id)
			c.vecs = append(c.vecs, items[i])
			c.byID[id] = items[i]
		}
	}
	return c
}

// query is one base query of the pool.
type query struct {
	kind   opKind // opRange or opKNN
	center []float64
	eps    float64 // range radius; unused for kNN
}

// buildPool draws n base queries, alternating range and kNN, centered on
// seeded corpus items. A range radius reaches the center's m-th nearest item.
func buildPool(c corpus, n int, rng *rand.Rand) []query {
	pool := make([]query, n)
	for i := range pool {
		center := c.vecs[rng.Intn(len(c.vecs))]
		q := query{kind: opKind(i % 2), center: center}
		if q.kind == opRange {
			m := minRangeHits + rng.Intn(maxRangeHits-minRangeHits+1)
			q.eps = math.Sqrt(mthSmallestDist2(c.vecs, center, m))
		}
		pool[i] = q
	}
	return pool
}

// mthSmallestDist2 is the m-th smallest squared distance from q to xs.
func mthSmallestDist2(xs [][]float64, q []float64, m int) float64 {
	best := make([]float64, 0, m) // ascending
	for _, x := range xs {
		d := 0.0
		if len(best) == m {
			// Stop summing once x is out of the running.
			bound := best[m-1]
			for j := range q {
				t := q[j] - x[j]
				if d += t * t; d >= bound {
					break
				}
			}
			if d >= bound {
				continue
			}
		} else {
			d = vec.Dist2(q, x)
		}
		if len(best) < m {
			best = append(best, d)
		} else {
			best[m-1] = d
		}
		for j := len(best) - 1; j > 0 && best[j] < best[j-1]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best[len(best)-1]
}

// op is one entry of the seeded op sequence. For a read, q indexes the query
// pool and entry the coordinator; for a write, entry is the holder and q
// picks the holder's item the new item is drawn near.
type op struct {
	kind  opKind
	q     int
	entry int
}

// probeRate is the offered rate (publishes/s) of the publish probe that
// follows the read phases of a read-only workload.
const probeRate = 400

// genOps draws the workload's seeded op sequence over a pool of poolN
// queries and nEntries entry nodes. Writes are every 1/writeFrac-th op, so
// the write stream is as evenly paced as the arrivals. On a skewed workload
// the Zipf ranks map to a permutation of the pool drawn from deploySeed: the
// hot set is part of the deployment, and the seed varies only the order of
// reads, their repeats and the writes.
func genOps(w workload, seed int64, poolN, nEntries int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var zipf *rand.Zipf
	var perm []int
	if w.skewed {
		zipf = rand.NewZipf(rng, 1.5, 1, uint64(poolN-1))
		perm = rand.New(rand.NewSource(deploySeed*131 + 7)).Perm(poolN)
	}
	period := 0
	if w.writeFrac > 0 {
		period = int(math.Round(1 / w.writeFrac))
	}
	seq := make([]op, seqLen)
	prev := -1
	for i := range seq {
		if period > 0 && i%period == period-1 {
			seq[i] = op{kind: opPublish, q: rng.Int(), entry: rng.Intn(nEntries)}
			continue
		}
		var q, entry int
		if w.skewed {
			if prev >= 0 && rng.Float64() < 0.5 {
				q = prev
			} else {
				q = perm[zipf.Uint64()]
			}
			entry = int(uint(q) * 2654435761 % uint(nEntries))
		} else {
			// Range and kNN alternate, so every stretch of the sequence
			// has the same mix of cheap and costly reads.
			q, entry = 2*rng.Intn(poolN/2)+i%2, rng.Intn(nEntries)
		}
		prev = q
		seq[i] = op{kind: opKind(q % 2), q: q, entry: entry}
	}
	return seq
}

// pickEntries chooses n distinct entry peers among the peers that store at
// least knnK items (the corpus assignment leaves some peers with few or
// none, and an entry holds the writes, drawn near its own items). Like the
// corpus, the choice is part of the deployment: which peers coordinate
// moves routing cost as much as the overlay does.
func pickEntries(sys *core.System, n int) ([]int, error) {
	var out []int
	for _, p := range rand.New(rand.NewSource(deploySeed*31 + 5)).Perm(sys.Config().Peers) {
		if len(out) < n && sys.PeerItemCount(p) >= knnK {
			out = append(out, p)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d peers hold %d items, want %d entries", len(out), knnK, n)
	}
	return out, nil
}

// opRand is the per-op generator: a function of (seed, op index) only, so an
// op's inputs do not depend on which client issues it or when.
func opRand(seed int64, i int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + i))
}

// readQuery materializes read op i: the pool query itself on skewed
// workloads (repeats are the point), or the pool center nudged by a seeded
// 1e-6 jitter otherwise, so no two reads share a memo or cache key.
func readQuery(pool []query, o op, seed int64, i int64, distinct bool) []float64 {
	c := pool[o.q].center
	if !distinct {
		return c
	}
	rng := opRand(seed, i)
	q := make([]float64, len(c))
	for d := range q {
		q[d] = c[d] + 1e-6*(1+rng.Float64())
	}
	return q
}

// writeItem materializes write op i: a new item near base, an item the
// holder already stores (peers publish data like their own, which is what
// makes their cluster summaries worth publishing).
func writeItem(base []float64, seed int64, i int64) (int, []float64) {
	rng := opRand(seed, -1-i)
	item := make([]float64, len(base))
	for d := range item {
		item[d] = base[d] + 0.01*rng.Float64()
	}
	return writeIDBase + int(i), item
}
