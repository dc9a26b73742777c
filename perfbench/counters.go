package main

import (
	"fmt"
	"sort"
	"strings"

	"hyperm/internal/node"
)

// counterTable is every node.Counters() name the benchmark reads, with the
// workloads on which the design guarantees a run sees it nonzero. Counters
// are looked up by string, so a rename in the node would otherwise read as a
// silent zero; checkCounters turns that into a failed run instead.
var counterTable = map[string][]string{
	"rpc.can_search":        {"lookup", "scan", "ingest"},
	"rpc.fetch_range":       {"lookup", "scan"},
	"rpc.fetch_knn":         {"lookup", "scan"},
	"cache.hit":             {"ingest"},
	"cache.replica_hit":     {},
	"cache.miss":            {},
	"cache.stale":           {},
	"cache.neg_hit":         {},
	"cache.revalidate":      {"ingest"},
	"cache.path_hit":        {},
	"cache.path_miss":       {},
	"cache.fetch_local_hit": {"ingest"},
	"cache.fetch_inval":     {"ingest"},
	"stream.store_rec":      {"ingest"},
}

// counters is a cluster-wide sum of node counters.
type counters map[string]float64

// get reads one counter; the name must be in counterTable.
func (c counters) get(name string) float64 {
	if _, ok := counterTable[name]; !ok {
		panic("perfbench: counter " + name + " is not in counterTable")
	}
	return c[name]
}

func clusterCounters(nodes []*node.Node) counters {
	c := counters{}
	for _, nd := range nodes {
		for k, v := range nd.Counters() {
			c[k] += v
		}
	}
	return c
}

func (c counters) minus(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// checkCounters fails when a counter the workload must move stayed at zero
// over the measured phases, or when a call used a wire method the
// benchmark does not know.
func checkCounters(workload string, c counters, calls map[string]tally) error {
	var missing []string
	for name, on := range counterTable {
		for _, w := range on {
			if w == workload && c[name] == 0 {
				missing = append(missing, name)
			}
		}
	}
	if n := calls["other"].calls; n > 0 {
		missing = append(missing, fmt.Sprintf("wire method outside wireMethods (%d calls)", n))
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return fmt.Errorf("counter guard: zero or unknown on %s: %s", workload, strings.Join(missing, ", "))
}
