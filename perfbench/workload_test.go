package main

import (
	"reflect"
	"testing"

	"hyperm/internal/experiments"
)

func TestWorkloadGenerationIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := genOps(w, 7, 64, 2), genOps(w, 7, 64, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different op sequences", w.name)
		}
		if reflect.DeepEqual(a, genOps(w, 8, 64, 2)) {
			t.Errorf("%s: seeds 7 and 8 give the same op sequence", w.name)
		}
		writes := 0
		for _, o := range a {
			if o.kind == opPublish {
				writes++
			}
		}
		if share := float64(writes) / float64(len(a)); share < w.writeFrac-0.01 || share > w.writeFrac+0.01 {
			t.Errorf("%s: %.3f of ops write, want %.2f", w.name, share, w.writeFrac)
		}
	}
}

func TestQueriesAndWritesAreSeeded(t *testing.T) {
	w, err := findWorkload("lookup")
	if err != nil {
		t.Fatal(err)
	}
	build := func() ([]query, []int) {
		sys, err := experiments.BuildMarkovSystem(experiments.Params{
			Peers: 8, ItemsPerPeer: 40, Dim: dim, Levels: levels, ClustersPerPeer: clustersPerPeer, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := corpusOf(sys)
		entries, err := pickEntries(sys, 2)
		if err != nil {
			t.Fatal(err)
		}
		return buildPool(c, 16, opRand(3, -1)), entries
	}
	p1, e1 := build()
	p2, e2 := build()
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("same seed, different query pools or entry peers")
	}
	o := op{kind: opRange, q: 0}
	if !reflect.DeepEqual(readQuery(p1, o, 3, 5, true), readQuery(p1, o, 3, 5, true)) {
		t.Error("read query of one op number differs between calls")
	}
	if reflect.DeepEqual(readQuery(p1, o, 3, 5, true), readQuery(p1, o, 3, 6, true)) {
		t.Errorf("%s: two reads of one base query are not distinct", w.name)
	}
	if !reflect.DeepEqual(readQuery(p1, o, 3, 5, false), p1[0].center) {
		t.Error("a skewed read must repeat its base query exactly")
	}
	id1, v1 := writeItem(p1[0].center, 3, 9)
	id2, v2 := writeItem(p1[0].center, 3, 9)
	if id1 != id2 || !reflect.DeepEqual(v1, v2) {
		t.Error("a write of one op number differs between calls")
	}
	if id, _ := writeItem(p1[0].center, 3, 10); id == id1 {
		t.Error("two writes share an id")
	}
}
