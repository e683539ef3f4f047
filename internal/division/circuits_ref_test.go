package division_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"mpl/internal/coloring"
	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
)

// TestInPlaceDivisionMatchesReferenceCircuits: on the decomposition graph
// of every committed circuit, the in-place division returns the reference's
// colors and counters under a linear and a node-limited exact engine, at
// workers 1 and 2, with peeling on and off. Without peeling the cores are
// whole components, so GH-tree division (which the in-place path leaves
// untouched) is switched off there to keep the max-flows out of the run.
func TestInPlaceDivisionMatchesReferenceCircuits(t *testing.T) {
	lays, err := filepath.Glob(filepath.Join("..", "..", "benchmarks", "*.lay"))
	if err != nil || len(lays) == 0 {
		t.Fatalf("no committed circuits: %v", err)
	}
	if testing.Short() || division.RaceEnabled {
		lays = lays[:2]
	}
	const k = 4
	linear := func(g *graph.Graph, _ *pipeline.Scratch) []int {
		return coloring.Linear(g, coloring.LinearOptions{K: k})
	}
	backtrack := func(g *graph.Graph, _ *pipeline.Scratch) []int {
		return coloring.FromGraph(g).Backtrack(k, 0.1, 2000).Colors
	}
	runs := []struct {
		engine  string
		solve   division.Solver
		workers int
		noPeel  bool
	}{
		{"linear", linear, 1, false},
		{"linear", linear, 2, false},
		{"linear", linear, 1, true},
		{"backtrack", backtrack, 2, false},
		{"backtrack", backtrack, 2, true},
	}
	for _, path := range lays {
		l, err := layout.ReadAny(path)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := core.BuildGraph(l, core.BuildOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			opts := division.Options{K: k, Alpha: 0.1, Workers: r.workers,
				DisablePeeling: r.noPeel, DisableGHTree: r.noPeel}
			want, wantSt := division.RefDecompose(context.Background(), dg.G, opts, r.solve)
			got, gotSt := division.Decompose(dg.G, opts, r.solve)
			label := fmt.Sprintf("%s/%s/workers=%d/nopeel=%v", filepath.Base(path), r.engine, r.workers, r.noPeel)
			division.CheckMatchesReference(t, label, got, gotSt, want, wantSt)
		}
	}
}
