package division

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// RefDecompose is the per-component division the in-place path replaced,
// kept as the oracle and exported for the committed-circuit comparison in
// the external test package: every component is extracted as its own
// induced subgraph (one Partition region each), peeled there with a nil
// subset, solved into a per-component color slice and copied back.
func RefDecompose(ctx context.Context, g *graph.Graph, opts Options, solve Solver) ([]int, Stats) {
	opts = opts.withDefaults()
	colors := make([]int, g.N())
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	var st Stats
	tPart := time.Now()
	comps := g.ComponentsWorkers(opts.Workers)
	var order []int
	if opts.Workers > 1 && len(comps) > 1 {
		order = make([]int, len(comps))
		weight := make([]int, len(comps))
		for ci, comp := range comps {
			w := len(comp)
			for _, v := range comp {
				w += g.ConflictDegree(v) + g.StitchDegree(v)
			}
			order[ci] = ci
			weight[ci] = w
		}
		sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	}
	st.AddStage(pipeline.StagePartition, time.Since(tPart))
	st.Components = len(comps)
	solveOne := func(comp []int, ws *Stats) {
		sub, orig := subgraphTimed(g, comp, ws)
		subColors := refDecomposeComponent(ctx, sub, opts, solve, ws)
		for i, v := range orig {
			colors[v] = subColors[i]
		}
	}
	if opts.Workers <= 1 {
		for _, comp := range comps {
			solveOne(comp, &st)
		}
		return colors, st
	}
	jobs := make(chan []int, len(comps))
	if order != nil {
		for _, ci := range order {
			jobs <- comps[ci]
		}
	} else {
		for _, comp := range comps {
			jobs <- comp
		}
	}
	close(jobs)
	workerStats := make([]Stats, min(opts.Workers, len(comps)))
	var wg sync.WaitGroup
	for w := range workerStats {
		wg.Add(1)
		go func(ws *Stats) {
			defer wg.Done()
			for comp := range jobs {
				solveOne(comp, ws)
			}
		}(&workerStats[w])
	}
	wg.Wait()
	for _, ws := range workerStats {
		st.addWorker(ws)
	}
	return colors, st
}

// refDecomposeComponent is the subgraph-local component solve: peel the
// whole subgraph, extract the core as a subgraph of the subgraph, and pop
// the stack into a fresh per-component color slice.
func refDecomposeComponent(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats) []int {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	var stack, core []int
	if opts.DisablePeeling {
		core = make([]int, n)
		for i := range core {
			core[i] = i
		}
	} else {
		tSimp := time.Now()
		stack, core = g.PeelOrder(opts.K, opts.MaxStitchDegree, nil)
		st.AddStage(pipeline.StageSimplify, time.Since(tSimp))
		st.Peeled += len(stack)
	}
	if len(core) > 0 {
		coreSub, coreOrig := subgraphTimed(g, core, st)
		tPart := time.Now()
		coreComps := coreSub.Components()
		st.AddStage(pipeline.StagePartition, time.Since(tPart))
		for _, cc := range coreComps {
			ccSub, ccOrig := subgraphTimed(coreSub, cc, st)
			ccColors := solveCore(ctx, ccSub, opts, solve, st, nil)
			for i, v := range ccOrig {
				colors[coreOrig[v]] = ccColors[i]
			}
		}
	}
	tStitch := time.Now()
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		colors[v] = cheapestColor(g, colors, v, opts.K, opts.Alpha)
	}
	if len(stack) > 0 {
		st.AddStage(pipeline.StageStitch, time.Since(tStitch))
	}
	return colors
}

// CheckMatchesReference fails t unless the in-place division's colors and
// counters equal the reference's. Stage region counts must match too,
// except that Partition loses exactly one region per component: the
// per-component subgraph extraction the in-place path no longer does.
func CheckMatchesReference(t *testing.T, label string, got []int, gotSt Stats, want []int, wantSt Stats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: vertex %d colored %d, reference %d", label, v, got[v], want[v])
			}
		}
		t.Fatalf("%s: colorings differ in length: %d vs %d", label, len(got), len(want))
	}
	a, b := gotSt, wantSt
	a.Stages, b.Stages, a.Balance, b.Balance = nil, nil, Balance{}, Balance{}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: stats %+v, reference %+v", label, a, b)
	}
	for name, ws := range wantSt.Stages {
		want := ws.Calls
		if name == pipeline.StagePartition {
			want -= wantSt.Components
		}
		if got := gotSt.Stages[name].Calls; got != want {
			t.Fatalf("%s: stage %s has %d regions, want %d", label, name, got, want)
		}
	}
	for name := range gotSt.Stages {
		if _, ok := wantSt.Stages[name]; !ok {
			t.Fatalf("%s: stage %s missing from the reference", label, name)
		}
	}
}

// TestInPlaceDivisionMatchesReference: on random graphs with stitch edges,
// the in-place division returns the reference's colors and counters at
// workers 1 and 2, with peeling on and off.
func TestInPlaceDivisionMatchesReference(t *testing.T) {
	trials := 15
	if RaceEnabled {
		trials = 3
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < trials; trial++ {
		n := 20 + rng.Intn(50)
		g := randomGraph(rng, n, n+rng.Intn(2*n), n/3)
		for _, k := range []int{3, 4} {
			for _, workers := range []int{1, 2} {
				for _, noPeel := range []bool{false, true} {
					opts := Options{K: k, Alpha: 0.1, Workers: workers, DisablePeeling: noPeel}
					want, wantSt := RefDecompose(context.Background(), g, opts, exactSolver(k, 0.1))
					got, gotSt := Decompose(g, opts, exactSolver(k, 0.1))
					CheckMatchesReference(t, "random", got, gotSt, want, wantSt)
				}
			}
		}
	}
}
