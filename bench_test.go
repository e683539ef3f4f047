// Benchmark harness regenerating the DAC'14 paper's evaluation:
//
//	BenchmarkTable1*    — Table 1 (quadruple patterning, four engines)
//	BenchmarkTable2*    — Table 2 (pentuple patterning, three engines)
//	BenchmarkAblation*  — design-choice ablations from DESIGN.md §4
//	Benchmark<module>   — micro-benchmarks of the substrate layers
//
// Benchmarks run the suite at a reduced scale so `go test -bench=.`
// finishes in minutes; `cmd/evaluate` regenerates the full-scale tables
// (see EXPERIMENTS.md for the recorded paper-vs-measured comparison).
package mpl_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mpl"
	"mpl/internal/benchrec"
	"mpl/internal/coloring"
	"mpl/internal/division"
	"mpl/internal/ghtree"
	"mpl/internal/graph"
	"mpl/internal/maxflow"
	"mpl/internal/pipeline"
	"mpl/internal/sdp"
	"mpl/internal/synth"
)

const benchScale = 0.2

// table1Algorithms mirrors the paper's Table 1 columns.
var table1Algorithms = []mpl.Algorithm{mpl.ILP, mpl.SDPBacktrack, mpl.SDPGreedy, mpl.Linear}

// table2Algorithms mirrors Table 2 (no ILP exists for K=5 in the paper).
var table2Algorithms = []mpl.Algorithm{mpl.SDPBacktrack, mpl.SDPGreedy, mpl.Linear}

// benchDecompose measures color assignment on a pre-built graph and
// reports conflicts/stitches like the paper's cn#/st# columns.
func benchDecompose(b *testing.B, g *mpl.DecompGraph, k int, alg mpl.Algorithm) {
	b.Helper()
	var conf, stit int
	for i := 0; i < b.N; i++ {
		res, err := mpl.DecomposeGraph(g, mpl.Options{
			K:            k,
			Algorithm:    alg,
			Seed:         1,
			ILPTimeLimit: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		conf, stit = res.Conflicts, res.Stitches
	}
	b.ReportMetric(float64(conf), "cn")
	b.ReportMetric(float64(stit), "st")
}

func buildBenchGraph(b *testing.B, circuit string, k int) *mpl.DecompGraph {
	b.Helper()
	l, err := mpl.GenerateBenchmark(circuit, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	g, err := mpl.BuildGraph(l, mpl.BuildOptions{K: k})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTable1 regenerates Table 1 rows: every circuit × every engine.
func BenchmarkTable1(b *testing.B) {
	for _, spec := range mpl.BenchmarkSuite() {
		g := buildBenchGraph(b, spec.Name, 4)
		for _, alg := range table1Algorithms {
			b.Run(fmt.Sprintf("%s/%v", spec.Name, alg), func(b *testing.B) {
				benchDecompose(b, g, 4, alg)
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2 rows: the six densest circuits under
// pentuple patterning (K=5, mins=110).
func BenchmarkTable2(b *testing.B) {
	for _, name := range mpl.PentupleSuite() {
		g := buildBenchGraph(b, name, 5)
		for _, alg := range table2Algorithms {
			b.Run(fmt.Sprintf("%s/%v", name, alg), func(b *testing.B) {
				benchDecompose(b, g, 5, alg)
			})
		}
	}
}

// BenchmarkAblationGHTree measures SDP+Backtrack with and without GH-tree
// (K−1)-cut division on a macro-heavy circuit (DESIGN.md §4 ablation).
func BenchmarkAblationGHTree(b *testing.B) {
	g := buildBenchGraph(b, "S15850", 4)
	for _, disable := range []bool{false, true} {
		name := "gh-on"
		if disable {
			name = "gh-off"
		}
		b.Run(name, func(b *testing.B) {
			var conf int
			for i := 0; i < b.N; i++ {
				res, err := mpl.DecomposeGraph(g, mpl.Options{
					K:         4,
					Algorithm: mpl.SDPBacktrack,
					Seed:      1,
					Division:  division.Options{DisableGHTree: disable},
				})
				if err != nil {
					b.Fatal(err)
				}
				conf = res.Conflicts
			}
			b.ReportMetric(float64(conf), "cn")
		})
	}
}

// BenchmarkAblationThreshold sweeps Algorithm 1's merge threshold t_th.
func BenchmarkAblationThreshold(b *testing.B) {
	g := buildBenchGraph(b, "C6288", 4)
	for _, tth := range []float64{0.7, 0.8, 0.9, 0.99} {
		b.Run(fmt.Sprintf("tth=%.2f", tth), func(b *testing.B) {
			var conf int
			for i := 0; i < b.N; i++ {
				res, err := mpl.DecomposeGraph(g, mpl.Options{
					K:         4,
					Algorithm: mpl.SDPBacktrack,
					Threshold: tth,
					Seed:      1,
				})
				if err != nil {
					b.Fatal(err)
				}
				conf = res.Conflicts
			}
			b.ReportMetric(float64(conf), "cn")
		})
	}
}

// BenchmarkGraphConstruction measures decomposition-graph building
// (conflict edges, stitch candidates, friend pairs) on a mid-size circuit.
func BenchmarkGraphConstruction(b *testing.B) {
	l, err := mpl.GenerateBenchmark("C7552", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpl.BuildGraph(l, mpl.BuildOptions{K: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGraphWorkers measures the tile-sharded parallel graph build
// (BuildOptions.Workers) on a large synthetic layout — S38417 at double
// scale, ~117k fragments — the wall-clock speedup claim of DESIGN.md §3.
// The split and edge stages (~3/4 of a serial build) shard across the pool;
// on a multi-core machine workers=8 lands well above 2× over workers=1. The
// graph is identical at every worker count (TestParallelBuildIdentical), so
// the sub-benchmarks differ only in wall clock.
func BenchmarkBuildGraphWorkers(b *testing.B) {
	l, err := mpl.GenerateBenchmark("S38417", 2.0)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var frags int
			for i := 0; i < b.N; i++ {
				g, err := mpl.BuildGraph(l, mpl.BuildOptions{K: 4, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				frags = g.Stats.Fragments
			}
			b.ReportMetric(float64(frags), "fragments")
		})
	}
}

// BenchmarkTrajectorySmoke is the bench-side entry point of the benchmark
// trajectory (EXPERIMENTS.md): it runs one small circuit through build +
// every engine and, when MPL_BENCH_JSON is set, records a
// benchrec-formatted file there — the same schema `cmd/evaluate -json`
// writes, so CI can produce trajectory artifacts from either path.
func BenchmarkTrajectorySmoke(b *testing.B) {
	const circuit = "C432"
	l, err := mpl.GenerateBenchmark(circuit, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		g, err := mpl.BuildGraph(l, mpl.BuildOptions{K: 4, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		rec := &benchrec.Run{
			Timestamp: time.Now().UTC().Format(time.RFC3339),
			Label:     "bench-smoke",
			GoVersion: runtime.Version(),
			NumCPU:    runtime.NumCPU(),
			Maxprocs:  runtime.GOMAXPROCS(0),
			K:         4, Scale: benchScale, Seed: 1, BuildWorkers: 2, DivWorkers: 1,
		}
		c := benchrec.CircuitOf(circuit, g.Stats)
		for _, alg := range table1Algorithms {
			res, err := mpl.DecomposeGraph(g, mpl.Options{K: 4, Algorithm: alg, Seed: 1, ILPTimeLimit: 10 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			c.Algorithms = append(c.Algorithms, benchrec.AlgorithmRunOf(alg.String(), res))
		}
		rec.Circuits = append(rec.Circuits, c)
		if path := os.Getenv("MPL_BENCH_JSON"); path != "" {
			if err := rec.WriteFile(path); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSDPRelaxation measures the low-rank SDP solver on a dense
// 60-vertex component (the macro regime of the big Table 1 circuits).
func BenchmarkSDPRelaxation(b *testing.B) {
	g := kingGraph(15, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sdp.SolveScratchEnv(context.Background(), g, sdp.Options{K: 4, Alpha: 0.1, Seed: int64(i)}, nil, pipeline.Env{})
	}
}

// BenchmarkSDPBacktrackMapping measures Algorithm 1's merge + backtrack
// stage given a solved relaxation.
func BenchmarkSDPBacktrackMapping(b *testing.B) {
	g := kingGraph(15, 4)
	sol := sdp.SolveScratchEnv(context.Background(), g, sdp.Options{K: 4, Alpha: 0.1, Seed: 1}, nil, pipeline.Env{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coloring.SDPBacktrack(g, sol, 4, 0.1, 0.9, 0)
	}
}

// BenchmarkLinearAssignment measures Algorithm 2 on a large sparse graph.
func BenchmarkLinearAssignment(b *testing.B) {
	g := buildBenchGraph(b, "S38417", 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coloring.Linear(g.G, coloring.LinearOptions{K: 4, Alpha: 0.1})
	}
}

// BenchmarkGHTreeConstruction measures Gomory–Hu construction (Gusfield's
// n−1 max-flows via Dinic) on a dense component.
func BenchmarkGHTreeConstruction(b *testing.B) {
	g := kingGraph(15, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ghtree.BuildFromConflictGraph(g)
	}
}

// BenchmarkDinicMaxflow measures a single max-flow on the same component.
func BenchmarkDinicMaxflow(b *testing.B) {
	g := kingGraph(15, 4)
	edges := g.ConflictEdges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := maxflow.NewNetwork(g.N())
		for _, e := range edges {
			nw.AddUndirectedEdge(e.U, e.V, 1)
		}
		nw.MaxFlow(0, g.N()-1)
	}
}

// BenchmarkILPExact measures the exact baseline on a paper-small component
// (the regime where the paper's Table 1 reports sub-second ILP runs).
func BenchmarkILPExact(b *testing.B) {
	g := kingGraph(5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coloring.ILPAssign(g, 4, 0.1, time.Minute)
	}
}

// BenchmarkDivisionPipeline measures the full Section 4 pipeline with a
// free solver, isolating division overhead from engine cost.
func BenchmarkDivisionPipeline(b *testing.B) {
	g := buildBenchGraph(b, "S35932", 4)
	free := func(sub *graph.Graph, _ *pipeline.Scratch) []int { return make([]int, sub.N()) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		division.Decompose(g.G, division.Options{K: 4, Alpha: 0.1}, free)
	}
}

// BenchmarkSyntheticGeneration measures benchmark layout generation.
func BenchmarkSyntheticGeneration(b *testing.B) {
	spec, _ := synth.ByName("S38417")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synth.Generate(spec, benchScale)
	}
}

// kingGraph builds a w×h king-graph (the macro component shape).
func kingGraph(w, h int) *graph.Graph {
	g := graph.New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for dy := 0; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if (dx != 0 || dy != 0) && nx >= 0 && nx < w && ny >= 0 && ny < h && id(nx, ny) > id(x, y) {
						g.AddConflict(id(x, y), id(nx, ny))
					}
				}
			}
		}
	}
	return g
}
