package core

// Byte-equivalence harness for shape memoization (DESIGN.md §11): a
// memoized solve must be indistinguishable from a memo-off solve in every
// observable output — colors byte-for-byte, cn#/st#, Proven — on every
// committed circuit, every engine, serial and parallel. Plus the
// concurrency contract: N identical components dispatch exactly one engine
// solve, the rest rehydrate from the cache ("memo" bucket), even when the
// division worker pool hits the shape simultaneously under -race.

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mpl/internal/flight"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
)

// memoRun solves dg with opts against a fresh shape cache (so hit/miss
// counters are a function of this run alone, not of test order).
func memoRun(t *testing.T, dg *Graph, opts Options) *Result {
	t.Helper()
	if _, err := ParseEngine(opts.Engine); err != nil {
		t.Fatal(err)
	}
	return memoRunShapes(t, dg, opts, flight.New[[]int](memoEntries))
}

// memoRunShapes solves dg with opts against the given shape cache.
func memoRunShapes(t *testing.T, dg *Graph, opts Options, shapes *flight.Cache[[]int]) *Result {
	t.Helper()
	res, err := decomposeGraph(context.Background(), dg, opts.withDefaults(),
		pipeline.NewRecorder(), sharedScratch, shapes)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func committedCircuit(t *testing.T, name string) *Graph {
	t.Helper()
	l, err := layout.ReadFile(filepath.Join("..", "..", "benchmarks", name+".lay"))
	if err != nil {
		t.Fatalf("%s: %v (pinned to the committed .lay files)", name, err)
	}
	dg, err := BuildGraph(l, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestMemoizedByteIdenticalToMemoOff is the headline equivalence gate:
// memo-on vs memo-off on all committed circuits × engines × workers 1/8.
func TestMemoizedByteIdenticalToMemoOff(t *testing.T) {
	circuits := []string{"C432", "C499", "C880", "C1355", "C5315"}
	type engine struct {
		label string
		opts  Options
	}
	engines := []engine{
		{"linear", Options{K: 4, Algorithm: AlgLinear, Seed: 1}},
		{"sdp-greedy", Options{K: 4, Algorithm: AlgSDPGreedy, Seed: 1}},
		{"sdp-backtrack", Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1}},
		{"auto", Options{K: 4, Engine: EngineAuto, Seed: 1, ILPTimeLimit: 10 * time.Minute}},
	}
	if testing.Short() {
		circuits = circuits[:2]
		engines = engines[:2]
	}
	for _, name := range circuits {
		dg := committedCircuit(t, name)
		for _, eng := range engines {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, eng.label, workers), func(t *testing.T) {
					opts := eng.opts
					opts.Division.Workers = workers
					base := memoRun(t, dg, opts)
					opts.Memoize = true
					memo := memoRun(t, dg, opts)

					if !bytes.Equal(intsToBytes(base.Colors), intsToBytes(memo.Colors)) {
						t.Fatalf("memoized colors differ from memo-off")
					}
					if base.Conflicts != memo.Conflicts || base.Stitches != memo.Stitches {
						t.Fatalf("objective drifted: memo-off %d/%d, memo-on %d/%d",
							base.Conflicts, base.Stitches, memo.Conflicts, memo.Stitches)
					}
					if base.Proven != memo.Proven {
						t.Fatalf("Proven drifted: %v vs %v", base.Proven, memo.Proven)
					}
					// Counter accounting: every solver piece was either a
					// hit or a miss (committed circuits have no pieces over
					// memoMaxVertices), hits match the memo bucket, and
					// the memo-off run reports no shape traffic at all.
					if base.DivisionStats.Shapes.Hits+base.DivisionStats.Shapes.Misses != 0 {
						t.Fatalf("memo-off run reports shape traffic: %+v", base.DivisionStats.Shapes)
					}
					sh := memo.DivisionStats.Shapes
					if sh.Hits+sh.Misses != memo.DivisionStats.SolverCalls {
						t.Fatalf("shape counters don't cover solver calls: %+v vs %d calls",
							sh, memo.DivisionStats.SolverCalls)
					}
					if sh.Hits != memo.DivisionStats.Engines["memo"] {
						t.Fatalf("memo engine bucket %d != shape hits %d",
							memo.DivisionStats.Engines["memo"], sh.Hits)
					}
					if sh.Distinct == 0 || sh.Distinct > sh.Hits+sh.Misses {
						t.Fatalf("implausible distinct-shape count: %+v", sh)
					}
				})
			}
		}
	}
}

func intsToBytes(xs []int) []byte {
	b := make([]byte, 0, len(xs))
	for _, x := range xs {
		b = append(b, byte(x))
	}
	return b
}

// TestMemoizedILPByteIdentical covers the exact engine separately (it is
// too slow for the full matrix): C432 under ILP, memo-on vs memo-off.
func TestMemoizedILPByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exact engine on a committed circuit; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("exact search is ~25x slower under -race")
	}
	dg := committedCircuit(t, "C432")
	opts := Options{K: 4, Algorithm: AlgILP, Seed: 1, ILPTimeLimit: 10 * time.Minute}
	base := memoRun(t, dg, opts)
	opts.Memoize = true
	memo := memoRun(t, dg, opts)
	if !bytes.Equal(intsToBytes(base.Colors), intsToBytes(memo.Colors)) {
		t.Fatalf("memoized ILP colors differ from memo-off")
	}
	if !memo.Proven || !base.Proven {
		t.Fatalf("ILP run not proven (base %v, memo %v)", base.Proven, memo.Proven)
	}
}

// nIdenticalK5s builds a graph of n disjoint K5 cliques — n byte-identical
// solver pieces (K5 survives peeling at K=4: conflict degree 4, and its
// min cut 4 survives the (K−1)-cut removal), so a memoized solve must
// dispatch exactly one engine call.
func nIdenticalK5s(n int) *Graph {
	g := graph.New(5 * n)
	for c := 0; c < n; c++ {
		base := 5 * c
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				g.AddConflict(base+i, base+j)
			}
		}
	}
	return &Graph{G: g}
}

// TestMemoSingleFlightOneDispatchForIdenticalComponents pins the
// concurrency contract from the ISSUE: N identical components solved by 8
// division workers produce exactly 1 real engine dispatch; the other N−1
// rehydrate from the cache, and all N pieces count one distinct shape.
func TestMemoSingleFlightOneDispatchForIdenticalComponents(t *testing.T) {
	const n = 48
	dg := nIdenticalK5s(n)
	opts := Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1, Memoize: true}
	opts.Division.Workers = 8
	res := memoRun(t, dg, opts)

	sh := res.DivisionStats.Shapes
	if sh.Misses != 1 || sh.Hits != n-1 || sh.Distinct != 1 {
		t.Fatalf("want 1 miss / %d hits / 1 distinct, got %+v", n-1, sh)
	}
	if res.DivisionStats.Engines["memo"] != n-1 {
		t.Fatalf("memo bucket = %d, want %d (engines: %v)",
			res.DivisionStats.Engines["memo"], n-1, res.DivisionStats.Engines)
	}
	real := 0
	for name, c := range res.DivisionStats.Engines {
		if name != "memo" {
			real += c
		}
	}
	if real != 1 {
		t.Fatalf("identical components dispatched %d engine solves, want 1 (engines: %v)",
			real, res.DivisionStats.Engines)
	}
	// And the result must equal the memo-off solve of the same graph.
	offOpts := opts
	offOpts.Memoize = false
	base := memoRun(t, dg, offOpts)
	if !bytes.Equal(intsToBytes(base.Colors), intsToBytes(res.Colors)) {
		t.Fatalf("single-flight rehydration changed the coloring")
	}
}

// relabeledCopies builds n disjoint copies of one 7-vertex piece, copy c
// labeling the piece's vertex r as 7c + (a·r + b) mod 7 for the c-th
// affine map (a, b) — so every copy reaches the solver with its own vertex
// numbering. Every vertex has conflict degree ≥ 4 and no cut is smaller
// than 4, so at K=4 each copy survives division as one solver piece.
func relabeledCopies(n int) *Graph {
	piece := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, // K5
		{5, 0}, {5, 1}, {5, 2}, {5, 3},
		{6, 1}, {6, 2}, {6, 3}, {6, 5},
	}
	g := graph.New(7 * n)
	for c := 0; c < n; c++ {
		a, b := 1+c%3, c/3
		for _, e := range piece {
			g.AddConflict(7*c+(a*e[0]+b)%7, 7*c+(a*e[1]+b)%7)
		}
	}
	return &Graph{G: g}
}

// TestMemoDifferentLabelingsAllHitOnRepeat: ten differently-labeled copies
// of one piece are ten distinct keys, each stored on the first pass, so a
// second solve through the same cache is all hits.
func TestMemoDifferentLabelingsAllHitOnRepeat(t *testing.T) {
	const n = 10
	dg := relabeledCopies(n)
	opts := Options{K: 4, Algorithm: AlgSDPBacktrack, Seed: 1, Memoize: true}
	shapes := flight.New[[]int](memoEntries)
	first := memoRunShapes(t, dg, opts, shapes).DivisionStats.Shapes
	if first.Misses != n || first.Hits != 0 || first.Distinct != n {
		t.Fatalf("first pass: want %d misses / 0 hits / %d distinct labelings, got %+v", n, n, first)
	}
	second := memoRunShapes(t, dg, opts, shapes)
	if sh := second.DivisionStats.Shapes; sh.Hits != n || sh.Misses != 0 {
		t.Fatalf("second pass: want %d hits / 0 misses, got %+v", n, sh)
	}
	opts.Memoize = false
	base := memoRun(t, dg, opts)
	if !bytes.Equal(intsToBytes(base.Colors), intsToBytes(second.Colors)) {
		t.Fatalf("memoized colors differ from memo-off")
	}
}

// TestMemoizedAutoNeverWorseThanGoldenBest extends the PR 4 portfolio gate:
// auto with memoization on still matches the golden best counts on every
// committed circuit — the cache must not change what auto produces.
func TestMemoizedAutoNeverWorseThanGoldenBest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale committed circuits; skipped in -short mode")
	}
	for circuit, engines := range goldenCounts {
		circuit, engines := circuit, engines
		t.Run(circuit, func(t *testing.T) {
			dg := committedCircuit(t, circuit)
			res := memoRun(t, dg, Options{
				K: 4, Engine: EngineAuto, Seed: 1, Memoize: true,
				ILPTimeLimit: 10 * time.Minute,
			})
			best := goldenBest(engines)
			if res.Conflicts > best[0] || (res.Conflicts == best[0] && res.Stitches > best[1]) {
				t.Errorf("memoized auto cn#/st# = %d/%d exceeds golden best %d/%d",
					res.Conflicts, res.Stitches, best[0], best[1])
			}
		})
	}
}

// TestMemoizeNormalizesOffUnderRace pins the options contract: race
// winners are wall-clock dependent, so Normalize forces Memoize off (and
// equivalent option spellings therefore share cache/session keys).
func TestMemoizeNormalizesOffUnderRace(t *testing.T) {
	o := Options{K: 4, Engine: EngineRace, Memoize: true}.Normalize()
	if o.Memoize {
		t.Fatalf("race must normalize Memoize off")
	}
	o = Options{K: 4, Engine: EngineAuto, Memoize: true}.Normalize()
	if !o.Memoize {
		t.Fatalf("auto must keep Memoize on")
	}
}
