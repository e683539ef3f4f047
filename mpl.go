// Package mpl is a layout decomposition library for quadruple patterning
// lithography (QPL) and general K-patterning, reproducing Yu & Pan,
// "Layout Decomposition for Quadruple Patterning Lithography and Beyond",
// DAC 2014 (arXiv:1404.0321).
//
// Given a layout — polygonal features on one layer — the decomposer builds
// the decomposition graph (conflict edges between features within the
// minimum coloring distance, stitch edges at projection-derived stitch
// candidates, color-friendly hints), divides it (independent components,
// low-degree peeling, biconnected blocks, Gomory–Hu-tree (K−1)-cut
// removal), assigns each fragment one of K masks with a selectable engine
// (exact ILP, SDP+Backtrack, SDP+Greedy, or the linear-time heuristic), and
// reports the conflict and stitch counts the paper's Tables 1–2 evaluate.
//
// Quick start:
//
//	l := mpl.NewLayout("demo")
//	l.AddRect(mpl.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20})
//	l.AddRect(mpl.Rect{X0: 40, Y0: 0, X1: 60, Y1: 20})
//	res, err := mpl.Decompose(l, mpl.Options{K: 4, Algorithm: mpl.SDPBacktrack})
//	if err != nil { ... }
//	fmt.Println(res.Conflicts, res.Stitches)
//	masks := res.Masks() // one shape list per mask
//
// The zero Options value selects quadruple patterning (K = 4) with the
// paper's parameters: α = 0.1, t_th = 0.9, and every graph-division
// technique enabled.
//
// # Cancellation and deadlines
//
// DecomposeContext and DecomposeGraphContext accept a context.Context and
// honor cancellation cooperatively: the SDP coordinate-descent loop, the
// merged-graph branch-and-bound, and the ILP search all poll the context
// and stop at their next checkpoint, returning their incumbent; graph
// pieces whose solve has not started fall back to the linear-time engine.
// A cancelled call therefore still returns a valid (possibly lower-quality)
// Result — Result.Degraded counts the fallback pieces and Result.Proven is
// false — so callers serving traffic under a deadline always get a usable
// mask assignment:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	res, err := mpl.DecomposeContext(ctx, l, mpl.Options{K: 4})
//
// # Parallel graph construction
//
// Graph construction shards the layout into spatial tiles and builds stitch
// fragments and conflict/friend edges on a bounded worker pool
// (BuildOptions.Workers); a deterministic merge makes the resulting graph
// identical to a serial build at any worker count, so Workers is purely a
// wall-clock knob (DESIGN.md §3). Per-stage timings are reported in
// BuildStats.Timing, and BuildGraphContext cancels cooperatively.
//
// # Adaptive engine portfolio
//
// Options.Engine switches color assignment from one fixed Algorithm to
// per-component dispatch (DESIGN.md §8): "auto" profiles every connected
// component the division pipeline isolates (size, conflict density,
// odd-cycle evidence) and routes it to the cheapest engine predicted to
// reach reference quality — exact ILP on small hard cores, SDP+Backtrack
// in the middle, the linear-time engine on blocks too large for search —
// while "race" runs two candidate engines per component concurrently
// under Options.RaceBudget, keeps the first provably optimal result (or
// the better of the two), and cancels the loser:
//
//	res, err := mpl.Decompose(l, mpl.Options{K: 4, Engine: mpl.EngineAuto})
//
// On the committed benchmark circuits auto matches or beats the best
// fixed engine's conflict and stitch counts on every circuit at a small
// fraction of the exact baseline's solve time (EXPERIMENTS.md);
// Result.DivisionStats.Engines reports which engine colored how many
// pieces.
//
// # Memoization
//
// Options.Memoize answers a solver piece from a process-wide cache when a
// piece with the byte-identical labeled encoding — same vertex count, same
// conflict, stitch and friend edges under the same numbering — was already
// solved under the same options, so repeated standard cells run an engine
// once per process. Results are byte-identical to a memo-off run
// (DESIGN.md §11); Result.DivisionStats.Shapes counts hits, misses and
// distinct piece encodings.
//
// # Incremental (ECO) decomposition
//
// ApplyEdits re-decomposes an edited layout in time proportional to the
// dirty region: only edited features (plus close neighbors whose stitch
// fragmentation changed) are rebuilt, and only the connected components
// touching them are re-solved — every other component keeps its prior
// colors. For the deterministic engines the result is exactly what a
// from-scratch Decompose of the edited layout would return (DESIGN.md §6):
//
//	edits := []mpl.Edit{{Op: mpl.EditMove, Feature: 17, DX: 40}}
//	newL, res2, stats, err := mpl.ApplyEdits(l, res, edits, opts)
//
// # Serving
//
// The qpld command's serve subcommand exposes decomposition as an HTTP
// JSON API backed by a layout-hash keyed LRU result cache, a
// bounded-concurrency batch runner, and sessions for incremental (ECO)
// serving via POST /v1/decompose/incremental (internal/service); see the
// README and docs/API.md.
package mpl

import (
	"context"
	"fmt"

	"mpl/internal/core"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// Re-exported geometry and layout types: the public surface for building
// inputs programmatically.
type (
	// Point is a layout-grid location in database units (nm).
	Point = geom.Point
	// Rect is an axis-aligned rectangle (half-open, integer coordinates).
	Rect = geom.Rect
	// Polygon is a rectilinear shape stored as a union of rectangles.
	Polygon = geom.Polygon
	// Layout is a named set of polygonal features on one layer.
	Layout = layout.Layout
	// Process carries technology parameters (wm, sm, half pitch).
	Process = layout.Process
)

// Decomposition types.
type (
	// Options configures a decomposition; see core.Options for all knobs.
	Options = core.Options
	// BuildOptions configures decomposition-graph construction, including
	// BuildOptions.Workers, the parallel-build shard count.
	BuildOptions = core.BuildOptions
	// BuildStats summarizes a constructed decomposition graph, including
	// per-stage build timing.
	BuildStats = core.BuildStats
	// BuildTiming is the per-stage wall clock of one graph build.
	BuildTiming = core.BuildTiming
	// Result is a completed decomposition with per-fragment mask colors.
	Result = core.Result
	// Algorithm selects the color-assignment engine.
	Algorithm = core.Algorithm
	// Fragment is one decomposition-graph vertex: a piece of a feature.
	Fragment = core.Fragment
	// DecompGraph couples the decomposition graph with fragment geometry.
	DecompGraph = core.Graph
)

// Incremental (ECO) decomposition types.
type (
	// Edit is one ECO operation on a layout (add / remove / move).
	Edit = core.Edit
	// EditOp selects the kind of an Edit.
	EditOp = core.EditOp
	// EditStats reports how much work ApplyEdits reused versus redid.
	EditStats = core.EditStats
)

// The three ECO operations.
const (
	// EditAdd appends Edit.Shape as a new feature.
	EditAdd = core.EditAdd
	// EditRemove deletes feature Edit.Feature (later features shift down).
	EditRemove = core.EditRemove
	// EditMove translates feature Edit.Feature by (Edit.DX, Edit.DY).
	EditMove = core.EditMove
)

// Engine policies for Options.Engine: adaptive per-component dispatch
// instead of one fixed Algorithm (internal/portfolio; DESIGN.md §"Engine
// selection & racing").
const (
	// EngineAuto picks an engine per connected component from its
	// structure (size, conflict density, odd-cycle evidence): exact ILP on
	// small hard cores, SDP+Backtrack in the middle, the cheaper engines
	// on components too large for search.
	EngineAuto = core.EngineAuto
	// EngineRace runs two candidate engines per component concurrently
	// under Options.RaceBudget, keeps the first provably optimal result
	// (or the better of the two), and cancels the loser via context.
	EngineRace = core.EngineRace
)

// ParseEngine validates an Options.Engine policy name: "auto", "race" or
// "" (fixed Algorithm).
func ParseEngine(s string) (string, error) { return core.ParseEngine(s) }

// The four color-assignment engines of the paper (Tables 1 and 2).
const (
	// ILP is the exact integer-linear-programming baseline.
	ILP = core.AlgILP
	// SDPBacktrack is semidefinite relaxation + merged-graph backtracking
	// (Algorithm 1): near-optimal, the paper's quality reference.
	SDPBacktrack = core.AlgSDPBacktrack
	// SDPGreedy is semidefinite relaxation + greedy mapping: ≈2× faster
	// than SDPBacktrack, noticeably worse conflict counts.
	SDPGreedy = core.AlgSDPGreedy
	// Linear is the O(n) three-stage heuristic (Algorithm 2): ≈200× faster
	// with ≈15% more conflicts in the paper's Table 1.
	Linear = core.AlgLinear
)

// NewLayout returns an empty layout using the paper's 20 nm half-pitch
// process (wm = sm = hp = 20 nm).
func NewLayout(name string) *Layout { return layout.New(name) }

// NewPolygon builds a rectilinear polygon from rectangles.
func NewPolygon(rects ...Rect) Polygon { return geom.NewPolygon(rects...) }

// Decompose runs the full flow of the paper's Fig. 2 on a layout: graph
// construction, division, color assignment, reassembly.
func Decompose(l *Layout, opts Options) (*Result, error) {
	return core.Decompose(l, opts)
}

// DecomposeContext is Decompose with cooperative cancellation: on ctx
// cancellation or deadline expiry the expensive engines stop at their next
// checkpoint and unsolved graph pieces fall back to the linear-time
// heuristic, so a valid best-effort Result is still returned (with
// Result.Degraded > 0 and Result.Proven == false).
func DecomposeContext(ctx context.Context, l *Layout, opts Options) (*Result, error) {
	return core.DecomposeContext(ctx, l, opts)
}

// DecomposeGraphContext is DecomposeGraph with the cancellation semantics
// of DecomposeContext.
func DecomposeGraphContext(ctx context.Context, g *DecompGraph, opts Options) (*Result, error) {
	return core.DecomposeGraphContext(ctx, g, opts)
}

// BuildGraph constructs only the decomposition graph, for callers that want
// to inspect it or run several engines over the same graph. Set
// BuildOptions.Workers to shard construction across goroutines — the graph
// is identical at any worker count (see DESIGN.md §3).
func BuildGraph(l *Layout, opts BuildOptions) (*DecompGraph, error) {
	return core.BuildGraph(l, opts)
}

// BuildGraphContext is BuildGraph with cooperative cancellation. Unlike
// DecomposeContext, which degrades rather than fails, a cancelled build
// returns a wrapped ctx error: a half-built graph has no degraded form.
func BuildGraphContext(ctx context.Context, l *Layout, opts BuildOptions) (*DecompGraph, error) {
	return core.BuildGraphContext(ctx, l, opts)
}

// DecomposeGraph colors an already-built decomposition graph.
func DecomposeGraph(g *DecompGraph, opts Options) (*Result, error) {
	return core.DecomposeGraph(g, opts)
}

// ApplyEdits incrementally re-decomposes an edited layout: l and prev are
// the layout and Result of the previous run under the same opts. Only the
// dirty region — edited features, neighbors within the coloring distance
// whose fragmentation changed, and the connected components touching them —
// is rebuilt and re-solved; every other component keeps its prior colors.
// For the deterministic engines the result is exactly what a from-scratch
// Decompose of the edited layout would return (DESIGN.md §6); the
// randomized harness in internal/core/incremental_test.go and the
// FuzzApplyEdits fuzz target enforce that equivalence.
func ApplyEdits(l *Layout, prev *Result, edits []Edit, opts Options) (*Layout, *Result, *EditStats, error) {
	return core.ApplyEdits(context.Background(), l, prev, edits, opts)
}

// ApplyEditsContext is ApplyEdits with the cancellation semantics of
// DecomposeContext: a dead context degrades the dirty components to the
// linear-time fallback instead of failing.
func ApplyEditsContext(ctx context.Context, l *Layout, prev *Result, edits []Edit, opts Options) (*Layout, *Result, *EditStats, error) {
	return core.ApplyEdits(ctx, l, prev, edits, opts)
}

// EditLayout applies the edits to the layout without decomposing anything —
// the pure geometry half of ApplyEdits.
func EditLayout(l *Layout, edits []Edit) (*Layout, error) {
	return core.EditLayout(l, edits)
}

// ParseAlgorithm maps "ilp", "sdp-backtrack", "sdp-greedy" or "linear" to
// an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Verify independently recounts conflicts and stitches from fragment
// geometry (a cross-check of graph construction and coloring).
func Verify(r *Result) (conflicts, stitches int, err error) {
	return core.VerifySolution(r)
}

// ReadLayout parses a layout file in either the text (.lay) or binary
// (.layb) format, sniffing the header.
func ReadLayout(path string) (*Layout, error) { return layout.ReadAny(path) }

// Benchmark generation: deterministic synthetic stand-ins for the paper's
// scaled ISCAS benchmark suite (see DESIGN.md §2 for the substitution).

// BenchmarkCircuit describes one synthetic benchmark circuit.
type BenchmarkCircuit = synth.Spec

// BenchmarkSuite lists the fifteen Table 1 circuits in paper order.
func BenchmarkSuite() []BenchmarkCircuit {
	return append([]BenchmarkCircuit(nil), synth.Table1...)
}

// PentupleSuite lists the six densest circuits evaluated in Table 2.
func PentupleSuite() []string {
	return append([]string(nil), synth.Table2Names...)
}

// GenerateBenchmark builds the named synthetic circuit at the given scale
// (1.0 = nominal size; generation is deterministic).
func GenerateBenchmark(name string, scale float64) (*Layout, error) {
	return synth.GenerateByName(name, scale)
}

// GenerateBenchmarkSeeded is GenerateBenchmark with an extra seed mixed
// into the circuit's deterministic base seed, producing layout variants of
// one circuit. Seed 0 reproduces GenerateBenchmark bit for bit.
func GenerateBenchmarkSeeded(name string, scale float64, seed int64) (*Layout, error) {
	spec, ok := synth.ByName(name)
	if !ok {
		return nil, fmt.Errorf("mpl: unknown circuit %q", name)
	}
	return synth.GenerateSeeded(spec, scale, seed), nil
}

// BalanceMasks rotates whole components' colors to even out per-mask
// pattern density without changing conflicts or stitches (the
// balanced-density extension). It mutates res.Colors and returns the
// density spread before and after.
func BalanceMasks(res *Result) (before, after float64) {
	return core.BalanceMasks(res)
}
