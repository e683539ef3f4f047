package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpl/internal/balance"
	"mpl/internal/coloring"
	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/portfolio"
	"mpl/internal/sdp"
	"mpl/internal/spatial"
)

// Algorithm selects the color-assignment engine of Section 3.
type Algorithm int

// The four engines compared in Tables 1 and 2 of the paper.
const (
	// AlgILP is the exact integer-linear-programming baseline.
	AlgILP Algorithm = iota
	// AlgSDPBacktrack is SDP relaxation + merged-graph backtracking (Alg. 1).
	AlgSDPBacktrack
	// AlgSDPGreedy is SDP relaxation + greedy mapping.
	AlgSDPGreedy
	// AlgLinear is the linear-time color assignment (Alg. 2).
	AlgLinear
)

// String implements fmt.Stringer with the paper's column names.
func (a Algorithm) String() string {
	switch a {
	case AlgILP:
		return "ILP"
	case AlgSDPBacktrack:
		return "SDP+Backtrack"
	case AlgSDPGreedy:
		return "SDP+Greedy"
	case AlgLinear:
		return "Linear"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Engine values: the per-component engine policy of Options.Engine. The
// empty string keeps the classic behavior — Options.Algorithm applied
// uniformly to every component.
const (
	// EngineFixed applies Options.Algorithm to every component.
	EngineFixed = ""
	// EngineAuto selects an engine per component from its structure
	// (internal/portfolio thresholds over size, density, odd cycles).
	EngineAuto = "auto"
	// EngineRace runs two candidate engines per component concurrently
	// under Options.RaceBudget, keeping the provably-optimal or better
	// result and cancelling the loser.
	EngineRace = "race"
)

// ParseEngine validates an engine policy name ("", "auto" or "race").
func ParseEngine(s string) (string, error) {
	switch s {
	case EngineFixed, EngineAuto, EngineRace:
		return s, nil
	}
	return "", fmt.Errorf("core: unknown engine %q (want \"auto\", \"race\" or empty for fixed)", s)
}

// ParseAlgorithm maps a command-line name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "ilp":
		return AlgILP, nil
	case "sdp", "sdp-backtrack", "backtrack":
		return AlgSDPBacktrack, nil
	case "sdp-greedy", "greedy":
		return AlgSDPGreedy, nil
	case "linear":
		return AlgLinear, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want ilp, sdp-backtrack, sdp-greedy or linear)", s)
}

// Options configures a decomposition run. The zero value plus K is usable;
// defaults follow the paper (α = 0.1, t_th = 0.9, all division techniques).
type Options struct {
	// K is the number of masks; 0 means 4 (quadruple patterning).
	K int
	// Algorithm picks the color-assignment engine applied to every
	// component when Engine is empty (the fixed policy).
	Algorithm Algorithm
	// Engine selects the per-component engine policy: EngineFixed (""),
	// EngineAuto or EngineRace. Auto and race ignore Algorithm and pick
	// engines per component (internal/portfolio).
	Engine string
	// Portfolio tunes the auto/race selection thresholds; the zero value
	// uses the BENCH-calibrated defaults. Ignored when Engine is fixed.
	Portfolio portfolio.Thresholds
	// RaceBudget is the shared per-component deadline of EngineRace: both
	// racers run under one child context bounded by it, so a component can
	// never hold the race longer than this even when the request context
	// has a distant deadline. 0 means 2s; negative disables the bound
	// (the request context still applies).
	RaceBudget time.Duration
	// Alpha is the stitch weight; 0 means 0.1.
	Alpha float64
	// Threshold is Algorithm 1's merge threshold t_th; 0 means 0.9.
	Threshold float64
	// Seed drives the SDP solver's deterministic restarts.
	Seed int64
	// ILPTimeLimit bounds the total ILP solve time across components; the
	// zero value means 60 s (the paper used 3600 s on full-chip cases).
	ILPTimeLimit time.Duration
	// BacktrackNodeLimit bounds Algorithm 1's search; 0 means 2e6 nodes.
	BacktrackNodeLimit int64
	// SDPRestarts / SDPMaxIter tune the relaxation solver (0 = defaults).
	SDPRestarts int
	SDPMaxIter  int
	// Memoize enables exact-encoding memoization of Dispatch solves
	// (DESIGN.md §11): every solver piece of at most 4096 vertices is
	// serialized, and byte-identical repeats of an already-solved piece are
	// answered from a process-wide shape cache instead of re-running an
	// engine. Results are byte-identical to a memo-off run. Ignored
	// (forced off) by EngineRace, whose winners are wall-clock dependent.
	Memoize bool
	// Build controls graph construction.
	Build BuildOptions
	// Division toggles the Section 4 techniques (ablations).
	Division division.Options
	// Linear tunes Algorithm 2.
	Linear coloring.LinearOptions
}

// Normalize returns o with every defaulted field resolved to the value
// Decompose would actually use (K=4, α=0.1, t_th=0.9, ...), so that two
// Options spellings of the same run compare — and hash — equal. It panics
// for K == 1 or negative K, like Decompose.
func (o Options) Normalize() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.K < 2 {
		panic("core: K must be >= 2")
	}
	if o.Alpha == 0 {
		o.Alpha = 0.1
	}
	if o.Threshold == 0 {
		o.Threshold = 0.9
	}
	if o.ILPTimeLimit == 0 {
		o.ILPTimeLimit = 60 * time.Second
	}
	// Engine-policy fields normalize to what the run actually reads, so
	// two spellings of the same run compare — and cache/session-key —
	// equal: a fixed-engine run reads neither portfolio field, auto reads
	// only the thresholds, only race reads the budget, and neither
	// adaptive policy ever reads Algorithm.
	switch o.Engine {
	case EngineFixed:
		o.Portfolio = portfolio.Thresholds{}
		o.RaceBudget = 0
	case EngineAuto:
		o.Algorithm = 0
		o.Portfolio = o.Portfolio.WithDefaults()
		o.RaceBudget = 0
	default:
		o.Algorithm = 0
		o.Portfolio = o.Portfolio.WithDefaults()
		if o.RaceBudget == 0 {
			o.RaceBudget = 2 * time.Second
		}
		// A race winner is wall-clock dependent, so caching its colors
		// would replay one timing outcome forever; memoization is a no-op
		// under race and normalizes off so option spellings compare equal.
		o.Memoize = false
	}
	o.Build.K = o.K
	o.Division.K = o.K
	o.Division.Alpha = o.Alpha
	o.Linear.K = o.K
	o.Linear.Alpha = o.Alpha
	// The cancellation fallback must honor the same linear-engine tuning
	// as a configured AlgLinear run.
	o.Division.Linear = o.Linear
	return o
}

// Result is a completed decomposition.
type Result struct {
	// Graph is the decomposition graph the solution colors.
	Graph *Graph
	// Colors holds one mask index in [0, K) per fragment.
	Colors []int
	// Conflicts and Stitches are the objective values (Table 1's cn#/st#).
	Conflicts int
	Stitches  int
	// Proven is false when the ILP engine hit its time budget — the
	// paper's "N/A (>3600s)" condition.
	Proven bool
	// AssignTime is the total time of division plus color assignment.
	AssignTime time.Duration
	// SolverTime is the time spent inside the per-component color
	// assignment engine only. This matches the paper's CPU(s) column:
	// Section 6 reports "color assignment time", with graph construction
	// and graph division being separate stages of the Fig. 2 flow. With
	// Division.Workers > 1 it sums across goroutines (CPU time, not wall
	// clock).
	SolverTime time.Duration
	// DivisionStats reports what the pipeline did, including the
	// per-stage telemetry map (DivisionStats.Stages, keyed by the
	// pipeline.Stage* names) covering every stage this call actually ran:
	// build appears for Decompose/DecomposeContext/ApplyEdits but not for
	// DecomposeGraph* (the graph was built earlier, possibly by someone
	// else's call — the serving layer re-attaches its own build timing).
	DivisionStats division.Stats
	// Degraded counts graph pieces colored by the linear-time fallback
	// because the context was cancelled (or its deadline passed) before
	// their engine solve started. Zero for an uncancelled run; when
	// positive, the coloring is valid but Proven is false and quality is
	// that of AlgLinear on the affected pieces.
	Degraded int
	// K and Alpha echo the options used.
	K     int
	Alpha float64
	// Options records the full normalized options of the run (worker
	// counts as requested). ApplyEdits compares them — ignoring the
	// result-neutral worker counts — against its own options, because
	// colors copied from this result are only valid under the exact
	// engine, seed, division, and stitch settings that produced them.
	Options Options
}

// Masks groups fragment shapes by assigned mask.
func (r *Result) Masks() [][]geom.Polygon {
	out := make([][]geom.Polygon, r.K)
	for i, c := range r.Colors {
		out[c] = append(out[c], r.Graph.Fragments[i].Shape)
	}
	return out
}

// sharedScratch is the process-wide scratch-arena pool every solve path
// leases per-worker buffers from: division workers thread an arena into
// each engine call (SDP matrix workspace), race-mode racers lease their
// own, and pooled arenas survive across service requests, so steady-state
// serving stops re-allocating hot-path memory. The allocation benchmarks
// (BenchmarkRepeatedSolve) compare this pool against an unpooled one.
var sharedScratch = pipeline.NewScratchPool()

// Decompose runs the full flow of Fig. 2 on a layout.
func Decompose(l *layout.Layout, opts Options) (*Result, error) {
	return DecomposeContext(context.Background(), l, opts)
}

// DecomposeContext is Decompose with cooperative cancellation: when ctx is
// cancelled (or its deadline passes), in-flight engine solves stop at their
// next cancellation checkpoint and return their incumbent, and pieces whose
// solve has not started fall back to the linear-time heuristic. The call
// therefore still returns a valid Result — with Degraded counting the
// fallback pieces and Proven false — rather than an error, so a serving
// layer can always answer with its best effort under a deadline.
func DecomposeContext(ctx context.Context, l *layout.Layout, opts Options) (*Result, error) {
	if _, err := ParseEngine(opts.Engine); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	rec := pipeline.NewRecorder()
	var dg *Graph
	// The build deliberately ignores ctx: the degraded-result contract of
	// this API promises a valid best-effort coloring even when ctx is
	// already dead, and a half-built graph has no degraded form — an
	// abort-and-rebuild would only ever add work. Parallelism still applies
	// (opts.Build.Workers); callers that prefer abort-on-cancel semantics
	// compose BuildGraphContext with DecomposeGraphContext themselves.
	build := pipeline.Func(pipeline.StageBuild, func(context.Context) error {
		var err error
		//lint:ignore ctxflow deliberate: a half-built graph has no degraded form, so aborting the build only adds work (see comment above)
		dg, err = BuildGraph(l, opts.Build)
		return err
	})
	if err := pipeline.New(rec, build).Run(ctx); err != nil {
		return nil, err
	}
	return decomposeGraph(ctx, dg, opts, rec, sharedScratch, sharedShapes)
}

// DecomposeGraph colors an already-built decomposition graph; callers that
// sweep algorithms over one layout (cmd/evaluate) build the graph once.
func DecomposeGraph(dg *Graph, opts Options) (*Result, error) {
	return DecomposeGraphContext(context.Background(), dg, opts)
}

// DecomposeGraphContext is DecomposeGraph with the cancellation semantics
// of DecomposeContext.
func DecomposeGraphContext(ctx context.Context, dg *Graph, opts Options) (*Result, error) {
	if _, err := ParseEngine(opts.Engine); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	return decomposeGraph(ctx, dg, opts, pipeline.NewRecorder(), sharedScratch, sharedShapes)
}

// graphRun carries one graph-coloring run through the stage pipeline. The
// divide stage is composite — internal/division tallies the Simplify,
// Partition, Dispatch and Stitch regions it interleaves per component —
// while Merge (validate + count + assemble) is recorded by the pipeline
// itself, and any stages the caller already ran (the Build of
// DecomposeContext, the incremental stages of ApplyEdits) arrive through
// the shared recorder.
type graphRun struct {
	dg     *Graph
	opts   Options
	pool   *pipeline.ScratchPool
	shapes *flight.Cache[[]int]

	colors     []int
	stats      division.Stats
	unproven   atomic.Bool
	solverNs   atomic.Int64
	assignTime time.Duration
	res        *Result
}

// divide runs graph division with the configured engine dispatcher over
// the shared scratch pool. The run's pipeline environment couples the
// division worker pool to the engines: one scratch pool for every arena
// lease, and one parallelism budget (sized to Division.Workers) shared by
// component-level workers and the SDP restart fan-out, so their combined
// goroutine count never exceeds the configured worker allowance.
func (r *graphRun) divide(ctx context.Context) error {
	start := time.Now()
	tally := newEngineTally()
	env := pipeline.Env{Scratch: r.pool, Budget: pipeline.NewBudget(r.opts.Division.Workers)}
	inner := makeSolver(ctx, r.opts, &r.unproven, tally, env)
	var shapeStats *shapeTally
	if r.opts.Memoize {
		shapeStats = newShapeTally()
		inner = memoSolver(ctx, r.opts, inner, &r.unproven, tally, r.shapes, shapeStats)
	}
	solver := func(g *graph.Graph, sc *pipeline.Scratch) []int {
		t0 := time.Now()
		colors := inner(g, sc)
		r.solverNs.Add(int64(time.Since(t0)))
		return colors
	}
	r.colors, r.stats = division.DecomposeEnv(ctx, r.dg.G, r.opts.Division, env, solver)
	tally.drainInto(&r.stats)
	if shapeStats != nil {
		shapeStats.drainInto(&r.stats)
	}
	r.assignTime = time.Since(start)
	return nil
}

// merge validates the full coloring, counts the objective, and assembles
// the Result.
func (r *graphRun) merge(context.Context) error {
	if err := coloring.Validate(r.dg.G, r.colors, r.opts.K); err != nil {
		return fmt.Errorf("core: internal error: %w", err)
	}
	conf, stit := coloring.Count(r.dg.G, r.colors)
	r.res = &Result{
		Graph:         r.dg,
		Colors:        r.colors,
		Conflicts:     conf,
		Stitches:      stit,
		Proven:        !r.unproven.Load() && r.stats.Fallbacks == 0,
		AssignTime:    r.assignTime,
		SolverTime:    time.Duration(r.solverNs.Load()),
		DivisionStats: r.stats,
		Degraded:      r.stats.Fallbacks,
		K:             r.opts.K,
		Alpha:         r.opts.Alpha,
		Options:       r.opts,
	}
	return nil
}

// decomposeGraph is the shared stage composition of every from-scratch
// solve: divide (composite) then merge, with rec carrying stages the
// caller already ran. opts must be validated and defaulted. Production
// callers pass sharedScratch and sharedShapes; the allocation benchmarks
// swap the scratch pool, and equivalence tests a fresh shape cache whose
// hit/miss counters don't depend on what earlier tests populated.
func decomposeGraph(ctx context.Context, dg *Graph, opts Options, rec *pipeline.Recorder, pool *pipeline.ScratchPool, shapes *flight.Cache[[]int]) (*Result, error) {
	run := &graphRun{dg: dg, opts: opts, pool: pool, shapes: shapes}
	p := pipeline.New(rec,
		pipeline.Composite(run.divide),
		pipeline.Func(pipeline.StageMerge, run.merge),
	)
	if err := p.Run(ctx); err != nil {
		return nil, err
	}
	// Fold the pipeline-recorded stages (build, merge) into the division
	// tally so the Result carries the complete per-stage map.
	run.res.DivisionStats.Stages = pipeline.MergeStages(run.res.DivisionStats.Stages, rec.Snapshot())
	return run.res, nil
}

// engineTally accumulates the per-engine dispatch histogram while division
// workers run the solver concurrently; drainInto publishes it to
// division.Stats.Engines once the pipeline has finished.
type engineTally struct {
	mu sync.Mutex
	m  map[string]int
}

func newEngineTally() *engineTally { return &engineTally{m: make(map[string]int)} }

func (t *engineTally) add(name string) {
	t.mu.Lock()
	t.m[name]++
	t.mu.Unlock()
}

func (t *engineTally) drainInto(st *division.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, n := range t.m {
		st.AddEngine(name, n)
	}
}

// classSolver builds the context-aware solver for one portfolio engine
// class. The unproven flag is set when this engine's exact search is cut
// short (node limit, time budget, or ctx cancellation mid-solve); callers
// racing engines pass per-racer flags so a cancelled loser cannot taint the
// winner's provenness. fellBack (nil-safe) is set when the piece was not
// colored by the class at all — the ILP budget was already spent and the
// linear fallback answered — so dispatchers can attribute the piece to
// "fallback" instead of overstating the exact engine in the histogram.
// ilpDeadline is the run-global ILP budget expiry, shared across
// components like the classic AlgILP path. Solvers are safe for concurrent
// calls (division's Workers mode); each call carves its engine workspace
// from the scratch arena it is handed.
func classSolver(class portfolio.Class, opts Options, env pipeline.Env, unproven *atomic.Bool, fellBack *atomic.Bool, ilpDeadline time.Time) portfolio.Solver {
	switch class {
	case portfolio.Linear:
		lin := opts.Linear
		return func(_ context.Context, g *graph.Graph, _ *pipeline.Scratch) []int {
			return coloring.Linear(g, lin)
		}
	case portfolio.SDPGreedy:
		return func(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) []int {
			sol := solveSDP(ctx, g, opts, sc, env)
			return coloring.SDPGreedy(g, sol, opts.K, opts.Alpha)
		}
	case portfolio.SDPBacktrack:
		return func(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) []int {
			sol := solveSDP(ctx, g, opts, sc, env)
			colors, ok := coloring.SDPBacktrackContext(ctx, g, sol, opts.K, opts.Alpha, opts.Threshold, opts.BacktrackNodeLimit)
			if !ok {
				unproven.Store(true)
			}
			return colors
		}
	case portfolio.ILP:
		return func(ctx context.Context, g *graph.Graph, _ *pipeline.Scratch) []int {
			remaining := time.Until(ilpDeadline)
			if remaining <= 0 {
				unproven.Store(true)
				if fellBack != nil {
					fellBack.Store(true)
				}
				// Budget exhausted: greedy fallback keeps the run going so
				// the harness can still report a (non-optimal) solution.
				return coloring.Linear(g, opts.Linear)
			}
			res := coloring.ILPAssignContext(ctx, g, opts.K, opts.Alpha, remaining)
			if !res.Proven {
				unproven.Store(true)
			}
			return res.Colors
		}
	default:
		panic(fmt.Sprintf("core: unknown engine class %v", class))
	}
}

// classOf maps the classic Algorithm enum to its portfolio class.
func classOf(a Algorithm) portfolio.Class {
	switch a {
	case AlgILP:
		return portfolio.ILP
	case AlgSDPBacktrack:
		return portfolio.SDPBacktrack
	case AlgSDPGreedy:
		return portfolio.SDPGreedy
	case AlgLinear:
		return portfolio.Linear
	}
	panic(fmt.Sprintf("core: unknown algorithm %v", a))
}

// engineLabel is the histogram bucket of one dispatched piece: the engine
// class that colored it, or "fallback" when the class never ran (the ILP
// budget was already spent and the linear fallback answered) — the same
// bucket division's cancellation path uses, per docs/API.md.
func engineLabel(class portfolio.Class, fellBack bool) string {
	if fellBack {
		return "fallback"
	}
	return class.String()
}

// makeSolver builds the per-component solve function the division pipeline
// calls — the Dispatch stage's dispatcher: the fixed Options.Algorithm
// engine, or the adaptive auto/race portfolio when Options.Engine is set.
// The unproven flag is set when the kept result's exact search was cut
// short (node limit, time budget, or ctx cancellation mid-solve) — in race
// mode a cancelled loser does not taint it. Every dispatch is tallied per
// engine name into tally, with budget-fallback pieces attributed to
// "fallback", not their class. The worker's scratch arena is threaded into
// the engine (auto/fixed); race-mode racers lease their own arenas from
// the run's pool, because a cancelled loser may still be writing to its
// arena after the race returns. The env additionally carries the run's
// parallelism budget down into the SDP restart fan-out.
func makeSolver(ctx context.Context, opts Options, unproven *atomic.Bool, tally *engineTally, env pipeline.Env) division.Solver {
	// The shared ILP budget is a wall-clock deadline by contract: budget
	// exhaustion degrades pieces to the linear fallback, tallied as
	// "fallback" and surfaced via Proven=false — never as different bytes
	// under a proven label (portfolio_gate_test pins this).
	//lint:ignore determinism shared ILP budget; expiry degrades to fallback + Proven=false, not silent byte drift
	ilpDeadline := time.Now().Add(opts.ILPTimeLimit)
	switch opts.Engine {
	case EngineAuto:
		return func(g *graph.Graph, sc *pipeline.Scratch) []int {
			// fell tracks, per class, whether the selected engine actually
			// ran or the spent ILP budget made the linear fallback answer.
			var fell [portfolio.NumClasses]atomic.Bool
			var engines [portfolio.NumClasses]portfolio.Solver
			for c := portfolio.Class(0); c < portfolio.NumClasses; c++ {
				engines[c] = classSolver(c, opts, env, unproven, &fell[c], ilpDeadline)
			}
			colors, out := portfolio.Auto(ctx, g, opts.Portfolio, opts.K, engines, sc)
			tally.add(engineLabel(out.Winner, fell[out.Winner].Load()))
			return colors
		}
	case EngineRace:
		return func(g *graph.Graph, _ *pipeline.Scratch) []int {
			// Per-racer provenness: only the winner's truncation (or a
			// budget expiry it survived on quality) may mark the result
			// unproven; a cancelled loser's is irrelevant. fell tracks,
			// per racer, whether the class actually ran or the spent ILP
			// budget made the linear fallback answer in its place.
			var flags, fell [portfolio.NumClasses]atomic.Bool
			var engines [portfolio.NumClasses]portfolio.Solver
			for c := portfolio.Class(0); c < portfolio.NumClasses; c++ {
				engines[c] = classSolver(c, opts, env, &flags[c], &fell[c], ilpDeadline)
			}
			colors, out := portfolio.Race(ctx, g, opts.Portfolio, opts.K, opts.Alpha, opts.RaceBudget, engines, env)
			if !out.ProvenOptimal && flags[out.Winner].Load() {
				unproven.Store(true)
			}
			tally.add(engineLabel(out.Winner, fell[out.Winner].Load()))
			return colors
		}
	}
	class := classOf(opts.Algorithm)
	return func(g *graph.Graph, sc *pipeline.Scratch) []int {
		var fell atomic.Bool
		colors := classSolver(class, opts, env, unproven, &fell, ilpDeadline)(ctx, g, sc)
		tally.add(engineLabel(class, fell.Load()))
		return colors
	}
}

func solveSDP(ctx context.Context, g *graph.Graph, opts Options, sc *pipeline.Scratch, env pipeline.Env) *sdp.Solution {
	return sdp.SolveScratchEnv(ctx, g, sdp.Options{
		K:        opts.K,
		Alpha:    opts.Alpha,
		Restarts: opts.SDPRestarts,
		MaxIter:  opts.SDPMaxIter,
		Seed:     opts.Seed,
	}, sc, env)
}

// VerifySolution independently re-derives conflicts from geometry: it
// rebuilds neighbor relations with a fresh spatial query and counts
// same-mask fragment pairs of different features within MinS, plus stitch
// mismatches between touching fragments of one feature. It must agree with
// Result.Conflicts/Stitches — a cross-check that graph construction and
// coloring agree (used by tests and cmd/qpld -verify).
func VerifySolution(r *Result) (conflicts, stitches int, err error) {
	dg := r.Graph
	if len(r.Colors) != len(dg.Fragments) {
		return 0, 0, fmt.Errorf("core: color count %d != fragment count %d", len(r.Colors), len(dg.Fragments))
	}
	minSq := int64(dg.MinS) * int64(dg.MinS)
	world := worldOf(dg)
	grid := spatial.NewGrid(world, dg.MinS+1, len(dg.Fragments))
	defer grid.Release()
	for _, fr := range dg.Fragments {
		grid.Insert(fr.Shape.Bounds())
	}
	for i := range dg.Fragments {
		fi := dg.Fragments[i]
		grid.Near(fi.Shape.Bounds(), dg.MinS, func(j int) {
			if j <= i {
				return
			}
			fj := dg.Fragments[j]
			d := geom.GapSqPoly(fi.Shape, fj.Shape)
			if fi.Feature != fj.Feature {
				if d <= minSq && r.Colors[i] == r.Colors[j] {
					conflicts++
				}
			} else if d == 0 && r.Colors[i] != r.Colors[j] {
				stitches++
			}
		})
	}
	return conflicts, stitches, nil
}

func worldOf(dg *Graph) geom.Rect {
	if len(dg.Fragments) == 0 {
		return geom.Rect{}
	}
	b := dg.Fragments[0].Shape.Bounds()
	for _, fr := range dg.Fragments[1:] {
		b = b.Union(fr.Shape.Bounds())
	}
	return b.Expand(dg.MinS + 1)
}

// BalanceMasks rebalances mask usage by rotating the colors of whole
// connected components (cost-free: conflict and stitch counts are
// invariant), the extension of the balanced-density objective from the
// paper's reference [10]. It mutates r.Colors and returns the global
// density spread (max−min over mean of per-mask area) before and after.
func BalanceMasks(r *Result) (before, after float64) {
	areas := make([]int64, len(r.Graph.Fragments))
	for i, fr := range r.Graph.Fragments {
		areas[i] = fr.Shape.Area()
	}
	before = balance.Spread(balance.MaskAreas(r.Colors, areas, r.K))
	balance.Rebalance(r.Graph.G, r.Colors, areas, r.K)
	after = balance.Spread(balance.MaskAreas(r.Colors, areas, r.K))
	return before, after
}
