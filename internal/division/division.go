// Package division implements the graph-division pipeline of Section 4 of
// the DAC'14 paper. Color assignment is exponential in the worst case, so
// the decomposition graph is shrunk before any solver runs:
//
//  1. independent component computation — each connected component is
//     processed separately;
//  2. iterative removal of vertices with conflict degree < K (and stitch
//     degree < 2), which can always be re-colored legally afterwards;
//  3. 2-vertex-connected (biconnected) component computation — blocks meet
//     only at articulation vertices, and a color rotation aligns each block
//     to the already-colored cut vertex;
//  4. GH-tree based (K−1)-cut removal (Section 4.1, Algorithm 3) — tree
//     edges with weight < K split the block into pieces joined by fewer
//     than K conflict edges; after independent coloring, each piece is
//     rotated so that no cut edge becomes a conflict (Lemma 1 guarantees a
//     safe rotation exists; Theorem 2 generalizes to any K).
//
// The pipeline is solver-agnostic: any function that colors one connected
// component can be plugged in, which is how the ILP / SDP / linear engines
// of the paper's Tables 1–2 share identical division treatment.
//
// In stage terms (internal/pipeline), this package implements the middle
// of the flow: step 2 is the Simplify stage, steps 1, 3 and 4 are the
// Partition stage, each solver call is one Dispatch, and every reassembly
// action — block rotations, GH cut rotations, peel-stack pops — is the
// Stitch stage. Per-stage wall time is tallied into Stats.Stages (summed
// across workers like every other Stats field), and each worker threads a
// pipeline.Scratch arena into its solver calls so engines reuse hot-path
// buffers instead of re-allocating them per piece.
package division

import (
	"context"
	"sort"
	"sync"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/ghtree"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

// Solver colors one connected decomposition (sub)graph with K colors,
// returning one color in [0, K) per vertex. The scratch arena is the
// calling worker's (nil-safe, single-goroutine); engines carve reusable
// workspace from it and must not retain carved buffers past the call's
// consumption — see pipeline.Scratch.
type Solver func(g *graph.Graph, sc *pipeline.Scratch) []int

// Env is the cross-cutting pipeline machinery of one decomposition run:
// the scratch-buffer pool workers lease their arenas from and the shared
// parallelism budget the worker pool hands its idle slots back to (so
// nested engine fan-outs, like the SDP restart runners, can claim them).
// The zero value disables both — every buffer request allocates and
// nested parallelism never engages.
type Env = pipeline.Env

// Options controls which division techniques run. The zero value enables
// everything with the paper's parameters except K, which must be set.
type Options struct {
	// K is the number of masks.
	K int
	// Alpha is the stitch weight used when scoring reassembly rotations
	// and stack pops (paper: 0.1).
	Alpha float64
	// DisablePeeling skips low-degree vertex removal (ablation).
	DisablePeeling bool
	// DisableBiconnected skips the biconnected split (ablation).
	DisableBiconnected bool
	// DisableGHTree skips GH-tree (K−1)-cut division (ablation).
	DisableGHTree bool
	// GHTreeMaxN caps the component size for which a GH tree is built
	// (n−1 max-flows get expensive on huge blocks); 0 means 3000.
	GHTreeMaxN int
	// MaxStitchDegree bounds dstit for peeling; 0 means the paper's 2.
	MaxStitchDegree int
	// Workers sets the number of goroutines coloring independent
	// components concurrently; 0 or 1 means serial. Results are
	// deterministic regardless of worker count because components are
	// disjoint and each is solved from the same inputs — but the solver
	// must be safe for concurrent calls.
	Workers int
	// Linear tunes the linear-time engine used as the cancellation
	// fallback, so degraded pieces honor the same heuristic settings as a
	// configured AlgLinear run. A zero value means K/Alpha with the
	// paper's defaults.
	Linear coloring.LinearOptions
}

func (o Options) withDefaults() Options {
	if o.K < 2 {
		panic("division: K must be >= 2")
	}
	if o.GHTreeMaxN == 0 {
		o.GHTreeMaxN = 3000
	}
	if o.MaxStitchDegree == 0 {
		o.MaxStitchDegree = 2
	}
	o.Linear.K = o.K
	if o.Linear.Alpha == 0 {
		o.Linear.Alpha = o.Alpha
	}
	return o
}

// Stats reports how much structure the pipeline exposed.
type Stats struct {
	Components   int // independent components
	Peeled       int // vertices removed by low-degree peeling
	Blocks       int // biconnected blocks solved
	GHComponents int // pieces created by (K−1)-cut removal
	SolverCalls  int // invocations of the underlying solver
	Fallbacks    int // pieces colored by the linear fallback after cancellation

	// Engines is the per-engine dispatch histogram: how many pieces each
	// named engine colored. The pipeline itself records only "fallback"
	// (the cancellation path of callSolver); the portfolio dispatcher in
	// internal/core fills in the engine names it routed pieces to, so a
	// fixed-engine run shows one bucket, an auto/race run shows the mix.
	// Lazily allocated — a Stats with no dispatches has a nil map.
	Engines map[string]int

	// Stages is the per-stage telemetry of the run, keyed by the
	// pipeline.Stage* names. This package tallies the stages it owns
	// (simplify, partition, dispatch, stitch; wall summed across workers,
	// like SolverTime); internal/core folds in the build and merge stages
	// around it. Lazily allocated, merged across workers like Engines.
	Stages map[string]pipeline.StageStats

	// Shapes reports the shape memoization counters of the run
	// (core's Options.Memoize). Like Engines, the counters are
	// produced by the dispatcher in internal/core — this package never
	// touches them — and arrive after the division finishes; worker-level
	// Stats always carry zeros here.
	Shapes ShapeStats

	// Balance is the dispatch-imbalance gauge of the run: the busy-time
	// extremes of the worker pool. A max/min ratio near 1 means LPT
	// scheduling kept the pool saturated; a large ratio means one
	// straggler component dominated the wall clock (which is exactly when
	// the shared parallelism budget lets that component's SDP restarts
	// fan out over the idle workers).
	Balance Balance
}

// Balance reports how evenly the parallel Dispatch fan-out loaded the
// worker pool. Unlike every other Stats field it merges by extremes, not
// sums: each worker contributes its own total busy time, and the
// aggregate keeps the max and the min observed.
type Balance struct {
	// Workers counts pool workers that processed at least one component
	// (a serial run reports 1). Workers that never received a job carry
	// no busy-time signal and are excluded.
	Workers int
	// MaxBusy and MinBusy are the busiest and least-busy workers' total
	// in-job wall time. Across runs (the service aggregate) they are the
	// lifetime extremes.
	MaxBusy time.Duration
	MinBusy time.Duration
}

// Merge folds another pool's (or worker's) balance into b, keeping the
// busy-time extremes: worker counts sum, MaxBusy/MinBusy stay the extremes
// observed. The zero value is the identity. The service aggregate uses the
// same rule, so /v1/stats reports lifetime extremes.
func (b *Balance) Merge(o Balance) {
	if o.Workers == 0 {
		return
	}
	if b.Workers == 0 {
		*b = o
		return
	}
	b.Workers += o.Workers
	if o.MaxBusy > b.MaxBusy {
		b.MaxBusy = o.MaxBusy
	}
	if o.MinBusy < b.MinBusy {
		b.MinBusy = o.MinBusy
	}
}

// ShapeStats counts shape-cache traffic for one run: Hits is solver pieces
// answered from the cache, Misses is pieces that went to an engine (cache
// miss or memoization bypass), Distinct is the number of distinct piece
// encodings the run touched (never more than Hits + Misses).
type ShapeStats struct {
	Hits     int
	Misses   int
	Distinct int
}

// AddEngine accumulates n dispatches of the named engine into the
// histogram, allocating it on first use.
func (s *Stats) AddEngine(name string, n int) {
	if s.Engines == nil {
		s.Engines = make(map[string]int)
	}
	s.Engines[name] += n
}

// AddStage accumulates one timed region into the named stage bucket.
func (s *Stats) AddStage(name string, d time.Duration) {
	if s.Stages == nil {
		s.Stages = make(map[string]pipeline.StageStats, 8)
	}
	cur := s.Stages[name]
	cur.Wall += d
	cur.Calls++
	s.Stages[name] = cur
}

// addWorker accumulates one worker's per-component counters into s.
// Components is global (the component count, known before any worker runs)
// and is deliberately excluded. Every other field MUST be summed here —
// TestStatsMergeCoversAllFields enforces this by reflection, so a field
// added to Stats without a matching line below fails the suite instead of
// silently under-reporting in parallel runs.
func (s *Stats) addWorker(o Stats) {
	s.Peeled += o.Peeled
	s.Blocks += o.Blocks
	s.GHComponents += o.GHComponents
	s.SolverCalls += o.SolverCalls
	s.Fallbacks += o.Fallbacks
	for name, n := range o.Engines {
		s.AddEngine(name, n)
	}
	s.Stages = pipeline.MergeStages(s.Stages, o.Stages)
	s.Shapes.Hits += o.Shapes.Hits
	s.Shapes.Misses += o.Shapes.Misses
	s.Shapes.Distinct += o.Shapes.Distinct
	s.Balance.Merge(o.Balance)
}

// Decompose divides the graph, colors every piece with solve, and
// reassembles a full coloring.
func Decompose(g *graph.Graph, opts Options, solve Solver) ([]int, Stats) {
	return DecomposeContext(context.Background(), g, opts, solve)
}

// DecomposeContext is Decompose with cooperative cancellation. Every vertex
// still receives a valid color: pieces whose solve has not started when ctx
// is cancelled are colored by the linear-time heuristic (Algorithm 2)
// instead of the configured engine, and Stats.Fallbacks counts them. In
// parallel mode the worker pool drains its queued components the same way,
// so a cancelled call returns as soon as in-flight solver calls notice the
// cancellation rather than after the full queue is solved at full quality.
func DecomposeContext(ctx context.Context, g *graph.Graph, opts Options, solve Solver) ([]int, Stats) {
	return DecomposeEnv(ctx, g, opts, Env{}, solve)
}

// DecomposeEnv is DecomposeContext with an explicit pipeline environment:
// a scratch pool for per-worker engine arenas and the run's shared
// parallelism budget. Stats.Stages is tallied either way; the env only
// decides whether buffers are pooled and whether idle worker slots are
// handed to nested engine fan-outs.
func DecomposeEnv(ctx context.Context, g *graph.Graph, opts Options, env Env, solve Solver) ([]int, Stats) {
	opts = opts.withDefaults()
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	var st Stats
	tPart := time.Now()
	// Component discovery shards across the division worker pool on large
	// graphs (lock-free union-find over the CSR arenas); the result is
	// byte-identical to a serial scan at any worker count.
	comps := g.ComponentsWorkers(opts.Workers)
	// LPT (longest-processing-time-first) scheduling order for the parallel
	// pool: heaviest components first, sized by vertex count plus CSR
	// degree sum — a subgraph-free proxy for solve cost — with discovery
	// order breaking ties (stable sort), so a straggler component starts as
	// early as possible instead of arriving last into an otherwise-drained
	// pool. Computed inside the same Partition region as discovery so the
	// per-stage call structure stays identical at any worker count.
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
	if opts.Workers <= 1 {
		sc := env.Scratch.Get()
		defer env.Scratch.Put(sc)
		var busy time.Duration
		for _, comp := range comps {
			t0 := time.Now()
			decomposeComponent(ctx, g, comp, colors, opts, solve, &st, sc)
			busy += time.Since(t0)
		}
		if len(comps) > 0 {
			st.Balance = Balance{Workers: 1, MaxBusy: busy, MinBusy: busy}
		}
		return colors, st
	}

	// Parallel mode: components are vertex-disjoint, so goroutines read and
	// write non-overlapping entries of the shared graph's colors (every
	// conflict and stitch neighbor of a vertex lies in its own component);
	// per-worker stats merge at the end.
	//
	// Components enter the (pre-filled, closed) jobs channel in the LPT
	// order computed above. Scheduling order is observably identical to
	// discovery order: each component is solved from the same inputs, the
	// writes are vertex-disjoint, and the per-worker stats merge the same
	// way regardless of which worker ran which job.
	type job struct{ comp []int }
	jobs := make(chan job, len(comps))
	if order != nil {
		for _, ci := range order {
			jobs <- job{comp: comps[ci]}
		}
	} else {
		for _, comp := range comps {
			jobs <- job{comp: comp}
		}
	}
	close(jobs)

	// Spare worker slots — workers this run will never spawn because there
	// are fewer components than Options.Workers — go straight to the shared
	// budget, where a huge component's SDP restart fan-out can claim them.
	spawn := opts.Workers
	if len(comps) < spawn {
		spawn = len(comps)
	}
	for w := spawn; w < opts.Workers; w++ {
		env.Budget.Free()
	}

	workerStats := make([]Stats, spawn)
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func(ws *Stats) {
			defer wg.Done()
			// The jobs channel is pre-filled and closed, so when this
			// worker's receive fails it is permanently idle: its slot
			// returns to the shared budget for nested fan-outs of the
			// still-running workers.
			defer env.Budget.Free()
			sc := env.Scratch.Get()
			defer env.Scratch.Put(sc)
			var busy time.Duration
			jobsRun := 0
			for j := range jobs {
				t0 := time.Now()
				decomposeComponent(ctx, g, j.comp, colors, opts, solve, ws, sc)
				busy += time.Since(t0)
				jobsRun++
			}
			if jobsRun > 0 {
				ws.Balance = Balance{Workers: 1, MaxBusy: busy, MinBusy: busy}
			}
		}(&workerStats[w])
	}
	wg.Wait()
	for _, ws := range workerStats {
		st.addWorker(ws)
	}
	return colors, st
}

// subgraphTimed extracts an induced subgraph under the Partition stage
// clock (structural splitting is partition work wherever it happens).
func subgraphTimed(g *graph.Graph, vertices []int, st *Stats) (*graph.Graph, []int) {
	t0 := time.Now()
	sub, orig := g.Subgraph(vertices)
	st.AddStage(pipeline.StagePartition, time.Since(t0))
	return sub, orig
}

// callSolver invokes the engine for one piece unless ctx is already
// cancelled, in which case the linear-time heuristic colors it instead
// (the piece is connected, so quality degrades but validity never does).
// Either way the piece is one Dispatch-stage region.
func callSolver(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch) []int {
	t0 := time.Now()
	defer func() { st.AddStage(pipeline.StageDispatch, time.Since(t0)) }()
	select {
	case <-ctx.Done():
		st.Fallbacks++
		st.AddEngine("fallback", 1)
		return coloring.Linear(g, opts.Linear)
	default:
		st.SolverCalls++
		return solve(g, sc)
	}
}

// decomposeComponent handles one connected component of g, given as its
// ascending vertex list, writing its colors straight into the run's colors
// array: peel on g itself, solve the core (via biconnected + GH division),
// then pop the peel stack. Only a non-empty core is extracted as an induced
// subgraph. The outcome equals solving the component's own subgraph: a
// FIFO peel over the ascending component visits vertices in the same
// relative order as on the monotonically relabeled subgraph, and
// g.Subgraph(core) is that subgraph's core subgraph.
func decomposeComponent(ctx context.Context, g *graph.Graph, comp, colors []int, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch) {
	var stack []int
	core := comp
	if !opts.DisablePeeling {
		tSimp := time.Now()
		stack, core = g.PeelOrder(opts.K, opts.MaxStitchDegree, comp)
		st.AddStage(pipeline.StageSimplify, time.Since(tSimp))
		st.Peeled += len(stack)
	}

	if len(core) > 0 {
		coreSub, coreOrig := subgraphTimed(g, core, st)
		// Peeling can disconnect the core; re-split into components.
		tPart := time.Now()
		coreComps := coreSub.Components()
		st.AddStage(pipeline.StagePartition, time.Since(tPart))
		for _, cc := range coreComps {
			ccSub, ccOrig := subgraphTimed(coreSub, cc, st)
			ccColors := solveCore(ctx, ccSub, opts, solve, st, sc)
			for i, v := range ccOrig {
				colors[coreOrig[v]] = ccColors[i]
			}
			// Engine-returned slices are freshly allocated and consumed by
			// the copy above, so adopting them into the worker's freelist
			// is safe and lets the next piece reuse the memory.
			sc.PutInts(ccColors)
		}
	}

	// Pop the stack in reverse removal order; a conflict-free color always
	// exists (the peeling invariant), stitch cost breaks ties.
	tStitch := time.Now()
	for i := len(stack) - 1; i >= 0; i-- {
		v := stack[i]
		colors[v] = cheapestColor(g, colors, v, opts.K, opts.Alpha)
	}
	if len(stack) > 0 {
		st.AddStage(pipeline.StageStitch, time.Since(tStitch))
	}
}

// solveCore applies the biconnected split to one connected core component.
func solveCore(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch) []int {
	if opts.DisableBiconnected {
		st.Blocks++
		return solveBlock(ctx, g, opts, solve, st, sc)
	}
	tPart := time.Now()
	blocks, _ := g.BiconnectedComponents()
	st.AddStage(pipeline.StagePartition, time.Since(tPart))
	if len(blocks) == 1 {
		st.Blocks++
		return solveBlock(ctx, g, opts, solve, st, sc)
	}

	n := g.N()
	colors := sc.Ints(n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}

	// Process blocks in an order where each new block shares at most one
	// already-colored vertex (BFS over the block-cut structure); rotate the
	// block's fresh coloring so that vertex matches.
	vertexBlocks := make(map[int][]int) // vertex -> block indices
	for bi, b := range blocks {
		for _, v := range b {
			vertexBlocks[v] = append(vertexBlocks[v], bi)
		}
	}
	done := make([]bool, len(blocks))
	queue := []int{0}
	done[0] = true
	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		st.Blocks++
		block := blocks[bi]
		bsub, borig := subgraphTimed(g, block, st)
		bcolors := solveBlock(ctx, bsub, opts, solve, st, sc)

		// Find the anchor: a vertex already colored by an earlier block.
		tStitch := time.Now()
		rot := 0
		for i, v := range borig {
			if colors[v] != coloring.Uncolored {
				rot = (colors[v] - bcolors[i]%opts.K + 2*opts.K) % opts.K
				break
			}
		}
		for i, v := range borig {
			if colors[v] == coloring.Uncolored {
				colors[v] = (bcolors[i] + rot) % opts.K
			}
		}
		sc.PutInts(bcolors)
		st.AddStage(pipeline.StageStitch, time.Since(tStitch))
		for _, v := range block {
			for _, nb := range vertexBlocks[v] {
				if !done[nb] {
					done[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return colors
}

// solveBlock applies GH-tree (K−1)-cut division to one biconnected block
// (Algorithm 3) and reassembles with color rotations.
func solveBlock(ctx context.Context, g *graph.Graph, opts Options, solve Solver, st *Stats, sc *pipeline.Scratch) []int {
	n := g.N()
	if opts.DisableGHTree || n > opts.GHTreeMaxN || n < 2 {
		return callSolver(ctx, g, opts, solve, st, sc)
	}
	tPart := time.Now()
	tr := ghtree.BuildFromConflictGraphScratch(ctx, g, sc)
	if tr == nil {
		// Cancelled during (or before) the n−1 max-flows: skip GH division
		// and let callSolver route the whole block to the linear fallback.
		st.AddStage(pipeline.StagePartition, time.Since(tPart))
		return callSolver(ctx, g, opts, solve, st, sc)
	}
	comps := tr.ComponentsBelowWeight(int64(opts.K))
	st.AddStage(pipeline.StagePartition, time.Since(tPart))
	if len(comps) == 1 {
		return callSolver(ctx, g, opts, solve, st, sc)
	}
	st.GHComponents += len(comps)

	colors := sc.Ints(n)
	for i := range colors {
		colors[i] = coloring.Uncolored
	}
	for _, comp := range comps {
		csub, corig := subgraphTimed(g, comp, st)
		// The piece may itself be disconnected once cut edges are ignored;
		// components inside it are solved independently (their relative
		// rotation is later fixed edge by edge).
		tSplit := time.Now()
		ccs := csub.Components()
		st.AddStage(pipeline.StagePartition, time.Since(tSplit))
		for _, cc := range ccs {
			ccSub, ccOrig := subgraphTimed(csub, cc, st)
			ccColors := callSolver(ctx, ccSub, opts, solve, st, sc)
			for i, v := range ccOrig {
				colors[corig[v]] = ccColors[i]
			}
			sc.PutInts(ccColors)
		}
	}

	// Color rotation (Lemma 1): for every removed tree edge, deepest
	// first, rotate the subtree side by the value that minimizes the cost
	// of the crossing edges. The cut-tree property bounds the crossing
	// conflict edges by K−1, so a conflict-free rotation always exists.
	tStitch := time.Now()
	ces := g.ConflictEdges()
	ses := g.StitchEdges()
	for _, cut := range tr.CutEdgesBelowWeight(int64(opts.K)) {
		mask := tr.SubtreeMask(cut.Child)
		bestRot, bestCost := 0, 1e18
		for r := 0; r < opts.K; r++ {
			cost := 0.0
			for _, e := range ces {
				if mask[e.U] != mask[e.V] {
					cu, cv := colors[e.U], colors[e.V]
					if mask[e.U] {
						cu = (cu + r) % opts.K
					} else {
						cv = (cv + r) % opts.K
					}
					if cu == cv {
						cost++
					}
				}
			}
			for _, e := range ses {
				if mask[e.U] != mask[e.V] {
					cu, cv := colors[e.U], colors[e.V]
					if mask[e.U] {
						cu = (cu + r) % opts.K
					} else {
						cv = (cv + r) % opts.K
					}
					if cu != cv {
						cost += opts.Alpha
					}
				}
			}
			if cost < bestCost-1e-12 {
				bestCost = cost
				bestRot = r
			}
		}
		if bestRot != 0 {
			for v := 0; v < n; v++ {
				if mask[v] {
					colors[v] = (colors[v] + bestRot) % opts.K
				}
			}
		}
	}
	st.AddStage(pipeline.StageStitch, time.Since(tStitch))
	return colors
}

// cheapestColor assigns v the color minimizing conflicts (then α-weighted
// stitches) against currently colored neighbors.
func cheapestColor(g *graph.Graph, colors []int, v, k int, alpha float64) int {
	bestCol, bestCost := 0, 1e18
	for c := 0; c < k; c++ {
		cost := 0.0
		for _, w := range g.ConflictNeighbors(v) {
			if colors[w] == c {
				cost++
			}
		}
		for _, w := range g.StitchNeighbors(v) {
			if colors[w] != coloring.Uncolored && colors[w] != c {
				cost += alpha
			}
		}
		if cost < bestCost-1e-12 {
			bestCost = cost
			bestCol = c
		}
	}
	return bestCol
}
