package core

// Incremental (ECO) decomposition: ApplyEdits re-decomposes an edited layout
// in time proportional to the dirty region instead of re-running the whole
// build → division → solve pipeline (DESIGN.md §6).
//
// The correctness contract is observable equivalence: for deterministic
// engines (Linear, SDP+Greedy, SDP+Backtrack — everything except the
// wall-clock-budgeted ILP) an uncancelled ApplyEdits returns exactly the
// Result a from-scratch Decompose of the edited layout would return — same
// colors, same conflict/stitch counts, same graph. The proof rests on three
// invariants:
//
//  1. Canonical graphs. BuildGraph emits adjacency lists sorted ascending,
//     so a decomposition graph is a pure function of its edge set — never
//     of grid geometry or scan order. ApplyEdits can therefore splice
//     reused adjacency into freshly discovered edges and land on the
//     byte-identical graph a scratch build would produce.
//  2. Locality of construction. A feature's fragmentation depends only on
//     neighbors within MinS (projection intervals), and an edge only on the
//     geometry of its two endpoints. Features outside the dirty region keep
//     their fragments, and pairs of such features keep their edges.
//  3. Component independence. The division pipeline solves each connected
//     component of the (conflict ∪ stitch) graph in isolation, so a
//     component whose induced subgraph is unchanged — same vertices in the
//     same relative order, same edges, no vertex lost to the edit — must
//     receive the same colors from the same deterministic engine. Those
//     components keep their prior colors; only the rest are re-solved.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/division"
	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/spatial"
)

// EditOp selects the kind of one layout edit.
type EditOp uint8

// The three ECO operations. Feature indices follow the usual editing
// convention: each op addresses the layout as left by the ops before it —
// EditRemove shifts later features down, EditAdd appends at the end.
const (
	// EditAdd appends Edit.Shape as a new feature.
	EditAdd EditOp = iota
	// EditRemove deletes feature Edit.Feature.
	EditRemove
	// EditMove translates feature Edit.Feature by (Edit.DX, Edit.DY).
	EditMove
)

// String implements fmt.Stringer.
func (op EditOp) String() string {
	switch op {
	case EditAdd:
		return "add"
	case EditRemove:
		return "remove"
	case EditMove:
		return "move"
	}
	return fmt.Sprintf("EditOp(%d)", int(op))
}

// Edit is one ECO operation on a layout.
type Edit struct {
	// Op selects the operation.
	Op EditOp
	// Feature is the target feature index (EditRemove, EditMove).
	Feature int
	// Shape is the added feature geometry (EditAdd).
	Shape geom.Polygon
	// DX, DY is the translation in database units (EditMove).
	DX, DY int
}

// EditStats reports how much work one ApplyEdits call reused versus redid.
type EditStats struct {
	// Edits is the number of operations applied.
	Edits int
	// SuspectFeatures counts unedited features close enough to an edit
	// (within MinS) that their stitch fragmentation had to be re-derived
	// and compared against the prior build.
	SuspectFeatures int
	// RebuiltFeatures counts features whose fragments were rebuilt: the
	// edited features plus every suspect whose fragmentation changed.
	RebuiltFeatures int
	// ReusedFragments and RebuiltFragments partition the new graph's
	// vertices by provenance.
	ReusedFragments  int
	RebuiltFragments int
	// Components is the connected-component count of the post-edit graph;
	// ResolvedComponents of them intersected the dirty region and were
	// re-solved (ResolvedFragments vertices in total), CopiedComponents
	// kept their prior colors verbatim.
	Components         int
	ResolvedComponents int
	CopiedComponents   int
	ResolvedFragments  int
	// BuildTime is the incremental graph rebuild; SolveTime is division
	// plus color assignment over the dirty components.
	BuildTime time.Duration
	SolveTime time.Duration
}

// EditLayout returns the layout obtained by applying the edits in order,
// without decomposing anything. The input layout is not modified. It is the
// pure layout half of ApplyEdits, split out so callers (the serving layer)
// can hash the post-edit geometry before deciding whether a cached result
// already covers it.
func EditLayout(l *layout.Layout, edits []Edit) (*layout.Layout, error) {
	plan, err := planEdits(l, edits)
	if err != nil {
		return nil, err
	}
	return plan.newLayout(l), nil
}

// featureState tracks one post-edit feature back to its pre-edit identity.
type featureState struct {
	// orig is the feature's index in the pre-edit layout, or -1 for
	// features added by an edit.
	orig int
	// edited is true when the geometry differs from the pre-edit layout
	// (added or moved features).
	edited bool
	shape  geom.Polygon
}

// editPlan is the resolved edit batch: the post-edit feature list plus the
// bounding boxes of every piece of geometry that appeared or disappeared.
type editPlan struct {
	feats []featureState
	// dirty holds the bounds of all edited geometry — the old position of
	// removed and moved features and the new position of added and moved
	// ones. Everything within MinS of a dirty rect is suspect.
	dirty []geom.Rect
}

func planEdits(l *layout.Layout, edits []Edit) (*editPlan, error) {
	feats := make([]featureState, len(l.Features))
	for i, f := range l.Features {
		feats[i] = featureState{orig: i, shape: f}
	}
	p := &editPlan{feats: feats}
	for ei, e := range edits {
		switch e.Op {
		case EditAdd:
			if !e.Shape.Valid() || !e.Shape.Connected() {
				return nil, fmt.Errorf("core: edit %d: added feature is invalid or disconnected", ei)
			}
			p.feats = append(p.feats, featureState{orig: -1, edited: true, shape: e.Shape})
			p.dirty = append(p.dirty, e.Shape.Bounds())
		case EditRemove:
			if e.Feature < 0 || e.Feature >= len(p.feats) {
				return nil, fmt.Errorf("core: edit %d: remove of feature %d out of range [0,%d)", ei, e.Feature, len(p.feats))
			}
			p.dirty = append(p.dirty, p.feats[e.Feature].shape.Bounds())
			p.feats = append(p.feats[:e.Feature], p.feats[e.Feature+1:]...)
		case EditMove:
			if e.Feature < 0 || e.Feature >= len(p.feats) {
				return nil, fmt.Errorf("core: edit %d: move of feature %d out of range [0,%d)", ei, e.Feature, len(p.feats))
			}
			fs := &p.feats[e.Feature]
			p.dirty = append(p.dirty, fs.shape.Bounds())
			fs.shape = fs.shape.Translate(e.DX, e.DY)
			fs.edited = true
			p.dirty = append(p.dirty, fs.shape.Bounds())
		default:
			return nil, fmt.Errorf("core: edit %d: unknown op %v", ei, e.Op)
		}
	}
	return p, nil
}

// newLayout materializes the post-edit layout.
func (p *editPlan) newLayout(l *layout.Layout) *layout.Layout {
	shapes := make([]geom.Polygon, len(p.feats))
	for i, fs := range p.feats {
		shapes[i] = fs.shape
	}
	return &layout.Layout{Name: l.Name, Process: l.Process, Features: shapes}
}

// ApplyEdits incrementally re-decomposes an edited layout. l and prev are
// the layout and Result of the previous run (a Decompose of l, or a prior
// ApplyEdits that returned l) under the same opts; the returned layout is
// the post-edit geometry and the returned Result is its decomposition.
// Neither input is modified.
//
// Only the dirty region pays: fragments are rebuilt for edited features and
// for unedited features within MinS whose stitch fragmentation actually
// changed; edges are rediscovered only around rebuilt fragments; and only
// the connected components that intersect the dirty region are re-solved —
// every other component keeps its prior colors, which is exact, not an
// approximation, because its solver input is provably unchanged (see the
// package comment above and DESIGN.md §6). Conflict/stitch totals are
// updated by subtracting the invalidated components' old contribution and
// adding the re-solved components' new one.
//
// Cancellation follows DecomposeContext: a cancelled ctx degrades the dirty
// components to the linear-time fallback (Result.Degraded counts them)
// instead of failing. A degraded incremental result is still a valid
// coloring but no longer matches a from-scratch run.
func ApplyEdits(ctx context.Context, l *layout.Layout, prev *Result, edits []Edit, opts Options) (*layout.Layout, *Result, *EditStats, error) {
	if _, err := ParseEngine(opts.Engine); err != nil {
		return nil, nil, nil, err
	}
	opts = opts.withDefaults()
	if prev == nil || prev.Graph == nil {
		return nil, nil, nil, fmt.Errorf("core: ApplyEdits needs the previous result")
	}
	pg := prev.Graph
	if pg.Stats.Features != len(l.Features) {
		return nil, nil, nil, fmt.Errorf("core: previous result covers %d features, layout has %d", pg.Stats.Features, len(l.Features))
	}
	if len(prev.Colors) != len(pg.Fragments) {
		return nil, nil, nil, fmt.Errorf("core: previous result is inconsistent: %d colors for %d fragments", len(prev.Colors), len(pg.Fragments))
	}
	// Copied components are only valid under the exact options that
	// produced prev — engine, seed, division ablations, stitch settings,
	// everything. Compare the full normalized options, ignoring only the
	// result-neutral worker counts.
	want, have := opts, prev.Options
	want.Division.Workers, have.Division.Workers = 0, 0
	want.Build.Workers, have.Build.Workers = 0, 0
	if want != have {
		return nil, nil, nil, fmt.Errorf("core: previous result was solved under different options (%+v) than requested (%+v)", prev.Options, opts)
	}
	minS := opts.Build.MinS
	if minS == 0 {
		minS = l.Process.MinColoringDistance(opts.Build.K)
	}
	if minS <= 0 {
		return nil, nil, nil, fmt.Errorf("core: non-positive minimum coloring distance %d", minS)
	}
	if pg.MinS != minS || pg.HalfPitch != l.Process.HalfPitch {
		return nil, nil, nil, fmt.Errorf("core: previous result was built with mins=%d hp=%d, options derive mins=%d hp=%d",
			pg.MinS, pg.HalfPitch, minS, l.Process.HalfPitch)
	}

	plan, err := planEdits(l, edits)
	if err != nil {
		return nil, nil, nil, err
	}
	newL := plan.newLayout(l)
	if err := newL.Validate(); err != nil {
		return nil, nil, nil, err
	}

	// The incremental path is the regular stage pipeline with the Build
	// and Partition stages substituted by their dirty-region versions: the
	// build reuses every provably unchanged fragment and edge, the
	// partition classifies components as copy-safe versus dirty, the
	// divide/merge tail is shared with the from-scratch run (divide runs
	// the regular division pipeline over the dirty subgraph; merge applies
	// component-local objective deltas instead of a full recount).
	es := &EditStats{Edits: len(edits)}
	run := &editRun{l: l, newL: newL, prev: prev, plan: plan, opts: opts, minS: minS, es: es}
	rec := pipeline.NewRecorder()
	p := pipeline.New(rec,
		pipeline.Func(pipeline.StageBuild, run.build),
		pipeline.Func(pipeline.StagePartition, run.partition),
		pipeline.Composite(run.divide),
		pipeline.Func(pipeline.StageMerge, run.merge),
	)
	if err := p.Run(ctx); err != nil {
		return nil, nil, nil, err
	}
	run.res.DivisionStats.Stages = pipeline.MergeStages(run.res.DivisionStats.Stages, rec.Snapshot())
	return newL, run.res, es, nil
}

// incrementalGraph is the output of the dirty-region graph rebuild: the
// post-edit decomposition graph plus the fragment provenance maps the
// component diff needs.
type incrementalGraph struct {
	dg *Graph
	// oldToNew maps pre-edit fragment indices to post-edit ones (-1 when
	// the fragment's feature was removed or rebuilt); newToOld is the
	// inverse (-1 for rebuilt fragments). Both maps are monotonic on their
	// defined entries — feature order is preserved by edits — which is why
	// reused components keep their vertices in the same relative order.
	oldToNew []int32
	newToOld []int32
}

// rebuildGraph reconstructs the decomposition graph of the edited layout,
// reusing every fragment and every adjacency entry whose inputs provably
// did not change. The result is identical to BuildGraph(newLayout) — the
// equivalence harness and FuzzApplyEdits check this end to end.
func rebuildGraph(l, newL *layout.Layout, prev *Result, plan *editPlan, opts Options, minS int, es *EditStats) (*incrementalGraph, error) {
	pg := prev.Graph
	hp := l.Process.HalfPitch
	nf := len(plan.feats)
	nOld := len(pg.Fragments)

	// Prior fragments per pre-edit feature, for piece reuse and comparison.
	oldFragsOf := make([][]int32, len(l.Features))
	for i, fr := range pg.Fragments {
		oldFragsOf[fr.Feature] = append(oldFragsOf[fr.Feature], int32(i))
	}

	// Stage 1: fragmentation. Edited features always re-split; unedited
	// features within MinS of edited geometry ("suspects") re-split too,
	// because their projection intervals may have changed — but they count
	// as rebuilt only if the pieces actually differ. Everything else reuses
	// its prior pieces untouched (fragmentation is MinS-local).
	rebuild := make([]bool, nf)
	for fi, fs := range plan.feats {
		if fs.edited {
			rebuild[fi] = true
		}
	}
	var splitter *stitchSplitter
	if !opts.Build.DisableStitches {
		minSeg := opts.Build.StitchMinSeg
		if minSeg == 0 {
			minSeg = newL.Process.MinWidth
		}
		maxStitch := opts.Build.MaxStitchesPerFeature
		if maxStitch == 0 {
			maxStitch = 2
		}
		splitter = newStitchSplitter(newL, minS, minSeg, maxStitch)
	}
	suspect := make([]bool, nf)
	if splitter != nil {
		for _, dr := range plan.dirty {
			splitter.grid.Near(dr, minS, func(id int) {
				fi := splitter.owner[id]
				if !rebuild[fi] && !suspect[fi] {
					suspect[fi] = true
					es.SuspectFeatures++
				}
			})
		}
	}
	// Re-split features append their pieces to one rect arena; spans[fi]
	// locates a rebuilt feature's pieces there (n == 0: the feature is whole).
	var sc splitScratch
	if splitter != nil {
		sc.q = splitter.grid.NewQuerier()
		defer sc.q.Release()
		defer splitter.grid.Release()
	}
	split := func(fi int) pieceSpan {
		if splitter == nil {
			return pieceSpan{}
		}
		off := len(sc.rects)
		return pieceSpan{off: int32(off), n: int32(splitter.splitInto(&sc, fi, plan.feats[fi].shape))}
	}
	// samePieces reports whether the fresh split sp of feature fi equals
	// its prior fragmentation.
	samePieces := func(fi int, sp pieceSpan) bool {
		ids := oldFragsOf[plan.feats[fi].orig]
		if sp.n == 0 {
			return len(ids) == 1 && slices.Equal(pg.Fragments[ids[0]].Shape.Rects, plan.feats[fi].shape.Rects)
		}
		if len(ids) != int(sp.n) {
			return false
		}
		for k, id := range ids {
			at := int(sp.off) + k
			if !slices.Equal(pg.Fragments[id].Shape.Rects, sc.rects[at:at+1]) {
				return false
			}
		}
		return true
	}
	spans := make([]pieceSpan, nf)
	for fi := range plan.feats {
		switch {
		case rebuild[fi]:
			spans[fi] = split(fi)
		case suspect[fi]:
			sp := split(fi)
			if samePieces(fi, sp) {
				sc.rects = sc.rects[:sp.off] // stable: keep the prior pieces
			} else {
				rebuild[fi] = true
				spans[fi] = sp
			}
		}
		if rebuild[fi] {
			es.RebuiltFeatures++
		}
	}

	// Stage 2: fragment numbering (feature order, like a scratch build) and
	// the old↔new index maps for stable features.
	var frags []Fragment
	oldToNew := make([]int32, nOld)
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for fi, fs := range plan.feats {
		base := len(frags)
		if rebuild[fi] {
			frags = appendFragments(frags, fi, fs.shape, spans[fi], sc.rects)
			es.RebuiltFragments += len(frags) - base
			continue
		}
		for k, of := range oldFragsOf[fs.orig] {
			frags = append(frags, Fragment{Feature: fi, Shape: pg.Fragments[of].Shape})
			oldToNew[of] = int32(base + k)
		}
		es.ReusedFragments += len(frags) - base
	}
	nNew := len(frags)
	newToOld := make([]int32, nNew)
	for i := range newToOld {
		newToOld[i] = -1
	}
	for of, nw := range oldToNew {
		if nw >= 0 {
			newToOld[nw] = int32(of)
		}
	}

	// Stage 3: edge rediscovery around rebuilt fragments only. Edges
	// between two reused fragments are unchanged by construction (their
	// geometry is untouched), so the prior adjacency is spliced in; every
	// pair with a rebuilt endpoint is re-derived from geometry via a fresh
	// spatial grid. Near's candidate filter is a pure distance predicate,
	// so the discovered edge set matches a scratch scan exactly.
	radius := minS + hp
	minSq := int64(minS) * int64(minS)
	friendOuter := int64(radius) * int64(radius)
	grid := spatial.NewGrid(newL.Bounds().Expand(radius+1), radius, nNew)
	defer grid.Release()
	for _, fr := range frags {
		grid.Insert(fr.Shape.Bounds())
	}
	confOf := make([][]int32, nNew)
	friendOf := make([][]int32, nNew)
	for of := 0; of < nOld; of++ {
		i := oldToNew[of]
		if i < 0 {
			continue
		}
		for _, oj := range pg.G.ConflictNeighbors(of) {
			if j := oldToNew[oj]; int(oj) > of && j >= 0 {
				confOf[i] = append(confOf[i], j)
			}
		}
		for _, oj := range pg.G.FriendNeighbors(of) {
			if j := oldToNew[oj]; int(oj) > of && j >= 0 {
				friendOf[i] = append(friendOf[i], j)
			}
		}
	}
	var touched []int32
	for u := 0; u < nNew; u++ {
		if newToOld[u] >= 0 {
			continue // reused fragment: its new pairs are found from the rebuilt side
		}
		fu := frags[u]
		grid.Near(fu.Shape.Bounds(), radius, func(v int) {
			if v == u || frags[v].Feature == fu.Feature {
				return
			}
			d := geom.GapSqPoly(fu.Shape, frags[v].Shape)
			if d >= friendOuter {
				return
			}
			lo, hi := int32(u), int32(v)
			if lo > hi {
				lo, hi = hi, lo
			}
			if d <= minSq {
				confOf[lo] = append(confOf[lo], hi)
			} else {
				friendOf[lo] = append(friendOf[lo], hi)
			}
			touched = append(touched, lo)
		})
	}
	// Canonicalize the touched lists: spliced prior entries are already
	// sorted (canonical input graph, monotonic index map), fresh pairs
	// land unsorted and — when both endpoints are rebuilt — twice.
	slices.Sort(touched)
	touched = slices.Compact(touched)
	for _, i := range touched {
		slices.Sort(confOf[i])
		confOf[i] = slices.Compact(confOf[i])
		slices.Sort(friendOf[i])
		friendOf[i] = slices.Compact(friendOf[i])
	}

	// Stage 4: assemble in scratch-build order — stitch edges feature by
	// feature, then conflict/friend adjacency ascending — so the graph is
	// byte-identical to BuildGraph(newL).
	g := graph.New(nNew)
	stats := BuildStats{Features: nf, Fragments: nNew, Workers: 1}
	if !opts.Build.DisableStitches {
		for lo := 0; lo < nNew; {
			hi := lo + 1
			for hi < nNew && frags[hi].Feature == frags[lo].Feature {
				hi++
			}
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					if geom.GapSqPoly(frags[i].Shape, frags[j].Shape) == 0 && g.AddStitch(i, j) {
						stats.StitchEdges++
					}
				}
			}
			lo = hi
		}
	}
	for i := 0; i < nNew; i++ {
		for _, j := range confOf[i] {
			if g.AddConflict(i, int(j)) {
				stats.ConflictEdges++
			}
		}
		for _, j := range friendOf[i] {
			if g.AddFriend(i, int(j)) {
				stats.FriendEdges++
			}
		}
	}
	dg := &Graph{G: g, Fragments: frags, Stats: stats, MinS: minS, HalfPitch: hp}
	return &incrementalGraph{dg: dg, oldToNew: oldToNew, newToOld: newToOld}, nil
}

// editRun carries one ApplyEdits call through the stage pipeline: the
// dirty-region Build and Partition substitutions, then the divide/merge
// tail every solve path shares.
type editRun struct {
	l, newL *layout.Layout
	prev    *Result
	plan    *editPlan
	opts    Options
	minS    int
	es      *EditStats

	ib *incrementalGraph

	// partition output: the copy-safe components' colors pre-filled, the
	// dirty vertex union, and the copied-vertex masks the merge deltas
	// need.
	colors    []int
	dirty     []int
	copiedOld []bool
	copiedNew []bool

	// divide output.
	unproven    atomic.Bool
	solverNanos atomic.Int64
	dstats      division.Stats

	res *Result
}

// build is the dirty-region Build stage: reconstruct the decomposition
// graph reusing every provably unchanged fragment and adjacency entry.
func (r *editRun) build(context.Context) error {
	t0 := time.Now()
	ib, err := rebuildGraph(r.l, r.newL, r.prev, r.plan, r.opts, r.minS, r.es)
	if err != nil {
		return err
	}
	r.es.BuildTime = time.Since(t0)
	ib.dg.Stats.Timing.Total = r.es.BuildTime
	r.ib = ib
	return nil
}

// partition is the dirty-region Partition stage: classify each post-edit
// component as copy-safe (prior colors reused verbatim) or dirty (queued
// for the divide stage).
func (r *editRun) partition(context.Context) error {
	prev, ib := r.prev, r.ib
	pg := prev.Graph
	g := ib.dg.G
	nNew := g.N()

	// A component may keep its prior colors only if its solver input is
	// provably the input the prior run solved: every vertex is a reused
	// fragment, and no vertex's old component reached a fragment that was
	// removed or rebuilt (otherwise the old component was larger than this
	// one and its coloring reflects constraints that are gone). Checking
	// each vertex's old conflict/stitch neighbors covers exactly that: a
	// missing neighbor is a lost constraint, and transitively the check
	// walks the whole old component. Friend edges need no check — they
	// only influence a solver within one component, and a friend edge to a
	// vanished fragment necessarily crossed a component boundary or its
	// loss is caught by the conflict/stitch walk.
	copySafe := func(comp []int) bool {
		for _, v := range comp {
			ov := ib.newToOld[v]
			if ov < 0 {
				return false
			}
			for _, w := range pg.G.ConflictNeighbors(int(ov)) {
				if ib.oldToNew[w] < 0 {
					return false
				}
			}
			for _, w := range pg.G.StitchNeighbors(int(ov)) {
				if ib.oldToNew[w] < 0 {
					return false
				}
			}
		}
		return true
	}

	comps := g.Components()
	r.es.Components = len(comps)
	r.colors = make([]int, nNew)
	for i := range r.colors {
		r.colors[i] = coloring.Uncolored
	}
	r.copiedOld = make([]bool, pg.G.N())
	r.copiedNew = make([]bool, nNew)
	for _, comp := range comps {
		if copySafe(comp) {
			for _, v := range comp {
				ov := ib.newToOld[v]
				r.colors[v] = prev.Colors[ov]
				r.copiedOld[ov] = true
				r.copiedNew[v] = true
			}
			r.es.CopiedComponents++
		} else {
			r.dirty = append(r.dirty, comp...)
			r.es.ResolvedComponents++
		}
	}
	return nil
}

// divide re-solves the dirty components exactly as a scratch run would:
// the induced subgraph over their union has those components as its
// components, and the double relabeling is order-preserving over canonical
// adjacency, so each engine sees the same per-component input a full
// DecomposeGraph would hand it. Composite — division tallies its own
// simplify/partition/dispatch/stitch regions into the run's stats.
func (r *editRun) divide(ctx context.Context) error {
	tSolve := time.Now()
	if len(r.dirty) > 0 {
		sort.Ints(r.dirty)
		tally := newEngineTally()
		// Same env coupling as the from-scratch divide: one scratch pool,
		// one worker-budget shared between division workers and the SDP
		// restart fan-out.
		env := pipeline.Env{Scratch: sharedScratch, Budget: pipeline.NewBudget(r.opts.Division.Workers)}
		inner := makeSolver(ctx, r.opts, &r.unproven, tally, env)
		var shapeStats *shapeTally
		if r.opts.Memoize {
			shapeStats = newShapeTally()
			inner = memoSolver(ctx, r.opts, inner, &r.unproven, tally, sharedShapes, shapeStats)
		}
		solver := func(sg *graph.Graph, sc *pipeline.Scratch) []int {
			t := time.Now()
			out := inner(sg, sc)
			r.solverNanos.Add(int64(time.Since(t)))
			return out
		}
		sub, orig := r.ib.dg.G.Subgraph(r.dirty)
		subColors, st := division.DecomposeEnv(ctx, sub, r.opts.Division, env, solver)
		for i, v := range orig {
			r.colors[v] = subColors[i]
		}
		tally.drainInto(&st)
		if shapeStats != nil {
			shapeStats.drainInto(&st)
		}
		r.dstats = st
		r.es.ResolvedFragments = len(r.dirty)
	}
	r.es.SolveTime = time.Since(tSolve)
	return nil
}

// merge validates the stitched-together coloring and updates the objective
// totals by component-local deltas. Conflict and stitch edges never cross
// component boundaries, so the copied components' contribution is
// byte-for-byte the same in both runs: subtract the old totals of
// everything not copied, add the new totals of everything re-solved (or
// newly built).
func (r *editRun) merge(context.Context) error {
	prev, ib := r.prev, r.ib
	pg := prev.Graph
	g := ib.dg.G
	nNew := g.N()
	nOld := pg.G.N()
	colors := r.colors

	if err := coloring.Validate(g, colors, r.opts.K); err != nil {
		return fmt.Errorf("core: internal error: %w", err)
	}

	conf, stit := prev.Conflicts, prev.Stitches
	for ov := 0; ov < nOld; ov++ {
		if r.copiedOld[ov] {
			continue
		}
		for _, w := range pg.G.ConflictNeighbors(ov) {
			if int(w) > ov && prev.Colors[ov] == prev.Colors[w] {
				conf--
			}
		}
		for _, w := range pg.G.StitchNeighbors(ov) {
			if int(w) > ov && prev.Colors[ov] != prev.Colors[w] {
				stit--
			}
		}
	}
	for v := 0; v < nNew; v++ {
		if r.copiedNew[v] {
			continue
		}
		for _, w := range g.ConflictNeighbors(v) {
			if int(w) > v && colors[v] == colors[w] {
				conf++
			}
		}
		for _, w := range g.StitchNeighbors(v) {
			if int(w) > v && colors[v] != colors[w] {
				stit++
			}
		}
	}

	r.res = &Result{
		Graph:         ib.dg,
		Colors:        colors,
		Conflicts:     conf,
		Stitches:      stit,
		Proven:        prev.Proven && !r.unproven.Load() && r.dstats.Fallbacks == 0,
		AssignTime:    r.es.SolveTime,
		SolverTime:    time.Duration(r.solverNanos.Load()),
		DivisionStats: r.dstats,
		Degraded:      r.dstats.Fallbacks,
		K:             r.opts.K,
		Alpha:         r.opts.Alpha,
		Options:       r.opts,
	}
	return nil
}
