// Package core assembles the full layout-decomposition flow of the DAC'14
// paper (Fig. 2): decomposition-graph construction from polygonal layout
// features (conflict edges, projection-based stitch candidates,
// color-friendly pairs), graph division, per-component color assignment
// with one of the paper's four engines, and mask output with independent
// verification.
package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpl/internal/geom"
	"mpl/internal/graph"
	"mpl/internal/layout"
	"mpl/internal/spatial"
)

// Fragment is one vertex of the decomposition graph: a piece of a layout
// feature (the whole feature when no stitch splits it).
type Fragment struct {
	// Feature is the index of the owning feature in the layout.
	Feature int
	// Shape is the fragment geometry.
	Shape geom.Polygon
}

// BuildTiming reports per-stage wall-clock times of one graph build
// (DESIGN.md §3). In a parallel build the Split and Edges stages run on the
// worker pool; Merge is the serial deterministic assembly.
type BuildTiming struct {
	// Split is the stitch-candidate stage: building the rectangle grid,
	// then features → fragments plus intra-feature stitch pair detection.
	Split time.Duration
	// Edges is conflict/color-friendly edge discovery: building the
	// fragment-bounds grid (and, in parallel builds, the tile ordering),
	// then the neighborhood scan.
	Edges time.Duration
	// Merge is the serial assembly: fragment numbering, stitch-edge
	// insertion, and (in parallel builds) the deterministic edge replay.
	Merge time.Duration
	// Total is the end-to-end BuildGraph wall clock; it exceeds
	// Split+Edges+Merge only by input validation and bookkeeping.
	Total time.Duration
}

// BuildStats summarizes a constructed decomposition graph.
type BuildStats struct {
	Features      int
	Fragments     int
	ConflictEdges int
	StitchEdges   int
	FriendEdges   int
	// Workers is the worker count the build actually used (≥ 1).
	Workers int
	// Timing is the per-stage wall clock of this build. It is the one part
	// of BuildStats that varies run to run; everything else is identical at
	// any worker count.
	Timing BuildTiming
}

// BuildOptions controls decomposition-graph construction.
type BuildOptions struct {
	// MinS is the minimum coloring distance; two fragments of different
	// features within (≤) this distance receive a conflict edge. Zero
	// derives the paper's value from the layout process and K.
	MinS int
	// K is the mask count used to derive MinS when MinS is zero.
	K int
	// DisableStitches turns off stitch candidate generation.
	DisableStitches bool
	// StitchMinSeg is the minimum fragment length left on each side of a
	// stitch; zero means the process minimum width.
	StitchMinSeg int
	// MaxStitchesPerFeature caps candidates per feature; zero means 2
	// (long wires rarely profit from more, and the cap keeps vertex counts
	// close to the paper's "stitch candidate" regime).
	MaxStitchesPerFeature int
	// Workers is the number of goroutines sharding the split and
	// edge-generation stages; 0 or 1 means serial (matching
	// division.Options.Workers). The constructed graph is identical —
	// fragment order, adjacency order, stats — at any worker count, so
	// Workers is purely a wall-clock knob.
	Workers int
}

// Graph couples the decomposition graph with fragment geometry.
type Graph struct {
	G         *graph.Graph
	Fragments []Fragment
	Stats     BuildStats
	MinS      int
	HalfPitch int
}

// BuildGraph constructs the decomposition graph of a layout (Definition 1):
// one vertex per fragment, conflict edges between fragments of different
// features within MinS, stitch edges between touching fragments of one
// feature, and color-friendly edges (Definition 2) between fragments of
// different features at distance in (MinS, MinS+hp).
func BuildGraph(l *layout.Layout, opts BuildOptions) (*Graph, error) {
	return BuildGraphContext(context.Background(), l, opts)
}

// BuildGraphContext is BuildGraph with cooperative cancellation and optional
// parallelism (BuildOptions.Workers). The build is sharded: features are
// split into stitch fragments on a bounded worker pool, fragments are
// grouped into spatial tile shards for conflict/friend edge discovery, and a
// serial merge replays everything in deterministic order, so the resulting
// graph is identical to a serial build. Unlike DecomposeContext — which
// degrades rather than fails — a half-built graph has no degraded form, so
// cancellation mid-build returns a wrapped ctx error and no graph.
func BuildGraphContext(ctx context.Context, l *layout.Layout, opts BuildOptions) (*Graph, error) {
	t0 := time.Now()
	if err := l.Validate(); err != nil {
		return nil, err
	}
	k := opts.K
	if k == 0 {
		k = 4
	}
	minS := opts.MinS
	if minS == 0 {
		minS = l.Process.MinColoringDistance(k)
	}
	if minS <= 0 {
		return nil, fmt.Errorf("core: non-positive minimum coloring distance %d", minS)
	}
	hp := l.Process.HalfPitch

	workers := opts.Workers
	if workers <= 1 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); workers > 4*max {
		// More goroutines than 4× the scheduler width only adds churn; the
		// output is identical anyway, so clamp silently.
		workers = 4 * max
		if workers < 1 {
			workers = 1
		}
	}

	b := &builder{l: l, opts: opts, minS: minS, hp: hp, workers: workers}

	// Stage 1 (parallel over features): stitch candidate generation — split
	// features into fragment pieces and detect intra-feature stitch pairs.
	tSplit := time.Now()
	if err := b.splitFeatures(ctx); err != nil {
		return nil, err
	}
	timing := BuildTiming{Split: time.Since(tSplit)}

	// Stage 2 (serial merge): number fragments in feature order and record
	// stitch pairs; fragment numbering matches a feature-by-feature serial
	// build.
	tMerge := time.Now()
	if err := b.assembleFragments(); err != nil {
		return nil, err
	}
	timing.Merge += time.Since(tMerge)

	// Stage 3 (parallel over tile shards): conflict and color-friendly edge
	// discovery via a shared read-only grid over fragment bounds. Each
	// fragment i is owned by exactly one shard, which records its neighbors
	// j > i in ascending order — the cross-tile deduplication rule: a pair
	// found from both sides is emitted only by its lower-indexed owner.
	tEdges := time.Now()
	if err := b.discoverEdges(ctx); err != nil {
		return nil, err
	}
	timing.Edges = time.Since(tEdges)

	// Stage 4 (serial merge): drain the per-shard edge lists into the CSR
	// builder and materialize the graph in one two-pass count-then-fill
	// build. The builder sorts and compacts every adjacency row, so the
	// graph is a pure function of the edge *set* — independent of grid
	// geometry, scan order, shard boundaries, and worker count. Incremental
	// rebuilds (ApplyEdits) rely on exactly this: they splice cached
	// adjacency into freshly discovered edges and must land on the same
	// canonical form as a from-scratch build.
	tMerge = time.Now()
	b.finishGraph()
	timing.Merge += time.Since(tMerge)

	timing.Total = time.Since(t0)
	b.stats.Workers = workers
	b.stats.Timing = timing
	return &Graph{G: b.g, Fragments: b.frags, Stats: b.stats, MinS: minS, HalfPitch: hp}, nil
}

// builder carries the intermediate state of one staged graph build.
type builder struct {
	l       *layout.Layout
	opts    BuildOptions
	minS    int
	hp      int
	workers int

	// Stage 1 output: per feature, where its pieces sit in the rect arena
	// of its split chunk (feature fi belongs to chunk fi/splitChunk). A
	// zero span means the feature stays whole.
	spans      []pieceSpan
	rects      [][]geom.Rect
	splitChunk int

	// Stage 2 output.
	frags []Fragment
	bld   *graph.Builder
	g     *graph.Graph
	stats BuildStats

	// Stage 3 output, indexed by shard chunk: flat (u,v) conflict and
	// color-friendly pairs, u < v (owner-computes dedup). Each chunk is
	// written by exactly one worker; the merge drains them into the CSR
	// builder, which sorts and compacts — so shard boundaries never show
	// through in the finished graph.
	confShard   [][]int32
	friendShard [][]int32
}

// buildCancelled wraps the context error so callers can errors.Is it while
// seeing which stage was abandoned.
func buildCancelled(ctx context.Context, stage string) error {
	return fmt.Errorf("core: graph construction cancelled during %s: %w", stage, context.Cause(ctx))
}

// shardPlan returns the chunk size and chunk count runSharded will use over
// [0, n), so stages that stage per-chunk output (the streamed edge lists)
// can size their slots up front.
func (b *builder) shardPlan(n int) (chunk, nChunks int) {
	chunk = n/(b.workers*4) + 1
	if chunk < 32 {
		chunk = 32
	}
	return chunk, (n + chunk - 1) / chunk
}

// runSharded executes fn over [0, n) in contiguous chunks pulled from an
// atomic cursor by min(workers, needed) goroutines. fn receives the chunk
// index alongside the range, so a stage can write per-chunk output slots
// without coordination. Chunk processing order is nondeterministic but every
// output is indexed by its input position, so results are deterministic.
// Returns promptly with ctx's error when cancelled mid-build.
func (b *builder) runSharded(ctx context.Context, n int, stage string, fn func(ci, lo, hi int)) error {
	if n == 0 {
		return nil
	}
	workers := b.workers
	chunk, nChunks := b.shardPlan(n)
	if workers > nChunks {
		workers = nChunks
	}
	if workers == 1 {
		for ci := 0; ci < nChunks; ci++ {
			if ctx.Err() != nil {
				return buildCancelled(ctx, stage)
			}
			lo := ci * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(ci, lo, hi)
		}
		return nil
	}
	var cursor atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return buildCancelled(ctx, stage)
	}
	return nil
}

// pieceSpan locates the pieces of one divided wire in its chunk's rect
// arena: n rects starting at off. n == 0 means the feature stays whole.
type pieceSpan struct {
	off, n int32
}

// splitFeatures runs stage 1: per-feature stitch splitting, sharded across
// the worker pool. Each chunk appends the pieces of its divided wires to
// its own rect arena, so output depends only on the feature index, never on
// the shard that computed it.
func (b *builder) splitFeatures(ctx context.Context) error {
	nf := len(b.l.Features)
	b.spans = make([]pieceSpan, nf)
	if b.opts.DisableStitches {
		return nil
	}
	minSeg := b.opts.StitchMinSeg
	if minSeg == 0 {
		minSeg = b.l.Process.MinWidth
	}
	maxStitch := b.opts.MaxStitchesPerFeature
	if maxStitch == 0 {
		maxStitch = 2
	}
	splitter := newStitchSplitter(b.l, b.minS, minSeg, maxStitch)
	defer splitter.grid.Release()
	queriers := newQuerierLease(splitter.grid)
	defer queriers.release()
	var nChunks int
	b.splitChunk, nChunks = b.shardPlan(nf)
	b.rects = make([][]geom.Rect, nChunks)
	return b.runSharded(ctx, nf, "stitch splitting", func(ci, lo, hi int) {
		sc := splitScratch{q: queriers.get()}
		defer queriers.put(sc.q)
		for fi := lo; fi < hi; fi++ {
			off := len(sc.rects)
			if n := splitter.splitInto(&sc, fi, b.l.Features[fi]); n > 0 {
				b.spans[fi] = pieceSpan{off: int32(off), n: int32(n)}
			}
		}
		b.rects[ci] = sc.rects
	})
}

// assembleFragments runs stage 2: deterministic fragment numbering in
// feature order and stitch-pair staging into the CSR builder. A whole
// feature's fragment references the layout polygon; a divided wire's
// fragments are capacity-clipped one-rect views into the split arena. It
// returns an error — instead of letting graph.NewBuilder panic — when the
// fragment count exceeds the int32 vertex-id capacity, so million-feature
// inputs that overshoot fail with a diagnosis rather than silent id
// truncation.
func (b *builder) assembleFragments() error {
	total := 0
	for _, p := range b.spans {
		total += max(int(p.n), 1)
	}
	if total > graph.MaxVertices {
		return fmt.Errorf("core: layout splits into %d fragments, exceeding the graph capacity of %d vertices", total, graph.MaxVertices)
	}
	b.frags = make([]Fragment, 0, total)
	b.bld = graph.NewBuilder(total)
	b.stats = BuildStats{Features: len(b.l.Features), Fragments: total}
	for fi, p := range b.spans {
		var arena []geom.Rect
		if p.n > 0 {
			arena = b.rects[fi/b.splitChunk]
		}
		base := len(b.frags)
		b.frags = appendFragments(b.frags, fi, b.l.Features[fi], p, arena)
		// Touching pieces of one wire are stitch candidates.
		for i := base; i < len(b.frags); i++ {
			for j := i + 1; j < len(b.frags); j++ {
				if geom.GapSqPoly(b.frags[i].Shape, b.frags[j].Shape) == 0 {
					b.bld.AddStitch(i, j)
				}
			}
		}
	}
	b.spans, b.rects = nil, nil
	return nil
}

// appendFragments appends the fragments of feature fi: the whole polygon f
// when sp is zero, otherwise one capacity-clipped one-rect view per piece
// of arena[sp.off : sp.off+sp.n].
func appendFragments(frags []Fragment, fi int, f geom.Polygon, sp pieceSpan, arena []geom.Rect) []Fragment {
	if sp.n == 0 {
		return append(frags, Fragment{Feature: fi, Shape: f})
	}
	for at := int(sp.off); at < int(sp.off+sp.n); at++ {
		frags = append(frags, Fragment{Feature: fi, Shape: geom.Polygon{Rects: arena[at : at+1 : at+1]}})
	}
	return frags
}

// discoverEdges runs stage 3: conflict and color-friendly candidate
// discovery over a shared fragment grid. Fragments are sorted into spatial
// tile shards so each worker's chunk touches a coherent region of the grid;
// every fragment records only neighbors with a larger index (owner-computes
// dedup: the lower-indexed endpoint owns the pair), sorted ascending so the
// final adjacency is canonical — a pure function of the edge set rather
// than of the grid's bucket enumeration order.
func (b *builder) discoverEdges(ctx context.Context) error {
	n := len(b.frags)
	if n == 0 {
		return nil
	}
	radius := b.minS + b.hp
	world := b.l.Bounds().Expand(radius + 1)
	grid := spatial.NewGrid(world, radius, n)
	defer grid.Release()
	for _, fr := range b.frags {
		grid.Insert(fr.Shape.Bounds())
	}

	// Tile sharding (parallel builds only): order fragment indices by the
	// coarse tile containing their bounds center (ties by index). Workers
	// then pull contiguous chunks of this order, so one chunk ≈ one
	// spatial tile run. The serial path scans in index order and streams
	// pairs straight into the CSR builder, so it allocates neither the
	// order nor the per-chunk staging buffers.
	var order []int32
	if b.workers > 1 {
		_, nChunks := b.shardPlan(n)
		b.confShard = make([][]int32, nChunks)
		b.friendShard = make([][]int32, nChunks)
		order = tileOrder(fragmentTiles(b.frags, world, radius))
	}

	minSq := int64(b.minS) * int64(b.minS)
	friendOuter := int64(radius) * int64(radius)
	if b.workers == 1 {
		// Serial hot path: scan with the grid's own stamps and append each
		// discovered pair to the builder as soon as the query reports it.
		// No sorting here — the CSR build's sort+compact canonicalizes.
		return b.runSharded(ctx, n, "edge generation", func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				fi := b.frags[i]
				grid.Near(fi.Shape.Bounds(), radius, func(j int) {
					if j <= i || fi.Feature == b.frags[j].Feature {
						return
					}
					d := geom.GapSqPoly(fi.Shape, b.frags[j].Shape)
					switch {
					case d <= minSq:
						b.bld.AddConflict(i, j)
					case d < friendOuter:
						b.bld.AddFriend(i, j)
					}
				})
			}
		})
	}
	queriers := newQuerierLease(grid)
	defer queriers.release()
	return b.runSharded(ctx, n, "edge generation", func(ci, lo, hi int) {
		q := queriers.get()
		defer queriers.put(q)
		conf, friend := b.confShard[ci], b.friendShard[ci]
		for _, oi := range order[lo:hi] {
			i := int(oi)
			fi := b.frags[i]
			q.Near(fi.Shape.Bounds(), radius, func(j int) {
				if j <= i || fi.Feature == b.frags[j].Feature {
					return
				}
				d := geom.GapSqPoly(fi.Shape, b.frags[j].Shape)
				switch {
				case d <= minSq:
					conf = append(conf, int32(i), int32(j))
				case d < friendOuter:
					friend = append(friend, int32(i), int32(j))
				}
			})
		}
		b.confShard[ci], b.friendShard[ci] = conf, friend
	})
}

// fragmentTiles assigns every fragment the coarse tile containing its
// bounds center: 4·radius squares over world, row-major. The tile count is
// about a sixteenth of the cell count of the radius-sized fragment grid the
// build allocates anyway, so tileOrder's buckets never dominate it.
func fragmentTiles(frags []Fragment, world geom.Rect, radius int) (tile []int32, nTiles int) {
	tileSize := 4 * radius
	cols, rows := world.Width()/tileSize+1, world.Height()/tileSize+1
	tile = make([]int32, len(frags))
	for i, fr := range frags {
		bb := fr.Shape.Bounds()
		tx := ((bb.X0+bb.X1)/2 - world.X0) / tileSize
		ty := ((bb.Y0+bb.Y1)/2 - world.Y0) / tileSize
		tile[i] = int32(ty*cols + tx)
	}
	return tile, cols * rows
}

// tileOrder returns the indices of tile ordered by (tile, index): a stable
// counting sort over tile ids in [0, nTiles), O(len(tile) + nTiles).
func tileOrder(tile []int32, nTiles int) []int32 {
	start := make([]int32, nTiles+1)
	for _, t := range tile {
		start[t+1]++
	}
	for t := 0; t < nTiles; t++ {
		start[t+1] += start[t]
	}
	order := make([]int32, len(tile))
	for i, t := range tile {
		order[start[t]] = int32(i)
		start[t]++
	}
	return order
}

// finishGraph runs stage 4: drain the per-shard edge lists into the CSR
// builder (resident pairs from a serial build are already there) and run the
// two-pass count-then-fill build. Transient degree/offset arrays come from
// the shared scratch pool; the edge arenas belong to the finished graph.
// Edge-kind totals come from the builder's compacted rows, so they equal the
// per-insert tallies of the old mutable path by construction.
func (b *builder) finishGraph() {
	var nc, nf int
	for ci := range b.confShard {
		nc += len(b.confShard[ci])
		nf += len(b.friendShard[ci])
	}
	b.bld.Grow(nc, 0, nf)
	for ci := range b.confShard {
		// Each shard is dropped as it drains, so peak heap holds one copy of
		// the edge set plus the in-progress merge buffer — not two full
		// copies for the whole drain.
		b.bld.AddConflictPairs(b.confShard[ci])
		b.confShard[ci] = nil
		b.bld.AddFriendPairs(b.friendShard[ci])
		b.friendShard[ci] = nil
	}
	b.confShard, b.friendShard = nil, nil
	sc := sharedScratch.Get()
	b.g = b.bld.Build(sc)
	sharedScratch.Put(sc)
	b.bld = nil
	b.stats.ConflictEdges = b.g.ConflictEdgeCount()
	b.stats.StitchEdges = b.g.StitchEdgeCount()
	b.stats.FriendEdges = b.g.FriendEdgeCount()
}

// querierLease is a sync.Pool of queriers over one grid that also tracks
// every querier it ever created, so the build can Release their pooled
// stamp arrays once the sharded stage finishes (a bare sync.Pool cannot be
// enumerated, which would strand the stamps until GC instead of recycling
// them into the next build).
type querierLease struct {
	p       sync.Pool
	mu      sync.Mutex
	created []*spatial.Querier
}

func newQuerierLease(grid *spatial.Grid) *querierLease {
	ql := &querierLease{}
	ql.p.New = func() any {
		q := grid.NewQuerier()
		ql.mu.Lock()
		ql.created = append(ql.created, q)
		ql.mu.Unlock()
		return q
	}
	return ql
}

func (ql *querierLease) get() *spatial.Querier  { return ql.p.Get().(*spatial.Querier) }
func (ql *querierLease) put(q *spatial.Querier) { ql.p.Put(q) }

// release recycles every created querier's stamps. Call only after all
// workers are done.
func (ql *querierLease) release() {
	ql.mu.Lock()
	defer ql.mu.Unlock()
	for _, q := range ql.created {
		q.Release()
	}
	ql.created = nil
}

// stitchSplitter implements projection-based stitch candidate generation
// (DESIGN.md §5): a wire-like rectangle may be split at positions not
// covered by the projection of any conflicting neighbor, keeping at least
// minSeg of material on each side.
type stitchSplitter struct {
	l        *layout.Layout
	minS     int
	minSeg   int
	maxCount int
	grid     *spatial.Grid // rect bounds by grid id
	owner    []int         // grid id -> feature index
}

func newStitchSplitter(l *layout.Layout, minS, minSeg, maxCount int) *stitchSplitter {
	total := l.RectCount()
	s := &stitchSplitter{l: l, minS: minS, minSeg: minSeg, maxCount: maxCount,
		owner: make([]int, 0, total)}
	world := l.Bounds().Expand(minS + 1)
	s.grid = spatial.NewGrid(world, minS, total)
	for fi, f := range l.Features {
		for _, r := range f.Rects {
			s.grid.Insert(r)
			s.owner = append(s.owner, fi)
		}
	}
	return s
}

// interval is one forbidden projection range of a wire being split.
type interval struct{ lo, hi int }

// splitScratch is one shard's reusable split state: its grid querier, the
// forbidden-interval and cut buffers of the feature being split, and the
// shard's rect arena, which receives the pieces of every divided wire.
type splitScratch struct {
	q         *spatial.Querier
	forbidden []interval
	cuts      []int
	rects     []geom.Rect
}

// splitInto divides one feature at its stitch candidates, appending the
// pieces to sc.rects and returning how many it appended; 0 means the
// feature stays whole. Only single-rectangle wire features may be divided;
// everything else stays whole. (Stitches inside complex polygons exist in
// practice but the paper's stitch model — one candidate per uncovered
// projection interval — is defined on wires; see DESIGN.md §5.) Queries go
// through the shard's Querier so shards can split concurrently over the
// shared grid.
func (s *stitchSplitter) splitInto(sc *splitScratch, fi int, f geom.Polygon) int {
	if len(f.Rects) != 1 {
		return 0
	}
	r := f.Rects[0]
	horizontal := r.Width() >= r.Height()
	length := r.Width()
	if !horizontal {
		length = r.Height()
	}
	if length < 2*s.minSeg {
		return 0
	}

	// Forbidden intervals: projections of conflicting neighbor rectangles,
	// expanded by minSeg so a stitch keeps clearance from the region where
	// the neighbor actually constrains the wire.
	forbidden := sc.forbidden[:0]
	sc.q.Near(r, s.minS, func(id int) {
		if s.owner[id] == fi {
			return
		}
		nr := s.grid.Bounds(id)
		if geom.GapSq(r, nr) > int64(s.minS)*int64(s.minS) {
			return
		}
		if horizontal {
			forbidden = append(forbidden, interval{nr.X0 - s.minSeg, nr.X1 + s.minSeg})
		} else {
			forbidden = append(forbidden, interval{nr.Y0 - s.minSeg, nr.Y1 + s.minSeg})
		}
	})
	sc.forbidden = forbidden

	lo, hi := r.X0, r.X1
	if !horizontal {
		lo, hi = r.Y0, r.Y1
	}
	// Candidate window: stitches must leave minSeg on both sides.
	winLo, winHi := lo+s.minSeg, hi-s.minSeg
	if winLo >= winHi {
		return 0
	}
	// The gap walk below depends only on the multiset of intervals, so the
	// order among equal lo values cannot matter.
	slices.SortFunc(forbidden, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })

	// Walk the window collecting allowed gaps; one stitch per gap midpoint.
	cuts := sc.cuts[:0]
	cursor := winLo
	emit := func(gapLo, gapHi int) {
		if len(cuts) >= s.maxCount {
			return
		}
		if gapHi > gapLo {
			cuts = append(cuts, (gapLo+gapHi)/2)
		}
	}
	for _, ivl := range forbidden {
		if ivl.lo > cursor {
			gHi := min(ivl.lo, winHi)
			emit(cursor, gHi)
		}
		if ivl.hi > cursor {
			cursor = ivl.hi
		}
		if cursor >= winHi {
			break
		}
	}
	if cursor < winHi {
		emit(cursor, winHi)
	}
	sc.cuts = cuts
	if len(cuts) == 0 {
		return 0
	}
	slices.Sort(cuts)

	piece := func(a, b int) geom.Rect {
		if horizontal {
			return geom.Rect{X0: a, Y0: r.Y0, X1: b, Y1: r.Y1}
		}
		return geom.Rect{X0: r.X0, Y0: a, X1: r.X1, Y1: b}
	}
	start := len(sc.rects)
	prev := lo
	for _, c := range cuts {
		if c <= prev || c >= hi {
			continue
		}
		sc.rects = append(sc.rects, piece(prev, c))
		prev = c
	}
	if len(sc.rects) == start {
		return 0 // no cut survived: the single piece is the whole wire
	}
	sc.rects = append(sc.rects, piece(prev, hi))
	return len(sc.rects) - start
}
