// Package spatial provides a uniform grid index over rectangles for fast
// neighborhood queries. The decomposer uses it to find all features within
// the minimum coloring distance (conflict edges) and within the
// color-friendly band (mins, mins+hp) without an O(n²) scan.
//
// Visit-stamp arrays — the per-query deduplication state of Grid and
// Querier — are recycled through a process-wide pool: grids and queriers
// are per-build objects, but their stamp arrays are size-stable across
// repeated service requests, so Release-ing them keeps steady-state graph
// builds from re-allocating O(n) stamp memory every time.
package spatial

import (
	"fmt"
	"math"
	"sync"

	"mpl/internal/geom"
)

// MaxEntries is the largest number of rectangles one Grid can hold: bucket
// entries are int32 IDs, so anything past 2^31−1 would silently truncate.
// Insert enforces it with a diagnosing panic — million-feature layouts stay
// far below it, but the guard turns a would-be silent wraparound (phantom
// neighbors, missed conflicts) into an immediate, attributable failure.
const MaxEntries = math.MaxInt32

// maxEntries is MaxEntries behind a var, so the guard test can lower it to
// an addressable size instead of allocating 2^31 rectangles.
var maxEntries = MaxEntries

// stampPool recycles visit-stamp backing arrays across grids and queriers.
var stampPool = sync.Pool{New: func() any { return new([]int32) }}

// getStamps leases a zeroed stamp array with capacity ≥ capHint, length 0.
func getStamps(capHint int) []int32 {
	b := *stampPool.Get().(*[]int32)
	if cap(b) < capHint {
		return make([]int32, 0, capHint)
	}
	b = b[:cap(b)]
	clear(b)
	return b[:0]
}

func putStamps(b []int32) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	stampPool.Put(&b)
}

// Grid is a uniform bucket grid over rectangle bounding boxes. Each entry is
// identified by the integer ID supplied at insertion. Entries are bucketed by
// every cell their bounding box overlaps, so queries must deduplicate; the
// Grid handles that internally with a visit-stamp array.
//
// Buckets are stored CSR-style: cell c's ids are ids[start[c]:start[c+1]],
// two flat pointer-free int32 arrays built count-then-fill from the inserted
// bounds when the grid freezes. Freezing happens once, at the first query
// (Near or NewQuerier); within a cell ids stay in insertion order, so the
// enumeration order is exactly that of per-cell append buckets. An Insert
// after the freeze panics instead of silently missing from the buckets.
type Grid struct {
	cell   int // cell edge length
	minX   int
	minY   int
	cols   int
	rows   int
	start  []int32     // cell offsets into ids, len cols·rows+1 once frozen
	ids    []int32     // bucket contents, cell-major
	bounds []geom.Rect // per-ID bounding boxes
	stamp  []int32     // visit stamps for deduplication
	visit  int32
	freeze sync.Once
}

// NewGrid creates a grid covering the world rectangle with the given cell
// size. The cell size should be on the order of the query radius; the
// decomposer uses mins+hp. capHint sizes the per-ID tables.
func NewGrid(world geom.Rect, cell int, capHint int) *Grid {
	if cell < 1 {
		cell = 1
	}
	cols := (world.Width() + cell - 1) / cell
	rows := (world.Height() + cell - 1) / cell
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		cell:   cell,
		minX:   world.X0,
		minY:   world.Y0,
		cols:   cols,
		rows:   rows,
		bounds: make([]geom.Rect, 0, capHint),
		stamp:  getStamps(capHint),
	}
}

// Release returns the grid's visit-stamp array to the process-wide pool.
// Call it when the grid is done (end of a graph build, end of a
// verification pass); the grid must not be queried afterwards. Releasing
// is optional — an un-released grid is merely garbage-collected without
// recycling its stamps.
func (g *Grid) Release() {
	putStamps(g.stamp)
	g.stamp = nil
}

func (g *Grid) clampCol(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.cols {
		return g.cols - 1
	}
	return c
}

func (g *Grid) clampRow(r int) int {
	if r < 0 {
		return 0
	}
	if r >= g.rows {
		return g.rows - 1
	}
	return r
}

// cellRange returns the inclusive cell index range overlapped by r.
func (g *Grid) cellRange(r geom.Rect) (c0, r0, c1, r1 int) {
	c0 = g.clampCol((r.X0 - g.minX) / g.cell)
	c1 = g.clampCol((r.X1 - 1 - g.minX) / g.cell)
	r0 = g.clampRow((r.Y0 - g.minY) / g.cell)
	r1 = g.clampRow((r.Y1 - 1 - g.minY) / g.cell)
	return
}

// Insert adds a rectangle under the next sequential ID (0, 1, 2, ...) and
// returns that ID. IDs are dense and stable. Insert panics with a clear
// diagnosis when the grid is at MaxEntries — the int32 ID would otherwise
// wrap silently — or when the grid is already frozen by a query.
func (g *Grid) Insert(r geom.Rect) int {
	if g.start != nil {
		panic("spatial: Insert after the grid was frozen by a query")
	}
	if len(g.bounds) >= maxEntries {
		panic(fmt.Sprintf("spatial: grid full at %d entries; int32 ids cannot address more", maxEntries))
	}
	id := len(g.bounds)
	g.bounds = append(g.bounds, r)
	g.stamp = append(g.stamp, 0)
	return id
}

// build freezes the grid into its CSR buckets: one sweep counts every
// cell's entries, a prefix sum turns the counts into offsets, and a second
// sweep scatters ids in insertion order. It runs exactly once, through
// g.freeze, so concurrent first queries (the NewQuerier fan-out of a
// parallel build) all observe the finished arrays.
func (g *Grid) build() {
	start := make([]int32, g.cols*g.rows+1)
	total := 0
	for _, r := range g.bounds {
		c0, r0, c1, r1 := g.cellRange(r)
		total += (c1 - c0 + 1) * (r1 - r0 + 1)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				start[row*g.cols+col+1]++
			}
		}
	}
	if total > maxEntries {
		panic(fmt.Sprintf("spatial: %d bucket entries exceed int32 offsets (max %d)", total, maxEntries))
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	ids := make([]int32, total)
	for id, r := range g.bounds {
		c0, r0, c1, r1 := g.cellRange(r)
		for row := r0; row <= r1; row++ {
			for col := c0; col <= c1; col++ {
				c := row*g.cols + col
				ids[start[c]] = int32(id)
				start[c]++
			}
		}
	}
	// The fill advanced start[c] to the end of cell c, which is where cell
	// c+1 begins: shift back by one cell to recover the offsets.
	copy(start[1:], start[:len(start)-1])
	start[0] = 0
	g.start, g.ids = start, ids
}

// Len returns the number of inserted rectangles.
func (g *Grid) Len() int { return len(g.bounds) }

// Bounds returns the bounding box stored for id.
func (g *Grid) Bounds(id int) geom.Rect { return g.bounds[id] }

// Near calls fn for every stored ID whose bounding box gap distance to the
// query rectangle is at most radius (squared comparison, exact integer
// arithmetic). Each ID is reported once per query; the query ID itself is
// reported too if it matches, so callers filter self-pairs. Near mutates the
// grid's visit stamps, so it is not safe for concurrent use — concurrent
// readers use per-goroutine Queriers instead.
func (g *Grid) Near(q geom.Rect, radius int, fn func(id int)) {
	g.freeze.Do(g.build)
	g.near(g.stamp, &g.visit, q, radius, fn)
}

// near is the shared query kernel: the caller supplies the stamp array and
// visit counter, so Grid.Near (grid-owned stamps) and Querier.Near
// (per-goroutine stamps) enumerate identically — same bucket scan order,
// same per-query deduplication — over the same immutable bucket structure.
func (g *Grid) near(stamp []int32, visit *int32, q geom.Rect, radius int, fn func(id int)) {
	*visit++
	if *visit == 0 { // stamp wrapped; reset
		for i := range stamp {
			stamp[i] = 0
		}
		*visit = 1
	}
	rr := int64(radius) * int64(radius)
	// Expand by radius+1, not radius: rectangles are half-open, so a
	// neighbor at gap exactly radius starts at the first coordinate
	// *outside* q.Expand(radius), and when a cell boundary falls there the
	// bucket scan would skip its cells entirely — a false negative at the
	// inclusive boundary of the distance predicate below. The extra cell
	// ring only adds candidates; GapSq still decides.
	expanded := q.Expand(radius + 1)
	c0, r0, c1, r1 := g.cellRange(expanded)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			c := row*g.cols + col
			for _, id := range g.ids[g.start[c]:g.start[c+1]] {
				if stamp[id] == *visit {
					continue
				}
				stamp[id] = *visit
				if geom.GapSq(q, g.bounds[id]) <= rr {
					fn(int(id))
				}
			}
		}
	}
}

// Querier is a read-only query cursor over a frozen Grid with its own
// visit-stamp state, so multiple goroutines can run Near queries over one
// shared grid concurrently (the parallel graph-construction shards of
// internal/core). Creating a querier freezes the grid, so no Insert can
// outgrow the querier's stamp array, which is sized at creation time.
type Querier struct {
	g     *Grid
	stamp []int32
	visit int32
}

// NewQuerier returns an independent query cursor over the grid's current
// contents. Each goroutine gets its own; a single Querier is not safe for
// concurrent use with itself. Pair with Release to recycle its stamp
// array across builds.
func (g *Grid) NewQuerier() *Querier {
	g.freeze.Do(g.build)
	return &Querier{g: g, stamp: getStamps(len(g.bounds))[:len(g.bounds)]}
}

// Release returns the querier's stamp array to the process-wide pool. The
// querier must not be used afterwards. Optional, like Grid.Release.
func (q *Querier) Release() {
	putStamps(q.stamp)
	q.stamp = nil
}

// Near is Grid.Near using this cursor's private stamps: identical
// enumeration order and semantics, safe to run concurrently with other
// Queriers over the same grid.
func (q *Querier) Near(r geom.Rect, radius int, fn func(id int)) {
	q.g.near(q.stamp, &q.visit, r, radius, fn)
}
