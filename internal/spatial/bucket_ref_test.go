package spatial

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpl/internal/geom"
)

// refGrid is the per-cell append-bucket grid the CSR layout replaced, kept
// as the oracle for enumeration order: one []int32 per cell, ids appended at
// Insert time, queries scanning cells row-major with a visit stamp.
type refGrid struct {
	cell, minX, minY, cols, rows int
	buckets                      [][]int32
	bounds                       []geom.Rect
	stamp                        []int32
	visit                        int32
}

func newRefGrid(world geom.Rect, cell int) *refGrid {
	g := NewGrid(world, cell, 0) // reuse the geometry normalization
	return &refGrid{cell: g.cell, minX: g.minX, minY: g.minY, cols: g.cols, rows: g.rows,
		buckets: make([][]int32, g.cols*g.rows)}
}

func (g *refGrid) cellRange(r geom.Rect) (c0, r0, c1, r1 int) {
	clamp := func(v, hi int) int { return max(0, min(v, hi-1)) }
	c0 = clamp((r.X0-g.minX)/g.cell, g.cols)
	c1 = clamp((r.X1-1-g.minX)/g.cell, g.cols)
	r0 = clamp((r.Y0-g.minY)/g.cell, g.rows)
	r1 = clamp((r.Y1-1-g.minY)/g.cell, g.rows)
	return
}

func (g *refGrid) insert(r geom.Rect) {
	id := int32(len(g.bounds))
	g.bounds = append(g.bounds, r)
	g.stamp = append(g.stamp, 0)
	c0, r0, c1, r1 := g.cellRange(r)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			g.buckets[row*g.cols+col] = append(g.buckets[row*g.cols+col], id)
		}
	}
}

func (g *refGrid) near(q geom.Rect, radius int) []int {
	g.visit++
	rr := int64(radius) * int64(radius)
	var out []int
	c0, r0, c1, r1 := g.cellRange(q.Expand(radius + 1))
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, id := range g.buckets[row*g.cols+col] {
				if g.stamp[id] == g.visit {
					continue
				}
				g.stamp[id] = g.visit
				if geom.GapSq(q, g.bounds[id]) <= rr {
					out = append(out, int(id))
				}
			}
		}
	}
	return out
}

func randRect(rng *rand.Rand, span, size int) geom.Rect {
	x, y := rng.Intn(span)-span/10, rng.Intn(span)-span/10
	return geom.Rect{X0: x, Y0: y, X1: x + 1 + rng.Intn(size), Y1: y + 1 + rng.Intn(size)}
}

// TestCSRMatchesBucketOrder: the CSR grid and a querier over it report the
// exact id sequence — not just the set — of the per-cell bucket grid, on
// random rects (some straddling or outside the world) and random queries.
func TestCSRMatchesBucketOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		world := geom.Rect{X0: 0, Y0: 0, X1: 500 + rng.Intn(2000), Y1: 500 + rng.Intn(2000)}
		cell := 1 + rng.Intn(120)
		g := NewGrid(world, cell, rng.Intn(64))
		ref := newRefGrid(world, cell)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			r := randRect(rng, world.Width(), 150)
			g.Insert(r)
			ref.insert(r)
		}
		qr := g.NewQuerier()
		for k := 0; k < 60; k++ {
			q := randRect(rng, world.Width(), 80)
			radius := rng.Intn(200)
			want := ref.near(q, radius)
			var got, gotQ []int
			g.Near(q, radius, func(id int) { got = append(got, id) })
			qr.Near(q, radius, func(id int) { gotQ = append(gotQ, id) })
			if !slices.Equal(got, want) || !slices.Equal(gotQ, want) {
				t.Fatalf("trial %d query %d: grid %v querier %v, bucket oracle %v", trial, k, got, gotQ, want)
			}
		}
		qr.Release()
		g.Release()
	}
}

// TestInsertAfterQueryPanics: a query freezes the grid, so a later Insert
// must fail loudly rather than land outside the frozen buckets.
func TestInsertAfterQueryPanics(t *testing.T) {
	for name, freeze := range map[string]func(g *Grid){
		"Near":       func(g *Grid) { g.Near(geom.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}, 5, func(int) {}) },
		"NewQuerier": func(g *Grid) { g.NewQuerier() },
	} {
		g := NewGrid(geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}, 10, 2)
		g.Insert(geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5})
		freeze(g)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s then Insert did not panic", name)
				}
			}()
			g.Insert(geom.Rect{X0: 50, Y0: 50, X1: 55, Y1: 55})
		}()
	}
}

// TestConcurrentFreeze: queriers created concurrently on a not-yet-frozen
// grid (the parallel build's lazy querier fan-out) all see the finished
// buckets. Run under -race to check the freeze is published safely.
func TestConcurrentFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	world := geom.Rect{X0: 0, Y0: 0, X1: 1000, Y1: 1000}
	g := NewGrid(world, 40, 0)
	ref := newRefGrid(world, 40)
	for i := 0; i < 300; i++ {
		r := randRect(rng, 1000, 60)
		g.Insert(r)
		ref.insert(r)
	}
	q := geom.Rect{X0: 400, Y0: 400, X1: 480, Y1: 470}
	want := ref.near(q, 90)
	got := make([][]int, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qr := g.NewQuerier()
			defer qr.Release()
			qr.Near(q, 90, func(id int) { got[w] = append(got[w], id) })
		}()
	}
	wg.Wait()
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("worker %d: %v, want %v", w, got[w], want)
		}
	}
}
