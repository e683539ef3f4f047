package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/spatial"
)

// split is the polygon-returning stitch split the rect-arena split
// replaced, kept as the oracle (and used by referenceBuildGraph): every
// piece is its own freshly allocated polygon, and the forbidden intervals
// and cuts are fresh slices per feature, ordered by sort.Slice.
func (s *stitchSplitter) split(q *spatial.Querier, fi int, f geom.Polygon) []geom.Polygon {
	if len(f.Rects) != 1 {
		return []geom.Polygon{f}
	}
	r := f.Rects[0]
	horizontal := r.Width() >= r.Height()
	length := r.Width()
	if !horizontal {
		length = r.Height()
	}
	if length < 2*s.minSeg {
		return []geom.Polygon{f}
	}

	type iv struct{ lo, hi int }
	var forbidden []iv
	q.Near(r, s.minS, func(id int) {
		if s.owner[id] == fi {
			return
		}
		nr := s.grid.Bounds(id)
		if geom.GapSq(r, nr) > int64(s.minS)*int64(s.minS) {
			return
		}
		if horizontal {
			forbidden = append(forbidden, iv{nr.X0 - s.minSeg, nr.X1 + s.minSeg})
		} else {
			forbidden = append(forbidden, iv{nr.Y0 - s.minSeg, nr.Y1 + s.minSeg})
		}
	})

	lo, hi := r.X0, r.X1
	if !horizontal {
		lo, hi = r.Y0, r.Y1
	}
	winLo, winHi := lo+s.minSeg, hi-s.minSeg
	if winLo >= winHi {
		return []geom.Polygon{f}
	}
	sort.Slice(forbidden, func(a, b int) bool { return forbidden[a].lo < forbidden[b].lo })

	var cuts []int
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
	if len(cuts) == 0 {
		return []geom.Polygon{f}
	}
	sort.Ints(cuts)

	var out []geom.Polygon
	prev := lo
	for _, c := range cuts {
		if c <= prev || c >= hi {
			continue
		}
		if horizontal {
			out = append(out, geom.NewPolygon(geom.Rect{X0: prev, Y0: r.Y0, X1: c, Y1: r.Y1}))
		} else {
			out = append(out, geom.NewPolygon(geom.Rect{X0: r.X0, Y0: prev, X1: r.X1, Y1: c}))
		}
		prev = c
	}
	if horizontal {
		out = append(out, geom.NewPolygon(geom.Rect{X0: prev, Y0: r.Y0, X1: hi, Y1: r.Y1}))
	} else {
		out = append(out, geom.NewPolygon(geom.Rect{X0: r.X0, Y0: prev, X1: r.X1, Y1: hi}))
	}
	return out
}

// refFragments runs the polygon split (K=4) feature by feature and numbers
// the pieces as the pre-arena stage 2 did, returning the fragment table and
// the stitch pairs (ascending fragment ids) it staged.
func refFragments(l *layout.Layout) ([]Fragment, [][2]int) {
	splitter := newStitchSplitter(l, l.Process.MinColoringDistance(4), l.Process.MinWidth, 2)
	defer splitter.grid.Release()
	q := splitter.grid.NewQuerier()
	defer q.Release()
	var frags []Fragment
	var pairs [][2]int
	for fi := range l.Features {
		ps := splitter.split(q, fi, l.Features[fi])
		base := len(frags)
		for _, p := range ps {
			frags = append(frags, Fragment{Feature: fi, Shape: p})
		}
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				if geom.GapSqPoly(ps[i], ps[j]) == 0 {
					pairs = append(pairs, [2]int{base + i, base + j})
				}
			}
		}
	}
	return frags, pairs
}

// assembled runs build stages 1 and 2 (split and fragment assembly) of l
// at K=4 and returns the builder.
func assembled(t *testing.T, l *layout.Layout, workers int) *builder {
	t.Helper()
	b := &builder{l: l, opts: BuildOptions{K: 4}, minS: l.Process.MinColoringDistance(4), hp: l.Process.HalfPitch, workers: workers}
	if err := b.splitFeatures(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := b.assembleFragments(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestArenaSplitMatchesPolygonSplit: on every committed circuit (plus the
// two synthetic regimes of the parallel-build suite), stages 1 and 2 of the
// build — the sharded arena split and fragment assembly, at workers 1, 2
// and 8 — yield exactly the polygon split's fragment table and stitch
// pairs, and every divided piece is a capacity-clipped view.
func TestArenaSplitMatchesPolygonSplit(t *testing.T) {
	for name, l := range parallelCases(t) {
		wantFrags, wantPairs := refFragments(l)
		for _, workers := range []int{1, 2, 8} {
			b := assembled(t, l, workers)
			if !reflect.DeepEqual(b.frags, wantFrags) {
				t.Fatalf("%s workers %d: arena fragments differ from the polygon split", name, workers)
			}
			for i, fr := range b.frags {
				if len(fr.Shape.Rects) != cap(fr.Shape.Rects) {
					t.Fatalf("%s workers %d: fragment %d shape has len %d cap %d", name, workers, i, len(fr.Shape.Rects), cap(fr.Shape.Rects))
				}
			}
			var gotPairs [][2]int
			for _, e := range b.bld.Build(nil).StitchEdges() {
				gotPairs = append(gotPairs, [2]int{e.U, e.V})
			}
			if !reflect.DeepEqual(gotPairs, wantPairs) {
				t.Fatalf("%s workers %d: %d stitch pairs, polygon split staged %d", name, workers, len(gotPairs), len(wantPairs))
			}
		}
	}
}

// refTileOrder is the closure sort.Slice tile order the counting sort
// replaced, over the tile assignment of the pre-counting-sort build:
// 4·radius tiles, row-major, ties by fragment index.
func refTileOrder(frags []Fragment, world geom.Rect, radius int) []int32 {
	order := make([]int32, len(frags))
	for i := range order {
		order[i] = int32(i)
	}
	tile := make([]int32, len(frags))
	tileSize := 4 * radius
	cols := world.Width()/tileSize + 1
	for i, fr := range frags {
		bb := fr.Shape.Bounds()
		tx := ((bb.X0+bb.X1)/2 - world.X0) / tileSize
		ty := ((bb.Y0+bb.Y1)/2 - world.Y0) / tileSize
		tile[i] = int32(ty*cols + tx)
	}
	sort.Slice(order, func(a, c int) bool {
		if tile[order[a]] != tile[order[c]] {
			return tile[order[a]] < tile[order[c]]
		}
		return order[a] < order[c]
	})
	return order
}

// TestTileOrderMatchesSortSlice: on every committed circuit (plus the two
// synthetic regimes) the counting sort orders the fragments exactly as the
// sort.Slice reference did, and on random tile arrays it equals a stable
// sort by tile.
func TestTileOrderMatchesSortSlice(t *testing.T) {
	for name, l := range parallelCases(t) {
		b := assembled(t, l, 1)
		radius := b.minS + b.hp
		world := l.Bounds().Expand(radius + 1)
		got := tileOrder(fragmentTiles(b.frags, world, radius))
		if want := refTileOrder(b.frags, world, radius); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: counting-sort tile order differs from sort.Slice", name)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n, nTiles := rng.Intn(300), 1+rng.Intn(40)
		tile := make([]int32, n)
		want := make([]int32, n)
		for i := range tile {
			tile[i] = int32(rng.Intn(nTiles))
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return tile[want[a]] < tile[want[b]] })
		if got := tileOrder(tile, nTiles); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: tile order %v, stable sort %v", trial, got, want)
		}
	}
}
