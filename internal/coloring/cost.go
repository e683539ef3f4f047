// Package coloring implements the color-assignment engines of the DAC'14
// paper for K-patterning layout decomposition: the exact ILP baseline, the
// two SDP-driven algorithms (backtrack mapping and greedy mapping), and the
// linear-time three-stage heuristic with color-friendly rules and peer
// selection. All engines operate on a decomposition graph (one connected,
// already-divided component) and minimize the paper's objective
//
//	cost = conflict# + α · stitch#
//
// where a conflict is a conflict edge whose endpoints share a color and a
// stitch is a stitch edge whose endpoints differ.
package coloring

import "mpl/internal/graph"

// Uncolored marks a vertex without an assigned color.
const Uncolored = -1

// Count returns the number of conflicts (same-colored conflict edges) and
// stitches (differently-colored stitch edges) of a complete assignment.
// Edges with an uncolored endpoint are not counted. It walks the adjacency
// in place, visiting each edge once from its lower endpoint, so counting a
// full-chip graph allocates nothing.
func Count(g *graph.Graph, colors []int) (conflicts, stitches int) {
	for u := 0; u < g.N(); u++ {
		cu := colors[u]
		if cu == Uncolored {
			continue
		}
		for _, v := range g.ConflictNeighbors(u) {
			if int(v) > u && colors[v] == cu {
				conflicts++
			}
		}
		for _, v := range g.StitchNeighbors(u) {
			if cv := colors[v]; int(v) > u && cv != Uncolored && cv != cu {
				stitches++
			}
		}
	}
	return conflicts, stitches
}

// Cost returns the weighted objective conflict# + α·stitch#.
func Cost(g *graph.Graph, colors []int, alpha float64) float64 {
	c, s := Count(g, colors)
	return float64(c) + alpha*float64(s)
}

// Validate checks that every color is in [0, k) and the slice covers the
// graph. It reports the first problem found.
func Validate(g *graph.Graph, colors []int, k int) error {
	if len(colors) != g.N() {
		return errLength(len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 || c >= k {
			return errColor(v, c, k)
		}
	}
	return nil
}

type errLengthT struct{ got, want int }

func errLength(got, want int) error { return errLengthT{got, want} }

func (e errLengthT) Error() string {
	return "coloring: assignment length mismatch"
}

type errColorT struct{ v, c, k int }

func errColor(v, c, k int) error { return errColorT{v, c, k} }

func (e errColorT) Error() string {
	return "coloring: vertex color out of range"
}

// better reports whether (c1, s1) is a strictly better result than (c2, s2)
// under the paper's ranking: fewer conflicts first, then fewer stitches.
func better(c1, s1, c2, s2 int) bool {
	if c1 != c2 {
		return c1 < c2
	}
	return s1 < s2
}
