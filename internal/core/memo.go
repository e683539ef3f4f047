package core

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
)

const (
	// memoMaxVertices bounds the pieces memoization considers at all:
	// larger pieces bypass the cache (solving them dwarfs any encoding
	// saving, and distinct huge pieces would only churn the LRU).
	memoMaxVertices = 4096
	// memoEntries bounds the process-wide shape cache.
	memoEntries = 4096
)

// sharedShapes is the process-wide shape cache every memoized solve path
// shares (like sharedScratch): real workloads repeat standard cells across
// layouts and across requests, so hits compound over the life of the
// process. It maps shapeSig + "\x00" + encodePiece to the piece's colors as
// solved.
var sharedShapes = flight.New[[]int](memoEntries)

// shapeTally accumulates one run's shape-cache counters while division
// workers hit the cache concurrently; drainInto publishes them to
// division.Stats.Shapes after the pipeline finishes (the same lifecycle as
// engineTally). Distinct is counted run-locally — the process-wide cache
// cannot answer "how many pieces did *this* run touch".
type shapeTally struct {
	mu       sync.Mutex
	hits     int                 // guarded by mu
	misses   int                 // guarded by mu
	distinct map[string]struct{} // guarded by mu; only len() is read, never ranged
}

func newShapeTally() *shapeTally { return &shapeTally{distinct: make(map[string]struct{})} }

func (t *shapeTally) add(key string, hit bool) {
	t.mu.Lock()
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	t.distinct[key] = struct{}{}
	t.mu.Unlock()
}

func (t *shapeTally) drainInto(st *division.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st.Shapes.Hits += t.hits
	st.Shapes.Misses += t.misses
	st.Shapes.Distinct += len(t.distinct)
}

// shapeSig is the solver-configuration part of a shape-cache key: two runs
// may share memoized colors only when every option an engine reads
// matches. Fields that cannot change a piece's deterministic solution are
// zeroed — worker counts, build tuning and division toggles don't reach the
// engines, and the wall-clock budgets (ILPTimeLimit, RaceBudget) are
// excluded because a budget-expired solve is never stored in the first
// place (memoSolver skips storing once the run is unproven or cancelled),
// so every cached entry is the budget-independent exact answer. (OptionsSig
// normalizes afterwards, which only re-derives the zeroed fields from ones
// the key already holds.)
func shapeSig(o Options) string {
	o.Memoize = false
	o.ILPTimeLimit = 0
	o.RaceBudget = 0
	o.Build = BuildOptions{}
	o.Division = division.Options{}
	return OptionsSig(o)
}

// encodePiece serializes a labeled piece: the vertex count, then the
// conflict, stitch and friend edge lists, each as its edge count followed
// by every (u, w) with u < w in row order, all as uvarints. CSR rows are
// sorted ascending, so row order is the sorted edge order and the encoding
// is a pure function of the labeled edge sets: byte-equal encodings are
// identical labeled graphs.
func encodePiece(g *graph.Graph) []byte {
	n := g.N()
	buf := make([]byte, 0, 16+8*(g.ConflictEdgeCount()+g.StitchEdgeCount()+g.FriendEdgeCount()))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = appendEdges(buf, n, g.ConflictEdgeCount(), g.ConflictNeighbors)
	buf = appendEdges(buf, n, g.StitchEdgeCount(), g.StitchNeighbors)
	return appendEdges(buf, n, g.FriendEdgeCount(), g.FriendNeighbors)
}

func appendEdges(buf []byte, n, count int, nbrs func(int) []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(count))
	for u := 0; u < n; u++ {
		for _, w := range nbrs(u) {
			if int(w) > u { // each undirected edge once
				buf = binary.AppendUvarint(buf, uint64(u))
				buf = binary.AppendUvarint(buf, uint64(w))
			}
		}
	}
	return buf
}

// memoSolver wraps an engine dispatcher with the shape cache (DESIGN.md
// §11): a piece whose exact labeled encoding was already solved under the
// same shapeSig is answered with the stored colors (tallied as the "memo"
// engine). The engines break ties by vertex index, so only a byte-identical
// encoding — which drives the deterministic solver identically — may share
// colors. Misses solve through inner under the key's single flight, so a
// hot piece solves once even when every division worker hits it at the
// same time. Only clean solves are stored: a piece solved after the run
// went unproven (ILP budget) or under a dying context finishes its flight
// without storing, so the cache never replays degraded colors.
func memoSolver(ctx context.Context, opts Options, inner division.Solver, unproven *atomic.Bool, tally *engineTally, shapes *flight.Cache[[]int], st *shapeTally) division.Solver {
	sig := shapeSig(opts) + "\x00"
	return func(g *graph.Graph, sc *pipeline.Scratch) []int {
		n := g.N()
		if n > memoMaxVertices {
			return inner(g, sc) // uncounted: never a cache candidate
		}
		key := sig + string(encodePiece(g))
		colors, state := shapes.Acquire(ctx, key)
		st.add(key, state == flight.Hit)
		switch state {
		case flight.Hit:
			tally.add("memo")
			out := sc.Ints(n)
			copy(out, colors)
			return out
		case flight.Owner:
			out := inner(g, sc)
			shapes.Finish(key, append([]int(nil), out...), ctx.Err() == nil && !unproven.Load())
			return out
		default: // Bypass: context died waiting on another flight
			return inner(g, sc)
		}
	}
}
