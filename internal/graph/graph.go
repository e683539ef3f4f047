// Package graph implements the decomposition graph of the DAC'14 paper
// (Definition 1): an undirected graph with one vertex per polygonal feature
// fragment and two edge sets, conflict edges (CE, features within the
// minimum coloring distance) and stitch edges (SE, stitch candidates inside
// one feature). A third edge set records the paper's color-friendly pairs
// (Definition 2, distance in (mins, mins+hp)), which the linear color
// assignment consults as soft same-color hints.
//
// The package also provides the structural operations the graph-division
// pipeline needs: connected components, iterative peeling of vertices with
// conflict degree < K, biconnected components and articulation points, and
// vertex-subset extraction.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Graph is the decomposition graph. Vertices are dense integers [0, N).
// Adjacency lists are kept deduplicated, loop-free, and sorted ascending —
// the sort order is what lets edge membership tests run in O(log deg) and
// what makes the graph a pure function of its edge set (insertion order
// never shows through), the determinism contract the golden suites pin.
//
// Bulk construction goes through Builder (csr.go), which lays each edge
// kind out in one contiguous int32 arena and points these adjacency headers
// into it. The Add* methods below remain the mutable shim on top: on an
// arena-built graph an insert reallocates just the affected row (the views
// are full-capacity subslices), leaving the arena and every other row
// untouched.
type Graph struct {
	n       int
	conf    [][]int32
	stit    [][]int32
	friend  [][]int32
	nConf   int
	nStit   int
	nFriend int
	relabel sync.Pool // *[]int32 Subgraph index arrays, all-zero between uses
	peel    sync.Pool // *[]peelCell PeelOrder counters, all-zero between uses
}

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 || n > MaxVertices {
		panic(fmt.Sprintf("graph: vertex count %d outside [0, %d]", n, MaxVertices))
	}
	return &Graph{
		n:      n,
		conf:   make([][]int32, n),
		stit:   make([][]int32, n),
		friend: make([][]int32, n),
	}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// ConflictEdgeCount returns |CE|.
func (g *Graph) ConflictEdgeCount() int { return g.nConf }

// StitchEdgeCount returns |SE|.
func (g *Graph) StitchEdgeCount() int { return g.nStit }

// FriendEdgeCount returns the number of color-friendly pairs.
func (g *Graph) FriendEdgeCount() int { return g.nFriend }

// AddVertex appends an isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	if g.n >= MaxVertices {
		panic(fmt.Sprintf("graph: vertex count would exceed %d", MaxVertices))
	}
	g.conf = append(g.conf, nil)
	g.stit = append(g.stit, nil)
	g.friend = append(g.friend, nil)
	g.n++
	return g.n - 1
}

// sortedInsert puts v into ascending adjacency adj, reporting whether it was
// absent. Membership is a binary search; the shift is O(deg) but runs only
// on actual inserts, so repeated duplicate insertions on a hub vertex cost
// O(log deg) each instead of the old linear contains scan.
func sortedInsert(adj []int32, v int32) ([]int32, bool) {
	i, found := slices.BinarySearch(adj, v)
	if found {
		return adj, false
	}
	return slices.Insert(adj, i, v), true
}

func (g *Graph) check(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
}

// AddConflict inserts an undirected conflict edge; duplicate insertions are
// ignored. It reports whether the edge was new.
func (g *Graph) AddConflict(u, v int) bool {
	g.check(u, v)
	row, fresh := sortedInsert(g.conf[u], int32(v))
	if !fresh {
		return false
	}
	g.conf[u] = row
	g.conf[v], _ = sortedInsert(g.conf[v], int32(u))
	g.nConf++
	return true
}

// AddStitch inserts an undirected stitch edge; duplicates are ignored.
func (g *Graph) AddStitch(u, v int) bool {
	g.check(u, v)
	row, fresh := sortedInsert(g.stit[u], int32(v))
	if !fresh {
		return false
	}
	g.stit[u] = row
	g.stit[v], _ = sortedInsert(g.stit[v], int32(u))
	g.nStit++
	return true
}

// AddFriend inserts an undirected color-friendly edge; duplicates ignored.
func (g *Graph) AddFriend(u, v int) bool {
	g.check(u, v)
	row, fresh := sortedInsert(g.friend[u], int32(v))
	if !fresh {
		return false
	}
	g.friend[u] = row
	g.friend[v], _ = sortedInsert(g.friend[v], int32(u))
	g.nFriend++
	return true
}

// HasConflict reports whether {u,v} is a conflict edge.
func (g *Graph) HasConflict(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, found := slices.BinarySearch(g.conf[u], int32(v))
	return found
}

// HasStitch reports whether {u,v} is a stitch edge.
func (g *Graph) HasStitch(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return false
	}
	_, found := slices.BinarySearch(g.stit[u], int32(v))
	return found
}

// ConflictDegree returns dconf(v), the number of conflict edges at v.
func (g *Graph) ConflictDegree(v int) int { return len(g.conf[v]) }

// StitchDegree returns dstit(v), the number of stitch edges at v.
func (g *Graph) StitchDegree(v int) int { return len(g.stit[v]) }

// ConflictNeighbors returns the conflict adjacency of v. The slice is owned
// by the graph; callers must not modify it.
func (g *Graph) ConflictNeighbors(v int) []int32 { return g.conf[v] }

// StitchNeighbors returns the stitch adjacency of v (read-only).
func (g *Graph) StitchNeighbors(v int) []int32 { return g.stit[v] }

// FriendNeighbors returns the color-friendly adjacency of v (read-only).
func (g *Graph) FriendNeighbors(v int) []int32 { return g.friend[v] }

// Edge is an undirected vertex pair with U < V.
type Edge struct {
	U, V int
}

// ConflictEdges returns all conflict edges with U < V, sorted.
func (g *Graph) ConflictEdges() []Edge { return collectEdges(g.conf, g.nConf) }

// StitchEdges returns all stitch edges with U < V, sorted.
func (g *Graph) StitchEdges() []Edge { return collectEdges(g.stit, g.nStit) }

// collectEdges lists the edges u < v in u-major order. Rows are sorted
// ascending (the Graph invariant), so the scan already yields (U, V) order.
func collectEdges(adj [][]int32, count int) []Edge {
	if count == 0 {
		return nil
	}
	out := make([]Edge, 0, count)
	for u := range adj {
		for _, v := range adj[u] {
			if int(v) > u {
				out = append(out, Edge{U: u, V: int(v)})
			}
		}
	}
	return out
}

// Components returns the connected components of the graph under the union
// of conflict and stitch edges (independent component computation of the
// division pipeline). Components are ordered by smallest member and each is
// a sorted vertex list; all of them are capacity-clipped views into one
// shared member array.
func (g *Graph) Components() [][]int {
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	stack := make([]int32, 0, 64)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := int32(len(sizes))
		comp[s] = id
		stack = append(stack[:0], int32(s))
		size := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, v := range g.conf[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
			for _, v := range g.stit[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return groupComponents(comp, sizes)
}

// groupComponents lays the members of every component out in one array:
// comp labels each vertex with its component id and sizes counts the
// members per id. Offsets come from a prefix sum over sizes, and a sweep in
// vertex order fills each component's range, so members come out ascending
// without a sort.
func groupComponents(comp []int32, sizes []int) [][]int {
	if len(sizes) == 0 {
		return nil
	}
	members := make([]int, len(comp))
	out := make([][]int, len(sizes))
	off := 0
	for id, size := range sizes {
		out[id] = members[off : off : off+size]
		off += size
	}
	for v, id := range comp {
		out[id] = append(out[id], v)
	}
	return out
}

// Subgraph extracts the induced subgraph over the given vertices. It returns
// the new graph and the mapping from new indices to original vertex IDs
// (which equals the input slice, copied). Edges of every kind are preserved
// when both endpoints are inside the subset.
//
// Relabeling goes through a pooled vertex→index array of length N whose
// entries are zero between calls (only the touched entries are reset), so
// concurrent extractions from one graph — the division workers' cores —
// each cost O(|subset| + its adjacency), not O(N).
func (g *Graph) Subgraph(vertices []int) (*Graph, []int) {
	lease, _ := g.relabel.Get().(*[]int32)
	if lease == nil || len(*lease) < g.n {
		b := make([]int32, g.n)
		lease = &b
	}
	rel := *lease // rel[v] = subgraph index of v, plus one; 0 = outside
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		// A panicking call never returns its dirty lease to the pool.
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: subgraph vertex %d out of range", v))
		}
		if rel[v] != 0 {
			panic(fmt.Sprintf("graph: subgraph vertex %d repeated", v))
		}
		rel[v] = int32(i) + 1
		orig[i] = v
	}
	sub := &Graph{n: len(vertices)}
	sub.conf, sub.nConf = induced(g.conf, vertices, rel)
	sub.stit, sub.nStit = induced(g.stit, vertices, rel)
	sub.friend, sub.nFriend = induced(g.friend, vertices, rel)
	for _, v := range vertices {
		rel[v] = 0
	}
	g.relabel.Put(lease)
	return sub, orig
}

// induced relabels one edge kind onto the subset: a counting sweep sizes one
// contiguous arena, a second fills it row by row. Rows are full-capacity
// views, so the mutable Add* shim reallocates a row instead of overrunning
// its neighbor. A relabeled row is sorted only if it came out unsorted
// (vertices in non-ascending order); ascending subsets keep the source
// order, which is already sorted.
func induced(adj [][]int32, vertices []int, rel []int32) ([][]int32, int) {
	rows := make([][]int32, len(vertices))
	total := 0
	for _, v := range vertices {
		for _, w := range adj[v] {
			if rel[w] != 0 {
				total++
			}
		}
	}
	if total == 0 {
		return rows, 0
	}
	arena := make([]int32, 0, total)
	for i, v := range vertices {
		start := len(arena)
		sorted := true
		for _, w := range adj[v] {
			if j := rel[w] - 1; j >= 0 {
				if len(arena) > start && arena[len(arena)-1] > j {
					sorted = false
				}
				arena = append(arena, j)
			}
		}
		if len(arena) == start {
			continue
		}
		row := arena[start:len(arena):len(arena)]
		if !sorted {
			slices.Sort(row)
		}
		rows[i] = row
	}
	return rows, total / 2
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:       g.n,
		conf:    make([][]int32, g.n),
		stit:    make([][]int32, g.n),
		friend:  make([][]int32, g.n),
		nConf:   g.nConf,
		nStit:   g.nStit,
		nFriend: g.nFriend,
	}
	for i := 0; i < g.n; i++ {
		c.conf[i] = append([]int32(nil), g.conf[i]...)
		c.stit[i] = append([]int32(nil), g.stit[i]...)
		c.friend[i] = append([]int32(nil), g.friend[i]...)
	}
	return c
}

// peelCell is one vertex's PeelOrder counters: the conflict and stitch
// degree left inside the working set, and its peel state.
type peelCell struct {
	deg, sdeg int32
	state     uint8
}

// Peel states; the zero value means "outside the working set".
const (
	peelActive uint8 = iota + 1 // in the working set, not yet queued
	peelQueued                  // queued for removal (every queued vertex is removed)
)

// PeelOrder computes the iterative low-degree vertex removal of Algorithm 2
// (stage 1) and the division pipeline over an ascending vertex subset (nil
// means every vertex): repeatedly remove a vertex whose conflict degree
// inside the subset is < k and whose stitch degree is < maxStitch, pushing
// it onto a stack. It returns the removal stack (in removal order) and the
// sorted list of remaining "core" vertices, both in the graph's vertex ids.
// The graph itself is not modified; removal is simulated with degree
// counters.
//
// The counters live in a pooled per-graph array of length N whose entries
// are zero between calls (only the subset's entries are touched and reset),
// so concurrent peels of disjoint components — the division workers — each
// cost O(|subset| + its adjacency). Removal is FIFO and every queued vertex
// is removed exactly once, so the queue itself is the removal stack. Like
// Subgraph, it panics on an unsorted, repeated or out-of-range vertex.
//
// When a removed vertex is later popped and colored, one of the k colors is
// always conflict-free because fewer than k conflict neighbors remain — the
// paper's safety argument.
func (g *Graph) PeelOrder(k, maxStitch int, subset []int) (stack []int, core []int) {
	m := len(subset)
	if subset == nil {
		m = g.n
	}
	vertex := func(i int) int {
		if subset == nil {
			return i
		}
		return subset[i]
	}
	lease, _ := g.peel.Get().(*[]peelCell)
	if lease == nil || len(*lease) < g.n {
		b := make([]peelCell, g.n)
		lease = &b
	}
	cell := *lease
	prev := -1
	for i := 0; i < m; i++ {
		// A panicking call never returns its dirty lease to the pool.
		v := vertex(i)
		switch {
		case v < 0 || v >= g.n:
			panic(fmt.Sprintf("graph: peel vertex %d out of range", v))
		case v == prev:
			panic(fmt.Sprintf("graph: peel vertex %d repeated", v))
		case v < prev:
			panic(fmt.Sprintf("graph: peel vertices unsorted at %d", v))
		}
		prev = v
		cell[v].state = peelActive
	}

	// buf holds the queue (= removal stack) from the front; the core fills
	// the remainder once peeling is done.
	buf := make([]int, 0, m)
	for i := 0; i < m; i++ {
		v := vertex(i)
		c := &cell[v]
		for _, w := range g.conf[v] {
			if cell[w].state != 0 {
				c.deg++
			}
		}
		for _, w := range g.stit[v] {
			if cell[w].state != 0 {
				c.sdeg++
			}
		}
		if int(c.deg) < k && int(c.sdeg) < maxStitch {
			c.state = peelQueued
			buf = append(buf, v)
		}
	}
	for head := 0; head < len(buf); head++ {
		v := buf[head]
		for _, w := range g.conf[v] {
			if c := &cell[w]; c.state == peelActive {
				c.deg--
				if int(c.deg) < k && int(c.sdeg) < maxStitch {
					c.state = peelQueued
					buf = append(buf, int(w))
				}
			}
		}
		for _, w := range g.stit[v] {
			if c := &cell[w]; c.state == peelActive {
				c.sdeg--
				if int(c.deg) < k && int(c.sdeg) < maxStitch {
					c.state = peelQueued
					buf = append(buf, int(w))
				}
			}
		}
	}
	nStack := len(buf)
	for i := 0; i < m; i++ {
		v := vertex(i)
		if cell[v].state == peelActive {
			buf = append(buf, v)
		}
		cell[v] = peelCell{}
	}
	g.peel.Put(lease)
	if nStack > 0 {
		stack = buf[:nStack:nStack]
	}
	if len(buf) > nStack {
		core = buf[nStack:]
	}
	return stack, core
}

// BiconnectedComponents computes the 2-vertex-connected components of the
// conflict graph (stitch edges are treated as binding too, since a stitch
// couples the coloring of its endpoints). It returns one vertex set per
// block and the articulation (cut) vertices. Isolated vertices form
// singleton blocks.
func (g *Graph) BiconnectedComponents() (blocks [][]int, cuts []int) {
	const none = -1
	disc := make([]int, g.n)
	low := make([]int, g.n)
	parent := make([]int, g.n)
	isCut := make([]bool, g.n)
	for i := range disc {
		disc[i] = none
		parent[i] = none
	}
	timer := 0

	type frame struct {
		v, parentEdge int
		childIdx      int
		children      int
	}
	var edgeStack []Edge

	// The DFS walks v's conflict row, then its stitch row, by one combined
	// index, so no merged adjacency is materialized.
	degree := func(v int) int { return len(g.conf[v]) + len(g.stit[v]) }
	neighbor := func(v, i int) int {
		if i < len(g.conf[v]) {
			return int(g.conf[v][i])
		}
		return int(g.stit[v][i-len(g.conf[v])])
	}

	// seen[v] == stamp marks v as already in the block being popped; the
	// stamp advances per block, so the array is never cleared.
	seen := make([]int32, g.n)
	stamp := int32(0)
	popBlock := func(until Edge) []int {
		stamp++
		var verts []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			if seen[e.U] != stamp {
				seen[e.U] = stamp
				verts = append(verts, e.U)
			}
			if seen[e.V] != stamp {
				seen[e.V] = stamp
				verts = append(verts, e.V)
			}
			if e == until {
				break
			}
		}
		sort.Ints(verts)
		return verts
	}

	var stack []frame
	for s := 0; s < g.n; s++ {
		if disc[s] != none {
			continue
		}
		if degree(s) == 0 {
			disc[s] = timer
			timer++
			blocks = append(blocks, []int{s})
			continue
		}
		stack = append(stack[:0], frame{v: s, parentEdge: none})
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if f.childIdx < degree(v) {
				w := neighbor(v, f.childIdx)
				f.childIdx++
				if w == f.parentEdge {
					continue
				}
				if disc[w] == none {
					parent[w] = v
					f.children++
					e := Edge{U: min(v, w), V: max(v, w)}
					edgeStack = append(edgeStack, e)
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: w, parentEdge: v})
				} else if disc[w] < disc[v] {
					e := Edge{U: min(v, w), V: max(v, w)}
					edgeStack = append(edgeStack, e)
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					if f.children >= 2 {
						isCut[v] = true
					}
					continue
				}
				p := stack[len(stack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] {
					if parent[p] != none {
						isCut[p] = true
					}
					e := Edge{U: min(p, v), V: max(p, v)}
					blocks = append(blocks, popBlock(e))
				}
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if isCut[v] {
			cuts = append(cuts, v)
		}
	}
	return blocks, cuts
}
