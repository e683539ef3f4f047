package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// refPeelOrder is the active-mask peel the subset peel replaced, kept as
// the oracle: int counters per vertex, a separate queue, stack and
// in-queue mask, and a nil mask meaning every vertex.
func refPeelOrder(g *Graph, k, maxStitch int, active []bool) (stack []int, core []int) {
	deg := make([]int, g.n)
	sdeg := make([]int, g.n)
	removed := make([]bool, g.n)
	isActive := func(v int) bool { return active == nil || active[v] }
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if !isActive(v) {
			removed[v] = true
			continue
		}
		for _, w := range g.conf[v] {
			if isActive(int(w)) {
				deg[v]++
			}
		}
		for _, w := range g.stit[v] {
			if isActive(int(w)) {
				sdeg[v]++
			}
		}
		if deg[v] < k && sdeg[v] < maxStitch {
			queue = append(queue, v)
		}
	}
	inQueue := make([]bool, g.n)
	for _, v := range queue {
		inQueue[v] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if removed[v] {
			continue
		}
		removed[v] = true
		stack = append(stack, v)
		for _, w := range g.conf[v] {
			wi := int(w)
			if removed[wi] {
				continue
			}
			deg[wi]--
			if deg[wi] < k && sdeg[wi] < maxStitch && !inQueue[wi] {
				inQueue[wi] = true
				queue = append(queue, wi)
			}
		}
		for _, w := range g.stit[v] {
			wi := int(w)
			if removed[wi] {
				continue
			}
			sdeg[wi]--
			if deg[wi] < k && sdeg[wi] < maxStitch && !inQueue[wi] {
				inQueue[wi] = true
				queue = append(queue, wi)
			}
		}
	}
	for v := 0; v < g.n; v++ {
		if isActive(v) && !removed[v] {
			core = append(core, v)
		}
	}
	return stack, core
}

// refComponents is the per-component append DFS the flat member layout
// replaced, kept as the oracle.
func refComponents(g *Graph) [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(out)
		comp[s] = id
		stack = append(stack[:0], s)
		var members []int
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, v := range g.conf[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, int(v))
				}
			}
			for _, v := range g.stit[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, int(v))
				}
			}
		}
		sort.Ints(members)
		out = append(out, members)
	}
	return out
}

// refBiconnectedComponents is the block DFS before the allocation fix, kept
// as the oracle: it materializes the combined conflict+stitch row on every
// DFS step and deduplicates each popped block through a map.
func refBiconnectedComponents(g *Graph) (blocks [][]int, cuts []int) {
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

	neighbors := func(v int) []int32 {
		if len(g.stit[v]) == 0 {
			return g.conf[v]
		}
		out := make([]int32, 0, len(g.conf[v])+len(g.stit[v]))
		out = append(out, g.conf[v]...)
		out = append(out, g.stit[v]...)
		return out
	}

	popBlock := func(until Edge) []int {
		seen := map[int]bool{}
		var verts []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			for _, v := range []int{e.U, e.V} {
				if !seen[v] {
					seen[v] = true
					verts = append(verts, v)
				}
			}
			if e == until {
				break
			}
		}
		sort.Ints(verts)
		return verts
	}

	for s := 0; s < g.n; s++ {
		if disc[s] != none {
			continue
		}
		adj := neighbors(s)
		if len(adj) == 0 {
			disc[s] = timer
			timer++
			blocks = append(blocks, []int{s})
			continue
		}
		stack := []frame{{v: s, parentEdge: none}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			vAdj := neighbors(v)
			if f.childIdx < len(vAdj) {
				w := int(vAdj[f.childIdx])
				f.childIdx++
				if w == f.parentEdge {
					continue
				}
				if disc[w] == none {
					parent[w] = v
					f.children++
					edgeStack = append(edgeStack, Edge{U: min(v, w), V: max(v, w)})
					disc[w] = timer
					low[w] = timer
					timer++
					stack = append(stack, frame{v: w, parentEdge: v})
				} else if disc[w] < disc[v] {
					edgeStack = append(edgeStack, Edge{U: min(v, w), V: max(v, w)})
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
					blocks = append(blocks, popBlock(Edge{U: min(p, v), V: max(p, v)}))
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

// stitchHeavyGraph is randomGraph with extra stitch edges, some of them
// doubling a conflict edge, so combined rows repeat neighbors and many
// vertices carry both edge kinds.
func stitchHeavyGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for _, p := range randomEdges(rng, n, n+rng.Intn(2*n+1)) {
		b.AddConflict(p[0], p[1])
		if rng.Intn(4) == 0 {
			b.AddStitch(p[0], p[1])
		}
	}
	for _, p := range randomEdges(rng, n, n) {
		b.AddStitch(p[0], p[1])
	}
	return b.Build(nil)
}

// TestPeelOrderSubsetMatchesMaskReference: on random graphs and random
// subsets, the subset peel returns exactly the removal stack and core of
// the active-mask reference — and the peel of a whole graph matches the
// reference's nil mask. Repeated calls on one graph check the pooled
// counters come back clean.
func TestPeelOrderSubsetMatchesMaskReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(70)
		var g *Graph
		if trial%2 == 0 {
			g = randomGraph(rng, n)
		} else {
			g = stitchHeavyGraph(rng, n)
		}
		for rep := 0; rep < 4; rep++ {
			k := 2 + rng.Intn(4)
			maxStitch := 1 + rng.Intn(3)
			subset := rng.Perm(n)[:rng.Intn(n+1)]
			sort.Ints(subset)
			active := make([]bool, n)
			for _, v := range subset {
				active[v] = true
			}
			gotS, gotC := g.PeelOrder(k, maxStitch, subset)
			wantS, wantC := refPeelOrder(g, k, maxStitch, active)
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("trial %d subset %v k=%d: got stack %v core %v, reference %v %v",
					trial, subset, k, gotS, gotC, wantS, wantC)
			}
			gotS, gotC = g.PeelOrder(k, maxStitch, nil)
			wantS, wantC = refPeelOrder(g, k, maxStitch, nil)
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("trial %d k=%d: whole-graph peel differs from the reference", trial, k)
			}
		}
	}
}

// TestPeelOrderComponentMatchesSubgraphPeel is the identity the in-place
// division rests on: peeling an ascending component on the parent graph
// visits the vertices in the same order as peeling its induced subgraph,
// mapped back through the subgraph's index table.
func TestPeelOrderComponentMatchesSubgraphPeel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g := stitchHeavyGraph(rng, 2+rng.Intn(90))
		for _, comp := range g.Components() {
			gotS, gotC := g.PeelOrder(4, 2, comp)
			sub, orig := g.Subgraph(comp)
			subS, subC := sub.PeelOrder(4, 2, nil)
			wantS, wantC := mapIDs(subS, orig), mapIDs(subC, orig)
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("trial %d component %v: in-place peel %v/%v, subgraph peel %v/%v",
					trial, comp, gotS, gotC, wantS, wantC)
			}
		}
	}
}

func mapIDs(ids, orig []int) []int {
	if ids == nil {
		return nil
	}
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = orig[v]
	}
	return out
}

// TestPeelOrderPanics: unsorted, repeated and out-of-range subsets panic,
// and a panicking call leaves the pooled counters clean for the next call.
func TestPeelOrderPanics(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(25)), 8)
	for _, subset := range [][]int{{1, 4, 3}, {1, 4, 4}, {2, 3, 8}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PeelOrder(%v) did not panic", subset)
				}
			}()
			g.PeelOrder(4, 2, subset)
		}()
		gotS, gotC := g.PeelOrder(2, 2, []int{1, 2, 3, 4})
		wantS, wantC := refPeelOrder(g, 2, 2, []bool{false, true, true, true, true, false, false, false})
		if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("after panic on %v: stale counters changed the next peel", subset)
		}
	}
}

// TestPeelOrderConcurrent: goroutines peeling the disjoint components of one
// shared graph at once (the division workers' pattern) each get the
// reference result. Run under -race to check the pool hands every call its
// own counters.
func TestPeelOrderConcurrent(t *testing.T) {
	g := stitchHeavyGraph(rand.New(rand.NewSource(27)), 300)
	comps := g.Components()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for ci := w; ci < len(comps); ci += 4 {
					active := make([]bool, g.n)
					for _, v := range comps[ci] {
						active[v] = true
					}
					gotS, gotC := g.PeelOrder(3, 2, comps[ci])
					wantS, wantC := refPeelOrder(g, 3, 2, active)
					if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotC, wantC) {
						t.Errorf("worker %d component %d: concurrent peel differs from the reference", w, ci)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestComponentsMatchReference: the flat member layout returns the same
// components, in the same order, as the per-component append reference —
// serially and through the union-find path — and every component is a
// capacity-clipped view, so appending to one cannot overwrite the next.
func TestComponentsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		g := stitchHeavyGraph(rng, 2+rng.Intn(120))
		want := refComponents(g)
		got := g.Components()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, reference %v", trial, got, want)
		}
		for i, c := range got {
			if len(c) != cap(c) {
				t.Fatalf("trial %d: component %d has len %d cap %d", trial, i, len(c), cap(c))
			}
		}
	}
	// Large enough for the union-find path.
	g := stitchHeavyGraph(rand.New(rand.NewSource(31)), 1<<15)
	want := refComponents(g)
	for _, workers := range []int{1, 2, 4} {
		if got := g.ComponentsWorkers(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: components differ from the reference", workers)
		}
	}
	if got := New(0).Components(); got != nil {
		t.Fatalf("empty graph: components %v, want nil", got)
	}
}

// TestBiconnectedMatchesReference: the index-walk DFS with stamp dedup
// returns the same blocks, in the same order, and the same cut vertices as
// the materializing reference on random graphs with stitch edges.
func TestBiconnectedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 150; trial++ {
		var g *Graph
		if trial%3 == 0 {
			g = randomGraph(rng, 2+rng.Intn(60))
		} else {
			g = stitchHeavyGraph(rng, 2+rng.Intn(60))
		}
		gotB, gotC := g.BiconnectedComponents()
		wantB, wantC := refBiconnectedComponents(g)
		if !reflect.DeepEqual(gotB, wantB) || !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("trial %d: blocks %v cuts %v, reference %v %v", trial, gotB, gotC, wantB, wantC)
		}
	}
}
