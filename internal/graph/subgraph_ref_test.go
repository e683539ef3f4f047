package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// refSubgraph is the map-relabel, Add*-insert induced subgraph the pooled
// relabel replaced, kept as the oracle.
func refSubgraph(g *Graph, vertices []int) (*Graph, []int) {
	idx := make(map[int]int32, len(vertices))
	orig := make([]int, len(vertices))
	for i, v := range vertices {
		if v < 0 || v >= g.n {
			panic(fmt.Sprintf("graph: subgraph vertex %d out of range", v))
		}
		if _, dup := idx[v]; dup {
			panic(fmt.Sprintf("graph: subgraph vertex %d repeated", v))
		}
		idx[v] = int32(i)
		orig[i] = v
	}
	sub := New(len(vertices))
	for i, v := range vertices {
		for _, w := range g.conf[v] {
			if j, ok := idx[int(w)]; ok && int32(i) < j {
				sub.AddConflict(i, int(j))
			}
		}
		for _, w := range g.stit[v] {
			if j, ok := idx[int(w)]; ok && int32(i) < j {
				sub.AddStitch(i, int(j))
			}
		}
		for _, w := range g.friend[v] {
			if j, ok := idx[int(w)]; ok && int32(i) < j {
				sub.AddFriend(i, int(j))
			}
		}
	}
	return sub, orig
}

// randomGraph builds a CSR graph with random conflict, stitch and friend
// edges, then applies a few mutable inserts so both row layouts occur.
func randomGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for _, p := range randomEdges(rng, n, 2*n) {
		b.AddConflict(p[0], p[1])
	}
	for _, p := range randomEdges(rng, n, n/2+1) {
		b.AddStitch(p[0], p[1])
	}
	for _, p := range randomEdges(rng, n, n) {
		b.AddFriend(p[0], p[1])
	}
	g := b.Build(nil)
	for k := 0; k < 3; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddConflict(u, v)
		}
	}
	return g
}

// TestSubgraphMatchesMapReference: the pooled-relabel Subgraph yields the
// same rows and edge counts as the map-based reference for random subsets
// in ascending, shuffled and descending order — and the pool leaves nothing
// stale between calls on one graph.
func TestSubgraphMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n)
		for k := 0; k < 5; k++ {
			verts := rng.Perm(n)[:rng.Intn(n+1)]
			switch k % 3 {
			case 0:
				sort.Ints(verts)
			case 1:
				sort.Sort(sort.Reverse(sort.IntSlice(verts)))
			}
			got, gotOrig := g.Subgraph(verts)
			want, wantOrig := refSubgraph(g, verts)
			if !equalGraphs(got, want) || !reflect.DeepEqual(gotOrig, wantOrig) {
				t.Fatalf("trial %d subset %v: pooled subgraph differs from the map reference", trial, verts)
			}
			// The mutable shim on the result must not bleed into other rows.
			if got.n >= 3 && !got.HasConflict(0, 2) {
				got.AddConflict(0, 2)
				want.AddConflict(0, 2)
				if !equalGraphs(got, want) {
					t.Fatalf("trial %d: insert into an induced row corrupted its neighbors", trial)
				}
			}
		}
	}
}

// TestSubgraphPanicsLikeReference: duplicate and out-of-range vertices still
// panic, and a panicking call leaves the pooled relabel clean for the next.
func TestSubgraphPanicsLikeReference(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(9)), 8)
	for _, verts := range [][]int{{1, 4, 1}, {2, 3, 8}, {0, -1}} {
		for name, fn := range map[string]func([]int) (*Graph, []int){
			"pooled": g.Subgraph, "reference": func(v []int) (*Graph, []int) { return refSubgraph(g, v) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s Subgraph(%v) did not panic", name, verts)
					}
				}()
				fn(verts)
			}()
		}
		got, _ := g.Subgraph([]int{4, 1, 3, 2})
		want, _ := refSubgraph(g, []int{4, 1, 3, 2})
		if !equalGraphs(got, want) {
			t.Fatalf("after panic on %v: stale relabel entries changed the next subgraph", verts)
		}
	}
}

// TestEdgeListsSorted: ConflictEdges and StitchEdges are strictly
// increasing in (U, V) and equal a sorted reference collection, on random
// graphs with both CSR and mutated rows.
func TestEdgeListsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80))
		for _, kind := range []struct {
			got []Edge
			adj [][]int32
		}{{g.ConflictEdges(), g.conf}, {g.StitchEdges(), g.stit}} {
			var want []Edge
			for u := range kind.adj {
				for _, v := range kind.adj[u] {
					if int(v) > u {
						want = append(want, Edge{U: u, V: int(v)})
					}
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].U != want[j].U {
					return want[i].U < want[j].U
				}
				return want[i].V < want[j].V
			})
			if !reflect.DeepEqual(kind.got, want) {
				t.Fatalf("trial %d: edge list %v, sorted reference %v", trial, kind.got, want)
			}
			for i := 1; i < len(kind.got); i++ {
				a, b := kind.got[i-1], kind.got[i]
				if a.U > b.U || (a.U == b.U && a.V >= b.V) {
					t.Fatalf("trial %d: edges %v then %v not strictly increasing", trial, a, b)
				}
			}
		}
	}
}

// TestSubgraphConcurrent: goroutines extracting disjoint and overlapping
// subsets from one shared graph at once (the division workers' pattern)
// each get the reference result. Run under -race to check the relabel
// pool hands every call its own array.
func TestSubgraphConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 200)
	subsets := make([][]int, 8)
	for w := range subsets {
		subsets[w] = rng.Perm(200)[:20+rng.Intn(150)]
	}
	var wg sync.WaitGroup
	for w, verts := range subsets {
		want, _ := refSubgraph(g, verts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, _ := g.Subgraph(verts); !equalGraphs(got, want) {
					t.Errorf("worker %d: concurrent subgraph differs from the reference", w)
					return
				}
			}
		}()
	}
	wg.Wait()
}
