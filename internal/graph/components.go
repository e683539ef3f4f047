package graph

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ComponentsWorkers is Components with the edge scan sharded across workers
// goroutines (0 or 1 means serial — identical to Components). The parallel
// path runs a lock-free union-find over the CSR adjacency arenas: workers
// sweep disjoint vertex ranges and union each vertex with its conflict and
// stitch neighbors, roots always winning toward the smaller id, so the final
// partition — and therefore the output — is independent of scheduling. The
// result is byte-identical to Components at any worker count: components
// ordered by smallest member, members sorted ascending.
func (g *Graph) ComponentsWorkers(workers int) [][]int {
	// Below this size the serial DFS wins on constant factors; the threshold
	// only affects wall clock, never output.
	const parallelMin = 1 << 14
	if workers <= 1 || g.n < parallelMin {
		return g.Components()
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}

	parent := make([]atomic.Int32, g.n)
	for i := range parent {
		parent[i].Store(int32(i))
	}
	find := func(x int32) int32 {
		for {
			p := parent[x].Load()
			if p == x {
				return x
			}
			gp := parent[p].Load()
			if gp != p {
				// Path halving: safe to race, only shortens chains.
				parent[x].CompareAndSwap(p, gp)
			}
			x = p
		}
	}
	union := func(u, v int32) {
		for {
			ru, rv := find(u), find(v)
			if ru == rv {
				return
			}
			if ru > rv {
				ru, rv = rv, ru
			}
			// Smaller root wins: a root only ever re-parents to a smaller id,
			// so the eventual forest (and every component's minimum) is a
			// pure function of the edge set.
			if parent[rv].CompareAndSwap(rv, ru) {
				return
			}
		}
	}

	chunk := g.n/(workers*4) + 1
	nChunks := (g.n + chunk - 1) / chunk
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo := c * chunk
				hi := min(lo+chunk, g.n)
				for u := lo; u < hi; u++ {
					for _, v := range g.conf[u] {
						if int(v) > u {
							union(int32(u), v)
						}
					}
					for _, v := range g.stit[u] {
						if int(v) > u {
							union(int32(u), v)
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	// Serial relabel in vertex order: component ids are assigned at each
	// root's first appearance — i.e. at the component's smallest vertex —
	// and members fill in ascending order, matching the DFS layout.
	comp := make([]int32, g.n)
	var sizes []int
	for v := 0; v < g.n; v++ {
		r := find(int32(v))
		if int(r) == v {
			comp[v] = int32(len(sizes))
			sizes = append(sizes, 1)
			continue
		}
		id := comp[r]
		comp[v] = id
		sizes[id]++
	}
	return groupComponents(comp, sizes)
}
