package coloring

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"mpl/internal/graph"
	"mpl/internal/pipeline"
	"mpl/internal/sdp"
)

// solveSDP runs the relaxation with fresh heap workspace and serial
// restarts.
func solveSDP(g *graph.Graph, opts sdp.Options) *sdp.Solution {
	return sdp.SolveScratchEnv(context.Background(), g, opts, nil, pipeline.Env{})
}

// bruteForce finds the minimum-cost assignment by enumerating k^n colorings.
func bruteForce(g *graph.Graph, k int, alpha float64) (best []int, bestCost float64) {
	n := g.N()
	colors := make([]int, n)
	best = make([]int, n)
	bestCost = math.Inf(1)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if c := Cost(g, colors, alpha); c < bestCost {
				bestCost = c
				copy(best, colors)
			}
			return
		}
		for c := 0; c < k; c++ {
			colors[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return best, bestCost
}

func randomGraph(rng *rand.Rand, n, ce, se int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < ce; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasStitch(u, v) {
			g.AddConflict(u, v)
		}
	}
	for i := 0; i < se; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasConflict(u, v) && !g.HasStitch(u, v) {
			g.AddStitch(u, v)
		}
	}
	return g
}

func TestCountAndCost(t *testing.T) {
	g := graph.New(4)
	g.AddConflict(0, 1)
	g.AddConflict(1, 2)
	g.AddStitch(2, 3)
	colors := []int{0, 0, 1, 0}
	c, s := Count(g, colors)
	if c != 1 || s != 1 {
		t.Fatalf("Count = %d,%d want 1,1", c, s)
	}
	if got := Cost(g, colors, 0.1); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("Cost = %v", got)
	}
	// Uncolored endpoints are skipped.
	colors[1] = Uncolored
	c, s = Count(g, colors)
	if c != 0 || s != 1 {
		t.Fatalf("Count with uncolored = %d,%d", c, s)
	}
}

func TestValidate(t *testing.T) {
	g := graph.New(2)
	if err := Validate(g, []int{0, 3}, 4); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	if err := Validate(g, []int{0}, 4); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := Validate(g, []int{0, 4}, 4); err == nil {
		t.Fatal("out-of-range color accepted")
	}
	if err := Validate(g, []int{0, Uncolored}, 4); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
}

func TestWeightedBasics(t *testing.T) {
	w := NewWeighted(3)
	w.AddConflict(0, 1, 2)
	w.AddConflict(0, 1, 1) // accumulates to 3
	w.AddStitch(1, 2, 5)
	c, s := w.CountWeighted([]int{0, 0, 1})
	if c != 3 || s != 5 {
		t.Fatalf("CountWeighted = %d,%d want 3,5", c, s)
	}
	c, s = w.CountWeighted([]int{0, 1, 1})
	if c != 0 || s != 0 {
		t.Fatalf("CountWeighted = %d,%d want 0,0", c, s)
	}
}

func TestBacktrackEmptyAndSingle(t *testing.T) {
	res := NewWeighted(0).Backtrack(4, 0.1, 0)
	if !res.Proven || len(res.Colors) != 0 {
		t.Fatalf("empty = %+v", res)
	}
	res = NewWeighted(1).Backtrack(4, 0.1, 0)
	if !res.Proven || res.Conflicts != 0 {
		t.Fatalf("single = %+v", res)
	}
}

func TestBacktrackK5(t *testing.T) {
	// K5 with 4 colors: the minimum conflict count is 1.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddConflict(i, j)
		}
	}
	res := FromGraph(g).Backtrack(4, 0.1, 0)
	if !res.Proven || res.Conflicts != 1 || res.Stitches != 0 {
		t.Fatalf("K5 result = %+v", res)
	}
}

func TestBacktrackMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(6)
		g := randomGraph(rng, n, n+rng.Intn(2*n), rng.Intn(3))
		k := 3 + rng.Intn(2)
		_, wantCost := bruteForce(g, k, 0.1)
		res := FromGraph(g).Backtrack(k, 0.1, 0)
		gotCost := float64(res.Conflicts) + 0.1*float64(res.Stitches)
		if !res.Proven {
			t.Fatalf("trial %d: not proven", trial)
		}
		if math.Abs(gotCost-wantCost) > 1e-9 {
			t.Fatalf("trial %d: backtrack cost %v, brute force %v", trial, gotCost, wantCost)
		}
	}
}

func TestBacktrackNodeLimit(t *testing.T) {
	// A dense graph with a tiny node budget still returns a valid coloring.
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 20, 80, 5)
	res := FromGraph(g).Backtrack(4, 0.1, 5)
	if res.Proven {
		t.Fatal("5-node budget cannot prove optimality here")
	}
	if err := Validate(g, res.Colors, 4); err != nil {
		t.Fatalf("invalid fallback coloring: %v", err)
	}
}

func TestSDPBacktrackNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(5)
		g := randomGraph(rng, n, n+rng.Intn(n), rng.Intn(3))
		sol := solveSDP(g, sdp.Options{K: 4, Alpha: 0.1, Seed: int64(trial)})
		colors, proven := SDPBacktrack(g, sol, 4, 0.1, 0.9, 0)
		if !proven {
			t.Fatalf("trial %d: merged backtrack not proven", trial)
		}
		if err := Validate(g, colors, 4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gotC, _ := Count(g, colors)
		bf, _ := bruteForce(g, 4, 0.1)
		wantC, _ := Count(g, bf)
		if gotC > wantC {
			t.Errorf("trial %d: SDP+Backtrack conflicts %d > optimal %d", trial, gotC, wantC)
		}
	}
}

func TestSDPGreedyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(7)
		g := randomGraph(rng, n, n+rng.Intn(n), rng.Intn(3))
		sol := solveSDP(g, sdp.Options{K: 4, Alpha: 0.1, Seed: int64(trial)})
		colors := SDPGreedy(g, sol, 4, 0.1)
		if err := Validate(g, colors, 4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestSDPGreedyTwoCliques(t *testing.T) {
	// Two K4s with K=4: both algorithms must find zero conflicts.
	g := graph.New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddConflict(i, j)
			g.AddConflict(4+i, 4+j)
		}
	}
	sol := solveSDP(g, sdp.Options{K: 4, Alpha: 0.1, Seed: 2, Restarts: 4})
	colors := SDPGreedy(g, sol, 4, 0.1)
	if c, _ := Count(g, colors); c != 0 {
		t.Fatalf("greedy conflicts = %d, want 0", c)
	}
	colors, _ = SDPBacktrack(g, sol, 4, 0.1, 0.9, 0)
	if c, _ := Count(g, colors); c != 0 {
		t.Fatalf("backtrack conflicts = %d, want 0", c)
	}
}

func TestLinearEmptyAndValidity(t *testing.T) {
	if got := Linear(graph.New(0), LinearOptions{K: 4, Alpha: 0.1}); len(got) != 0 {
		t.Fatalf("empty = %v", got)
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, 2*n, n/2)
		colors := Linear(g, LinearOptions{K: 4, Alpha: 0.1})
		if err := Validate(g, colors, 4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLinearK5(t *testing.T) {
	// K5 with K=4: optimal is 1 conflict; linear must match (nothing peels,
	// peer selection and refinement keep it tight on this symmetric case).
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddConflict(i, j)
		}
	}
	colors := Linear(g, LinearOptions{K: 4, Alpha: 0.1})
	if c, _ := Count(g, colors); c != 1 {
		t.Fatalf("K5 conflicts = %d, want 1", c)
	}
}

func TestLinearPeelSafety(t *testing.T) {
	// Paper's claim: stack pops never add conflicts, so the final conflict
	// count equals the conflict count among core vertices alone.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(30)
		g := randomGraph(rng, n, 2*n, 0)
		k := 4
		_, core := g.PeelOrder(k, 2, nil)
		colors := Linear(g, LinearOptions{K: k, Alpha: 0.1})
		total, _ := Count(g, colors)
		inCore := make(map[int]bool)
		for _, v := range core {
			inCore[v] = true
		}
		coreConf := 0
		for _, e := range g.ConflictEdges() {
			if inCore[e.U] && inCore[e.V] && colors[e.U] == colors[e.V] {
				coreConf++
			}
		}
		if total != coreConf {
			t.Fatalf("trial %d: total conflicts %d != core conflicts %d (pops added conflicts)",
				trial, total, coreConf)
		}
	}
}

func TestFig4ColorFriendly(t *testing.T) {
	// Fig. 4's mechanism: a vertex with a color-friendly neighbor prefers
	// that neighbor's color when otherwise indifferent — and a real
	// conflict still dominates the friendly bonus.
	g := graph.New(4)
	g.AddConflict(0, 3) // vertex 3 conflicts with vertex 0
	g.AddFriend(1, 3)   // vertex 3 is color-friendly to vertex 1
	colors := []int{0, 2, Uncolored, Uncolored}
	opts := LinearOptions{K: 4, Alpha: 0.1}.withDefaults()

	// Without friends, vertex 3 avoids color 0 and takes the lowest free
	// color, 1. With friends it prefers 2 (vertex 1's color).
	noFriends := opts
	noFriends.DisableColorFriendly = true
	if got := chooseColor(g, colors, 3, noFriends); got != 1 {
		t.Fatalf("no-friend choice = %d, want 1", got)
	}
	if got := chooseColor(g, colors, 3, opts); got != 2 {
		t.Fatalf("friend choice = %d, want 2", got)
	}
	// A conflict with the friendly color overrides the bonus.
	g2 := graph.New(4)
	g2.AddConflict(2, 3)
	g2.AddFriend(1, 3)
	colors2 := []int{0, 2, 2, Uncolored}
	if got := chooseColor(g2, colors2, 3, opts); got == 2 {
		t.Fatal("friend bonus overrode a real conflict")
	}
}

func TestLinearOrdersAndPeerSelection(t *testing.T) {
	// The three orders must be permutations of the core.
	g := graph.New(8)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddConflict(i, j)
		}
	}
	g.AddConflict(5, 0)
	g.AddConflict(6, 1)
	g.AddConflict(7, 2)
	_, core := g.PeelOrder(4, 2, nil)
	for name, ord := range map[string][]int{
		"sequence": sequenceOrder(core),
		"degree":   degreeOrder(g, core),
		"3round":   threeRoundOrder(g, core, 4),
	} {
		if len(ord) != len(core) {
			t.Fatalf("%s: length %d, want %d", name, len(ord), len(core))
		}
		seen := map[int]bool{}
		for _, v := range ord {
			if seen[v] {
				t.Fatalf("%s: duplicate vertex %d", name, v)
			}
			seen[v] = true
		}
	}
}

func TestLinearPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=1 did not panic")
		}
	}()
	Linear(graph.New(1), LinearOptions{K: 1})
}

func TestILPAssignMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		g := randomGraph(rng, n, n+rng.Intn(n), rng.Intn(2))
		res := ILPAssign(g, 4, 0.1, 30*time.Second)
		if !res.Proven {
			t.Fatalf("trial %d: ILP not proven (%v)", trial, res.Status)
		}
		if err := Validate(g, res.Colors, 4); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, want := bruteForce(g, 4, 0.1)
		got := Cost(g, res.Colors, 0.1)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ILP cost %v, brute force %v", trial, got, want)
		}
	}
}

func TestILPAssignK5(t *testing.T) {
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddConflict(i, j)
		}
	}
	res := ILPAssign(g, 4, 0.1, time.Minute)
	if !res.Proven {
		t.Fatalf("status %v", res.Status)
	}
	if c, _ := Count(g, res.Colors); c != 1 {
		t.Fatalf("K5 ILP conflicts = %d, want 1", c)
	}
}

func TestILPAssignEmpty(t *testing.T) {
	res := ILPAssign(graph.New(0), 4, 0.1, 0)
	if !res.Proven || len(res.Colors) != 0 {
		t.Fatalf("empty = %+v", res)
	}
}

func TestILPStitchTradeoff(t *testing.T) {
	// Path 0-1 conflict; stitch 1-2; conflict 2-0. Coloring 0,1 differ;
	// vertex 2 must differ from 0; stitch to 1 avoidable by matching 1.
	g := graph.New(3)
	g.AddConflict(0, 1)
	g.AddStitch(1, 2)
	g.AddConflict(0, 2)
	res := ILPAssign(g, 4, 0.1, time.Minute)
	c, s := Count(g, res.Colors)
	if c != 0 || s != 0 {
		t.Fatalf("conflicts=%d stitches=%d, want 0,0 (colors %v)", c, s, res.Colors)
	}
}

func TestSDPGreedyPentuple(t *testing.T) {
	// K5 clique at K=5 is cleanly colorable; greedy must find it.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.AddConflict(i, j)
		}
	}
	sol := solveSDP(g, sdp.Options{K: 5, Alpha: 0.1, Seed: 8})
	colors := SDPGreedy(g, sol, 5, 0.1)
	if c, _ := Count(g, colors); c != 0 {
		t.Fatalf("K5 with 5 colors: greedy conflicts = %d", c)
	}
	bt, _ := SDPBacktrack(g, sol, 5, 0.1, 0.9, 0)
	if c, _ := Count(g, bt); c != 0 {
		t.Fatalf("K5 with 5 colors: backtrack conflicts = %d", c)
	}
}

func TestBacktrackStitchTradeoff(t *testing.T) {
	// Merged graph with weighted edges: a stitch of weight 30 (cost 3.0 at
	// α=0.1) outweighs one conflict of weight 2 — the optimizer must take
	// the conflict.
	w := NewWeighted(2)
	w.AddConflict(0, 1, 2)
	w.AddStitch(0, 1, 30)
	res := w.Backtrack(4, 0.1, 0)
	if !res.Proven {
		t.Fatal("not proven")
	}
	if res.Conflicts != 2 || res.Stitches != 0 {
		t.Fatalf("cn/st = %d/%d, want 2/0 (same color despite conflicts)", res.Conflicts, res.Stitches)
	}
	// Flip the weights: now splitting wins.
	w2 := NewWeighted(2)
	w2.AddConflict(0, 1, 2)
	w2.AddStitch(0, 1, 3)
	res2 := w2.Backtrack(4, 0.1, 0)
	if res2.Conflicts != 0 || res2.Stitches != 3 {
		t.Fatalf("cn/st = %d/%d, want 0/3", res2.Conflicts, res2.Stitches)
	}
}

func TestLinearStitchAwareness(t *testing.T) {
	// A stitch pair whose endpoints have disjoint conflict constraints:
	// linear should avoid the stitch when a shared color exists.
	g := graph.New(4)
	g.AddStitch(0, 1)
	g.AddConflict(0, 2) // 2 will take some color; 0 must differ from 2
	g.AddConflict(1, 3)
	colors := Linear(g, LinearOptions{K: 4, Alpha: 0.1})
	if c, s := Count(g, colors); c != 0 || s != 0 {
		t.Fatalf("cn/st = %d/%d, want 0/0 (colors %v)", c, s, colors)
	}
}
