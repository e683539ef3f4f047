package lp_test

// Oracle for the arena simplex: the dense row-per-slice tableau it
// replaced, kept verbatim (a fresh tableau per solve, every pivot sweeping
// all n columns of every row). The arena's sparse pivots skip only exact
// x − f·0 terms, so its X and Obj must match this reference bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"mpl/internal/coloring"
	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/graph"
	"mpl/internal/ilp"
	"mpl/internal/layout"
	"mpl/internal/lp"
	"mpl/internal/pipeline"
	"mpl/internal/portfolio"
)

const (
	eps        = 1e-9
	blandAfter = 2000
)

type denseTableau struct {
	m, n  int
	a     [][]float64
	rhs   []float64
	basis []int
}

func denseSolve(p *lp.Problem) lp.Result {
	if p.NumVars < 0 {
		panic("lp: negative NumVars")
	}
	obj := p.Objective
	if obj == nil {
		obj = make([]float64, p.NumVars)
	}
	if len(obj) != p.NumVars {
		panic(fmt.Sprintf("lp: objective has %d entries for %d vars", len(obj), p.NumVars))
	}

	m := len(p.Constraints)
	nStruct := p.NumVars

	// Count slack and artificial columns.
	nSlack := 0
	nArt := 0
	for _, c := range p.Constraints {
		rhs := c.RHS
		op := c.Op
		if rhs < 0 { // normalize to rhs >= 0
			op = flip(op)
		}
		switch op {
		case lp.LE:
			nSlack++
		case lp.GE:
			nSlack++
			nArt++
		case lp.EQ:
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	t := &denseTableau{
		m:     m,
		n:     n,
		a:     make([][]float64, m),
		rhs:   make([]float64, m),
		basis: make([]int, m),
	}
	artCols := make([]bool, n)
	slackAt := nStruct
	artAt := nStruct + nSlack
	for i, c := range p.Constraints {
		row := make([]float64, n)
		sign := 1.0
		op := c.Op
		rhs := c.RHS
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			op = flip(op)
		}
		for _, term := range c.Terms {
			if term.Var < 0 || term.Var >= nStruct {
				panic(fmt.Sprintf("lp: constraint %d references var %d of %d", i, term.Var, nStruct))
			}
			row[term.Var] += sign * term.Coef
		}
		switch op {
		case lp.LE:
			row[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case lp.GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			artCols[artAt] = true
			t.basis[i] = artAt
			artAt++
		case lp.EQ:
			row[artAt] = 1
			artCols[artAt] = true
			t.basis[i] = artAt
			artAt++
		}
		t.a[i] = row
		t.rhs[i] = rhs
	}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		phase1 := make([]float64, n)
		for j := range artCols {
			if artCols[j] {
				phase1[j] = 1
			}
		}
		st, obj1 := t.optimize(phase1, nil)
		if st == lp.IterLimit {
			return lp.Result{Status: lp.IterLimit}
		}
		if obj1 > 1e-6 {
			return lp.Result{Status: lp.Infeasible}
		}
		// Pivot remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if !artCols[t.basis[i]] {
				continue
			}
			pivoted := false
			for j := 0; j < n && !pivoted; j++ {
				if !artCols[j] && math.Abs(t.a[i][j]) > 1e-7 {
					t.pivot(i, j)
					pivoted = true
				}
			}
			// If no pivot exists the row is redundant; the artificial stays
			// basic at value 0, harmless as long as its column is barred.
		}
	}

	// Phase 2: minimize the real objective with artificial columns barred.
	fullObj := make([]float64, n)
	copy(fullObj, obj)
	st, objVal := t.optimize(fullObj, artCols)
	if st != lp.Optimal {
		return lp.Result{Status: st}
	}
	x := make([]float64, nStruct)
	for i, b := range t.basis {
		if b < nStruct {
			x[b] = t.rhs[i]
		}
	}
	return lp.Result{Status: lp.Optimal, X: x, Obj: objVal}
}

func flip(op lp.Op) lp.Op {
	switch op {
	case lp.LE:
		return lp.GE
	case lp.GE:
		return lp.LE
	}
	return lp.EQ
}

// optimize runs primal simplex minimizing obj over the current tableau.
// barred marks columns that may not enter the basis (artificials in
// phase 2). It returns the status and the objective value.
func (t *denseTableau) optimize(obj []float64, barred []bool) (lp.Status, float64) {
	// Reduced-cost row: z_j = obj_j - Σ_i obj[basis[i]] * a[i][j].
	// Maintained implicitly: recompute from scratch each pivot would be
	// O(mn); instead keep an explicit cost row and eliminate basic columns.
	cost := make([]float64, t.n)
	copy(cost, obj)
	objVal := 0.0
	for i, b := range t.basis {
		if cost[b] != 0 {
			c := cost[b]
			for j := 0; j < t.n; j++ {
				cost[j] -= c * t.a[i][j]
			}
			objVal -= c * t.rhs[i]
		}
	}

	for iter := 0; ; iter++ {
		if iter > blandAfter+20000 {
			return lp.IterLimit, 0
		}
		bland := iter > blandAfter
		// Choose entering column.
		enter := -1
		best := -eps
		for j := 0; j < t.n; j++ {
			if barred != nil && barred[j] {
				continue
			}
			if cost[j] < -eps {
				if bland {
					enter = j
					break
				}
				if cost[j] < best {
					best = cost[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return lp.Optimal, -objVal
		}
		// Ratio test for leaving row.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > eps {
				r := t.rhs[i] / aij
				if r < bestRatio-eps || (r < bestRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			return lp.Unbounded, 0
		}
		t.pivot(leave, enter)
		// Update the cost row for the pivot.
		c := cost[enter]
		if c != 0 {
			for j := 0; j < t.n; j++ {
				cost[j] -= c * t.a[leave][j]
			}
			objVal -= c * t.rhs[leave]
		}
	}
}

// pivot makes column enter basic in row leave via Gauss–Jordan elimination.
func (t *denseTableau) pivot(leave, enter int) {
	piv := t.a[leave][enter]
	inv := 1 / piv
	rowL := t.a[leave]
	for j := 0; j < t.n; j++ {
		rowL[j] *= inv
	}
	t.rhs[leave] *= inv
	rowL[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			row[j] -= f * rowL[j]
		}
		t.rhs[i] -= f * t.rhs[leave]
		row[enter] = 0 // exact
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	t.basis[leave] = enter
}

// sameBits reports whether two LP results agree bit for bit.
func sameBits(a, b lp.Result) bool {
	if a.Status != b.Status || math.Float64bits(a.Obj) != math.Float64bits(b.Obj) || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// randomLP draws a mixed LE/GE/EQ problem with negative right-hand sides
// and fractional coefficients; statuses come out optimal, infeasible and
// (with no upper bounds) unbounded.
func randomLP(rng *rand.Rand, nVars, nCons int) *lp.Problem {
	p := &lp.Problem{NumVars: nVars}
	if rng.Intn(5) > 0 {
		p.Objective = make([]float64, nVars)
		for j := range p.Objective {
			p.Objective[j] = float64(rng.Intn(21)-10) / 4
		}
	}
	for j := 0; j < nVars; j++ {
		if rng.Intn(4) > 0 {
			p.AddConstraint(lp.LE, float64(1+rng.Intn(3)), lp.Term{Var: j, Coef: 1})
		}
	}
	for c := 0; c < nCons; c++ {
		var terms []lp.Term
		for j := 0; j < nVars; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, lp.Term{Var: j, Coef: float64(rng.Intn(9)-4) / 2})
			}
		}
		p.AddConstraint(lp.Op(rng.Intn(3)), float64(rng.Intn(9)-2), terms...)
	}
	return p
}

// TestArenaMatchesDenseRandom: one arena solving a stream of random LPs of
// varying shape agrees bit for bit with the dense reference and with a
// fresh-arena Solve on every one.
func TestArenaMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ar lp.Arena
	statuses := map[lp.Status]int{}
	for trial := 0; trial < 400; trial++ {
		p := randomLP(rng, 1+rng.Intn(25), rng.Intn(30))
		want := denseSolve(p)
		statuses[want.Status]++
		if got := ar.Solve(p); !sameBits(got, want) {
			t.Fatalf("trial %d: arena %+v, dense reference %+v", trial, got, want)
		}
		if got := lp.Solve(p); !sameBits(got, want) {
			t.Fatalf("trial %d: Solve %+v, dense reference %+v", trial, got, want)
		}
	}
	if statuses[lp.Optimal] == 0 || statuses[lp.Infeasible] == 0 {
		t.Fatalf("random LPs cover too few outcomes: %v", statuses)
	}
}

// TestArenaReuseLargeThenSmall: solving a large model and then a small one
// on the same arena leaves nothing stale — the small solve (and a repeat of
// the large one) matches the dense reference exactly.
func TestArenaReuseLargeThenSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	large := randomLP(rng, 60, 90)
	small := randomLP(rng, 3, 2)
	var ar lp.Arena
	for i, p := range []*lp.Problem{large, small, large, small} {
		want := denseSolve(p)
		if got := ar.Solve(p); !sameBits(got, want) {
			t.Fatalf("solve %d (%d vars): arena %+v, dense reference %+v", i, p.NumVars, got, want)
		}
	}
}

// circuitILPPieces returns the pieces an auto-engine run (K=4) of every
// committed circuit routes to the exact ILP tier, in circuit then dispatch
// order. Division runs serially with the linear engine answering every
// piece: division is structural, so these are the pieces the auto
// dispatcher is handed.
func circuitILPPieces(tb testing.TB) []*graph.Graph {
	tb.Helper()
	lays, err := filepath.Glob(filepath.Join("..", "..", "benchmarks", "*.lay"))
	if err != nil || len(lays) == 0 {
		tb.Fatalf("no committed benchmarks/*.lay found (%v)", err)
	}
	sort.Strings(lays)
	opts := core.Options{K: 4, Engine: core.EngineAuto}.Normalize()
	var pieces []*graph.Graph
	for _, path := range lays {
		l, err := layout.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		dg, err := core.BuildGraph(l, opts.Build)
		if err != nil {
			tb.Fatal(err)
		}
		division.Decompose(dg.G, opts.Division, func(g *graph.Graph, _ *pipeline.Scratch) []int {
			if opts.Portfolio.Select(portfolio.Analyze(g), opts.K) == portfolio.ILP {
				pieces = append(pieces, g)
			}
			return coloring.Linear(g, opts.Linear)
		})
	}
	if len(pieces) == 0 {
		tb.Fatal("committed circuits yielded no ILP pieces")
	}
	return pieces
}

// refSearch is the branch-and-bound of package ilp as it was before the
// per-search arena: every node copies the base constraint list, appends its
// fixings, and solves on a fresh dense tableau; children get copied fixing
// slices. It additionally solves each node LP on one shared arena, which
// must agree bit for bit.
type refSearch struct {
	prob     *ilp.Problem
	base     lp.Problem
	arena    *lp.Arena
	nodes    int
	bestObj  float64
	bestX    []float64
	mismatch string
}

func (s *refSearch) branch(fixed []int8) {
	if s.mismatch != "" {
		return
	}
	s.nodes++
	node := s.base
	node.Constraints = append([]lp.Constraint(nil), s.base.Constraints...)
	for j, f := range fixed {
		switch f {
		case 1:
			node.Constraints = append(node.Constraints,
				lp.Constraint{Terms: []lp.Term{{Var: j, Coef: 1}}, Op: lp.LE, RHS: 0})
		case 2:
			node.Constraints = append(node.Constraints,
				lp.Constraint{Terms: []lp.Term{{Var: j, Coef: 1}}, Op: lp.GE, RHS: 1})
		}
	}
	rel := denseSolve(&node)
	if got := s.arena.Solve(&node); !sameBits(got, rel) {
		s.mismatch = fmt.Sprintf("node %d: arena obj %v status %v, dense obj %v status %v",
			s.nodes, got.Obj, got.Status, rel.Obj, rel.Status)
		return
	}
	if rel.Status != lp.Optimal || rel.Obj >= s.bestObj-1e-9 {
		return
	}
	branchVar := -1
	worst := 1e-6
	for j, isBin := range s.prob.Binary {
		if !isBin || fixed[j] != 0 {
			continue
		}
		if frac := math.Abs(rel.X[j] - math.Round(rel.X[j])); frac > worst {
			worst = frac
			branchVar = j
		}
	}
	if branchVar < 0 {
		x := append([]float64(nil), rel.X...)
		for j, isBin := range s.prob.Binary {
			if isBin {
				x[j] = math.Round(x[j])
			}
		}
		s.bestObj, s.bestX = rel.Obj, x
		return
	}
	first, second := int8(1), int8(2)
	if rel.X[branchVar] >= 0.5 {
		first, second = 2, 1
	}
	for _, dir := range []int8{first, second} {
		child := append([]int8(nil), fixed...)
		child[branchVar] = dir
		s.branch(child)
	}
}

// TestArenaMatchesDenseOnCircuitPieces: on the ILP model of every
// committed circuit's ILP pieces, every branch-and-bound node LP solved on
// one arena (shared across all pieces, so sizes grow and shrink) matches
// the dense reference bit for bit, and the production search returns the
// reference search's X, Obj and node count exactly.
func TestArenaMatchesDenseOnCircuitPieces(t *testing.T) {
	pieces := circuitILPPieces(t)
	var ar lp.Arena
	for i, g := range pieces {
		prob := coloring.ILPModel(g, 4, 0.1)
		s := &refSearch{prob: prob, arena: &ar, bestObj: math.Inf(1)}
		s.base = prob.LP
		s.base.Constraints = append([]lp.Constraint(nil), prob.LP.Constraints...)
		for j, isBin := range prob.Binary {
			if isBin {
				s.base.Constraints = append(s.base.Constraints,
					lp.Constraint{Terms: []lp.Term{{Var: j, Coef: 1}}, Op: lp.LE, RHS: 1})
			}
		}
		s.branch(make([]int8, prob.LP.NumVars))
		if s.mismatch != "" {
			t.Fatalf("piece %d (n=%d): %s", i, g.N(), s.mismatch)
		}
		got := ilp.Solve(prob, ilp.Options{})
		if got.Status != ilp.Optimal || got.Nodes != s.nodes ||
			!sameBits(lp.Result{X: got.X, Obj: got.Obj}, lp.Result{X: s.bestX, Obj: s.bestObj}) {
			t.Fatalf("piece %d (n=%d): search status %v nodes %d obj %v, reference nodes %d obj %v",
				i, g.N(), got.Status, got.Nodes, got.Obj, s.nodes, s.bestObj)
		}
	}
	t.Logf("%d ILP pieces matched", len(pieces))
}

// BenchmarkILPAssign solves every committed circuit's ILP pieces (auto
// engine, K=4) per op; run with -benchmem to watch the LP path's allocs/op.
func BenchmarkILPAssign(b *testing.B) {
	pieces := circuitILPPieces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range pieces {
			if res := coloring.ILPAssign(g, 4, 0.1, 0); !res.Proven {
				b.Fatalf("piece of %d vertices not proven", g.N())
			}
		}
	}
}
