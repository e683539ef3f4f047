// Package lp implements a dense two-phase primal simplex solver for linear
// programs in inequality form. It is the LP engine underneath the
// branch-and-bound ILP solver (package ilp), which together substitute for
// the commercial GUROBI solver used by the DAC'14 paper's exact baseline.
//
// The solver targets the small-to-medium dense problems produced by layout
// decomposition components (hundreds of variables and constraints); it uses
// Dantzig pricing with an automatic switch to Bland's rule to guarantee
// termination, and explicit tolerance handling suitable for the 0/1
// formulations the decomposer generates.
package lp

import (
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a sparse linear constraint  Σ Coef·x  Op  RHS.
type Constraint struct {
	Terms []Term
	Op    Op
	RHS   float64
}

// Problem is a minimization LP over variables x ≥ 0.
//
//	minimize  Objective · x
//	subject to Constraints, x ≥ 0
//
// Upper bounds (e.g. the x ≤ 1 of binary relaxations) are expressed as
// ordinary LE constraints by the caller.
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
}

// AddConstraint appends a constraint built from (var, coef) pairs.
func (p *Problem) AddConstraint(op Op, rhs float64, terms ...Term) {
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Op: op, RHS: rhs})
}

// Status describes the outcome of a Solve call.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Result carries the solution of an LP.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
}

const (
	eps        = 1e-9
	blandAfter = 2000 // pivots before switching to Bland's rule
)

// Arena is the working storage of the simplex: the dense tableau
// (rows = constraints; columns = structural + slack + artificial variables,
// with the RHS kept apart) and its per-solve vectors, in flat slices that
// grow to the largest problem seen and are reused afterwards. A
// branch-and-bound search owns one Arena and solves every node LP in it
// instead of allocating a fresh tableau per node. The zero Arena is ready
// to use; an Arena is not safe for concurrent use.
type Arena struct {
	m, n  int       // constraint rows, total columns (excluding RHS)
	a     []float64 // m×n tableau, row-major
	rhs   []float64
	basis []int // basis[i] = column basic in row i
	art   []bool
	cost  []float64 // reduced-cost row
	obj   []float64 // current phase objective
	nz    []int     // nonzero columns of the last scaled pivot row
	x     []float64
}

// Solve optimizes the problem in a fresh Arena. A nil Objective is treated
// as all zeros (pure feasibility).
func Solve(p *Problem) Result {
	var ar Arena
	return ar.Solve(p)
}

// zeroed returns s resized to n with every element zero, reallocating only
// when s is too short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Solve optimizes the problem reusing the arena's storage. The result is
// bit-identical to Solve's; its X aliases the arena and stays valid only
// until the arena's next Solve.
func (t *Arena) Solve(p *Problem) Result {
	if p.NumVars < 0 {
		panic("lp: negative NumVars")
	}
	obj := p.Objective
	if obj != nil && len(obj) != p.NumVars {
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
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	t.m, t.n = m, n
	t.a = zeroed(t.a, m*n)
	t.rhs = zeroed(t.rhs, m)
	t.basis = zeroed(t.basis, m)
	t.art = zeroed(t.art, n)
	slackAt := nStruct
	artAt := nStruct + nSlack
	for i, c := range p.Constraints {
		row := t.row(i)
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
		case LE:
			row[slackAt] = 1
			t.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			t.art[artAt] = true
			t.basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			t.art[artAt] = true
			t.basis[i] = artAt
			artAt++
		}
		t.rhs[i] = rhs
	}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		t.obj = zeroed(t.obj, n)
		for j, isArt := range t.art {
			if isArt {
				t.obj[j] = 1
			}
		}
		st, obj1 := t.optimize(nil)
		if st == IterLimit {
			return Result{Status: IterLimit}
		}
		if obj1 > 1e-6 {
			return Result{Status: Infeasible}
		}
		// Pivot remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if !t.art[t.basis[i]] {
				continue
			}
			row := t.row(i)
			for j := 0; j < n; j++ {
				if !t.art[j] && math.Abs(row[j]) > 1e-7 {
					t.pivot(i, j)
					break
				}
			}
			// If no pivot exists the row is redundant; the artificial stays
			// basic at value 0, harmless as long as its column is barred.
		}
	}

	// Phase 2: minimize the real objective with artificial columns barred.
	t.obj = zeroed(t.obj, n)
	copy(t.obj, obj)
	st, objVal := t.optimize(t.art)
	if st != Optimal {
		return Result{Status: st}
	}
	t.x = zeroed(t.x, nStruct)
	for i, b := range t.basis {
		if b < nStruct {
			t.x[b] = t.rhs[i]
		}
	}
	return Result{Status: Optimal, X: t.x, Obj: objVal}
}

func flip(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	}
	return EQ
}

// row returns tableau row i as a view into the arena.
func (t *Arena) row(i int) []float64 { return t.a[i*t.n : (i+1)*t.n : (i+1)*t.n] }

// optimize runs primal simplex minimizing t.obj over the current tableau.
// barred marks columns that may not enter the basis (artificials in
// phase 2). It returns the status and the objective value.
func (t *Arena) optimize(barred []bool) (Status, float64) {
	// Reduced-cost row: z_j = obj_j - Σ_i obj[basis[i]] * a[i][j].
	// Maintained implicitly: recompute from scratch each pivot would be
	// O(mn); instead keep an explicit cost row and eliminate basic columns.
	t.cost = append(t.cost[:0], t.obj...)
	cost := t.cost
	objVal := 0.0
	for i, b := range t.basis {
		if cost[b] != 0 {
			c := cost[b]
			row := t.row(i)
			for j := 0; j < t.n; j++ {
				cost[j] -= c * row[j]
			}
			objVal -= c * t.rhs[i]
		}
	}

	for iter := 0; ; iter++ {
		if iter > blandAfter+20000 {
			return IterLimit, 0
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
			return Optimal, -objVal
		}
		// Ratio test for leaving row.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i*t.n+enter]
			if aij > eps {
				r := t.rhs[i] / aij
				if r < bestRatio-eps || (r < bestRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded, 0
		}
		t.pivot(leave, enter)
		// Update the cost row for the pivot: only the pivot row's nonzero
		// columns can change it.
		c := cost[enter]
		if c != 0 {
			rowL := t.row(leave)
			for _, j := range t.nz {
				cost[j] -= c * rowL[j]
			}
			objVal -= c * t.rhs[leave]
		}
	}
}

// pivot makes column enter basic in row leave via Gauss–Jordan elimination.
// The scaled pivot row's nonzero columns are gathered once into t.nz, and
// the elimination sweep touches only those: every skipped term is an exact
// x − f·0, so the result matches a dense sweep bit for bit (up to the sign
// of zeros, which no comparison or nonzero value can observe).
func (t *Arena) pivot(leave, enter int) {
	rowL := t.row(leave)
	inv := 1 / rowL[enter]
	t.nz = t.nz[:0]
	for j, v := range rowL {
		if v != 0 {
			rowL[j] = v * inv
			t.nz = append(t.nz, j)
		}
	}
	t.rhs[leave] *= inv
	rowL[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		row := t.row(i)
		f := row[enter]
		if f == 0 {
			continue
		}
		for _, j := range t.nz {
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
