// Package ilp implements a 0/1 integer linear programming solver by
// branch-and-bound over LP relaxations (package lp). It substitutes for the
// GUROBI solver the DAC'14 paper uses for its exact ILP baseline: exact when
// it finishes, and — like the paper's Table 1, where the four largest cases
// report "N/A (>3600s)" — it honors a wall-clock budget and reports whether
// the incumbent is proven optimal.
package ilp

import (
	"context"
	"math"
	"sync"
	"time"

	"mpl/internal/lp"
)

// Problem is a minimization ILP: the embedded LP plus a set of variables
// restricted to {0, 1}. Non-binary variables remain continuous ≥ 0.
type Problem struct {
	LP     lp.Problem
	Binary []bool // len == LP.NumVars
}

// NewBinaryProblem returns a problem whose variables are all binary.
func NewBinaryProblem(numVars int) *Problem {
	return &Problem{
		LP:     lp.Problem{NumVars: numVars, Objective: make([]float64, numVars)},
		Binary: makeTrue(numVars),
	}
}

func makeTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// Status describes the solve outcome.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal.
	Optimal Status = iota
	// Feasible means the time budget expired with an incumbent that is
	// feasible but not proven optimal.
	Feasible
	// Infeasible means the problem has no integer solution.
	Infeasible
	// TimedOut means the budget expired before any integer solution was found.
	TimedOut
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case TimedOut:
		return "timed-out"
	}
	return "unknown"
}

// Result is the outcome of a branch-and-bound run.
type Result struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // explored branch-and-bound nodes
}

// Options tunes the search.
type Options struct {
	// TimeLimit bounds wall-clock time; zero means no limit.
	TimeLimit time.Duration
	// MaxNodes bounds explored nodes; zero means no limit.
	MaxNodes int
}

const intTol = 1e-6

// arenas recycles simplex arenas across searches: the exact engine runs one
// search per small piece, and a warm arena already has the tableau
// capacity the next piece needs.
var arenas = sync.Pool{New: func() any { return new(lp.Arena) }}

// Solve is SolveContext without cancellation (budget limits still apply).
func Solve(p *Problem, opts Options) Result {
	return SolveContext(context.Background(), p, opts)
}

// SolveContext runs best-effort exact branch-and-bound. ctx cancels the
// search cooperatively: the incumbent at cancellation time is returned
// with a Feasible (or TimedOut) status, the same contract as an expired
// TimeLimit.
func SolveContext(ctx context.Context, p *Problem, opts Options) Result {
	if len(p.Binary) != p.LP.NumVars {
		panic("ilp: Binary mask length mismatch")
	}
	s := &searcher{
		prob:    p,
		arena:   arenas.Get().(*lp.Arena),
		maxNode: opts.MaxNodes,
		bestObj: math.Inf(1),
		done:    ctx.Done(),
	}
	defer arenas.Put(s.arena)
	if opts.TimeLimit > 0 {
		// Budget expiry is not a determinism hazard: it is surfaced as
		// Status TimedOut/Feasible, which callers map to Proven=false —
		// never as silently different bytes under a "solved" label.
		//lint:ignore determinism wall-clock TimeLimit is surfaced via Status (Proven=false), not output bytes
		s.deadline = time.Now().Add(opts.TimeLimit)
	}

	// Box constraints x_j <= 1 for binary variables, shared by every node.
	// Node LPs are this base list plus their fixings, assembled in one
	// reused buffer: the base prefix is written once, and each node only
	// truncates back to it and appends its own fixings. Every box and
	// fixing row is a view of the one-term-per-variable unit slice.
	s.unit = make([]lp.Term, p.LP.NumVars)
	for j := range s.unit {
		s.unit[j] = lp.Term{Var: j, Coef: 1}
	}
	s.node = p.LP
	s.node.Constraints = append([]lp.Constraint(nil), p.LP.Constraints...)
	for j, isBin := range p.Binary {
		if isBin {
			s.node.Constraints = append(s.node.Constraints,
				lp.Constraint{Terms: s.unitTerm(j), Op: lp.LE, RHS: 1})
		}
	}
	s.nBase = len(s.node.Constraints)
	fixed := make([]int8, p.LP.NumVars) // 0 = unfixed, 1 = fixed to zero, 2 = fixed to one
	s.branch(fixed)

	switch {
	case s.bestX != nil && !s.stopped:
		return Result{Status: Optimal, X: s.bestX, Obj: s.bestObj, Nodes: s.nodes}
	case s.bestX != nil:
		return Result{Status: Feasible, X: s.bestX, Obj: s.bestObj, Nodes: s.nodes}
	case s.stopped:
		return Result{Status: TimedOut, Nodes: s.nodes}
	default:
		return Result{Status: Infeasible, Nodes: s.nodes}
	}
}

type searcher struct {
	prob     *Problem
	node     lp.Problem // base constraints, then the current node's fixings
	nBase    int        // length of the base prefix of node.Constraints
	unit     []lp.Term  // unit[j] = 1·x_j
	arena    *lp.Arena  // tableau storage shared by every node LP
	deadline time.Time
	done     <-chan struct{}
	maxNode  int
	nodes    int
	bestObj  float64
	bestX    []float64
	stopped  bool
}

func (s *searcher) timeUp() bool {
	if s.stopped {
		return true
	}
	if s.maxNode > 0 && s.nodes >= s.maxNode {
		s.stopped = true
		return true
	}
	if s.done != nil {
		select {
		case <-s.done:
			s.stopped = true
			return true
		default:
		}
	}
	// Check the clock sparingly.
	//lint:ignore determinism deadline expiry sets stopped, surfaced as TimedOut/Feasible (Proven=false), never as different bytes under Optimal
	if !s.deadline.IsZero() && s.nodes%16 == 0 && time.Now().After(s.deadline) {
		s.stopped = true
		return true
	}
	return false
}

// unitTerm returns the one-term row 1·x_j as a full-capacity view.
func (s *searcher) unitTerm(j int) []lp.Term { return s.unit[j : j+1 : j+1] }

// branch explores the subproblem with the given variable fixings
// (0 = unfixed, 1 = fixed to zero, 2 = fixed to one). It fixes and unfixes
// the branching variable in place, so fixed is unchanged on return.
func (s *searcher) branch(fixed []int8) {
	if s.timeUp() {
		return
	}
	s.nodes++

	// Assemble the node LP: base plus fixing constraints. The buffer is
	// free to reuse: a parent's LP is solved and consumed before any child
	// rewrites it.
	cons := s.node.Constraints[:s.nBase]
	for j, f := range fixed {
		switch f {
		case 1:
			cons = append(cons, lp.Constraint{Terms: s.unitTerm(j), Op: lp.LE, RHS: 0})
		case 2:
			cons = append(cons, lp.Constraint{Terms: s.unitTerm(j), Op: lp.GE, RHS: 1})
		}
	}
	s.node.Constraints = cons
	rel := s.arena.Solve(&s.node)
	switch rel.Status {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		// With all-binary variables this cannot happen; for mixed problems
		// treat as a dead end conservatively... an unbounded relaxation
		// admits arbitrarily good integer solutions only if one exists; we
		// cannot certify, so we abandon the node.
		return
	case lp.IterLimit:
		s.stopped = true
		return
	}
	if rel.Obj >= s.bestObj-1e-9 {
		return // bound: cannot improve the incumbent
	}

	// Find the most fractional binary variable.
	branchVar := -1
	worst := intTol
	for j, isBin := range s.prob.Binary {
		if !isBin || fixed[j] != 0 {
			continue
		}
		frac := math.Abs(rel.X[j] - math.Round(rel.X[j]))
		if frac > worst {
			worst = frac
			branchVar = j
		}
	}
	if branchVar < 0 {
		// Integral (on binaries): candidate incumbent. Round binaries exactly.
		x := append([]float64(nil), rel.X...)
		for j, isBin := range s.prob.Binary {
			if isBin {
				x[j] = math.Round(x[j])
			}
		}
		if rel.Obj < s.bestObj {
			s.bestObj = rel.Obj
			s.bestX = x
		}
		return
	}

	// Dive toward the nearer bound first: better incumbents earlier.
	first, second := int8(1), int8(2)
	if rel.X[branchVar] >= 0.5 {
		first, second = 2, 1
	}
	for _, dir := range [2]int8{first, second} {
		fixed[branchVar] = dir
		s.branch(fixed)
		if s.stopped {
			break
		}
	}
	fixed[branchVar] = 0
}
