package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mpl/internal/coloring"
	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/graph"
	"mpl/internal/pipeline"
	"mpl/internal/portfolio"
	"mpl/internal/sdp"
)

// The engine pass re-colors an already-built graph through the public
// division entry point with a solver composed here from the engines'
// public functions, so every engine call gets its own span. It mirrors the
// dispatcher internal/core builds for the fixed and auto engine policies;
// its colors must be byte-identical to core.DecomposeGraphContext on the
// same graph and options, and a pass whose colors differ is reported as
// invalid instead of being measured.

// Span names of the engine pass.
const (
	spanDivision  = "division.decompose_env"
	spanAnalyze   = "portfolio.analyze"
	spanSDP       = "sdp.solve"
	spanBacktrack = "coloring.backtrack"
	spanGreedy    = "coloring.sdp_greedy"
	spanLinear    = "coloring.linear"
	spanILP       = "ilp.assign"
)

// pickSpan names the per-piece span that records which class auto picked.
func pickSpan(c portfolio.Class) string {
	switch c {
	case portfolio.ILP:
		return "portfolio.pick.ilp"
	case portfolio.SDPBacktrack:
		return "portfolio.pick.sdp_backtrack"
	case portfolio.SDPGreedy:
		return "portfolio.pick.sdp_greedy"
	default:
		return "portfolio.pick.linear"
	}
}

// enginePass colors dg with opts (fixed or auto engine, memoization off)
// and records spans under op. It returns the colors.
func enginePass(ctx context.Context, tr *tracer, op int, dg *core.Graph, opts core.Options) ([]int, error) {
	if opts.Engine != core.EngineFixed && opts.Engine != core.EngineAuto {
		return nil, fmt.Errorf("engine pass supports the fixed and auto policies, not %q", opts.Engine)
	}
	if opts.Memoize {
		return nil, fmt.Errorf("engine pass runs with memoization off")
	}
	o := opts.Normalize()
	env := pipeline.Env{Scratch: pipeline.NewScratchPool(), Budget: pipeline.NewBudget(o.Division.Workers)}
	// core's shared ILP budget is a wall-clock deadline per call; the
	// workload requires proven results, so an expiry shows up as a
	// failed operation, not as different bytes here.
	ilpDeadline := time.Now().Add(o.ILPTimeLimit)
	parent := tr.begin(spanDivision, op, -1)

	var engines [portfolio.NumClasses]portfolio.Solver
	engines[portfolio.Linear] = func(_ context.Context, g *graph.Graph, _ *pipeline.Scratch) []int {
		id := tr.begin(spanLinear, op, parent)
		colors := coloring.Linear(g, o.Linear)
		tr.end(id, map[string]float64{"n": float64(g.N())})
		return colors
	}
	solveSDP := func(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) *sdp.Solution {
		id := tr.begin(spanSDP, op, parent)
		sol := sdp.SolveScratchEnv(ctx, g, sdp.Options{
			K: o.K, Alpha: o.Alpha, Restarts: o.SDPRestarts, MaxIter: o.SDPMaxIter, Seed: o.Seed,
		}, sc, env)
		tr.end(id, map[string]float64{"n": float64(g.N())})
		return sol
	}
	engines[portfolio.SDPGreedy] = func(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) []int {
		sol := solveSDP(ctx, g, sc)
		id := tr.begin(spanGreedy, op, parent)
		colors := coloring.SDPGreedy(g, sol, o.K, o.Alpha)
		tr.end(id, nil)
		return colors
	}
	engines[portfolio.SDPBacktrack] = func(ctx context.Context, g *graph.Graph, sc *pipeline.Scratch) []int {
		sol := solveSDP(ctx, g, sc)
		id := tr.begin(spanBacktrack, op, parent)
		colors, complete := coloring.SDPBacktrackContext(ctx, g, sol, o.K, o.Alpha, o.Threshold, o.BacktrackNodeLimit)
		tr.end(id, map[string]float64{"complete": b2f(complete)})
		return colors
	}
	var budgetSpent atomic.Bool
	engines[portfolio.ILP] = func(ctx context.Context, g *graph.Graph, _ *pipeline.Scratch) []int {
		remaining := time.Until(ilpDeadline)
		if remaining <= 0 {
			budgetSpent.Store(true)
			return coloring.Linear(g, o.Linear)
		}
		id := tr.begin(spanILP, op, parent)
		res := coloring.ILPAssignContext(ctx, g, o.K, o.Alpha, remaining)
		tr.end(id, map[string]float64{"proven": b2f(res.Proven), "n": float64(g.N())})
		return res.Colors
	}

	var solve division.Solver
	if o.Engine == core.EngineAuto {
		solve = func(g *graph.Graph, sc *pipeline.Scratch) []int {
			id := tr.begin(spanAnalyze, op, parent)
			class := o.Portfolio.Select(portfolio.Analyze(g), o.K)
			tr.end(id, nil)
			pid := tr.begin(pickSpan(class), op, parent)
			tr.end(pid, nil)
			return engines[class](ctx, g, sc)
		}
	} else {
		class, err := classOf(o.Algorithm)
		if err != nil {
			return nil, err
		}
		solve = func(g *graph.Graph, sc *pipeline.Scratch) []int {
			return engines[class](ctx, g, sc)
		}
	}
	colors, _ := division.DecomposeEnv(ctx, dg.G, o.Division, env, solve)
	tr.end(parent, nil)
	if budgetSpent.Load() {
		return nil, fmt.Errorf("engine pass ran out of ILP budget")
	}
	return colors, nil
}

func classOf(a core.Algorithm) (portfolio.Class, error) {
	switch a {
	case core.AlgILP:
		return portfolio.ILP, nil
	case core.AlgSDPBacktrack:
		return portfolio.SDPBacktrack, nil
	case core.AlgSDPGreedy:
		return portfolio.SDPGreedy, nil
	case core.AlgLinear:
		return portfolio.Linear, nil
	}
	return 0, fmt.Errorf("unknown algorithm %v", a)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
