package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/pipeline"
)

// Worker counts of every run: the box the benchmark was calibrated on has
// two CPUs, and one process generates all load.
const (
	buildWorkers    = 2
	divisionWorkers = 2
	serverWorkers   = 2
)

// libOptions are the decomposition options of one library call: the auto
// engine on fullchip, and on serve's in-process engine pass the server's
// default, SDP+Backtrack.
func libOptions(workload string, k int) core.Options {
	o := core.Options{
		K:        k,
		Build:    core.BuildOptions{Workers: buildWorkers},
		Division: division.Options{Workers: divisionWorkers},
	}
	if workload == "fullchip" {
		o.Engine = core.EngineAuto
	} else {
		o.Algorithm = core.AlgSDPBacktrack
	}
	return o
}

// ref is the checked result of one input, against which every later
// decompose of the same input is compared.
type ref struct {
	colors uint64
	cn, st int
}

func colorsHash(colors []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkResult is the correctness gate of one library result. The first
// result of an input is recounted from geometry with core.VerifySolution
// and becomes the input's reference; every later result must carry the
// same colors and counts.
func checkResult(res *core.Result, requireProven bool, r **ref) error {
	if res.Degraded != 0 {
		return fmt.Errorf("degraded %d pieces", res.Degraded)
	}
	if requireProven && !res.Proven {
		return fmt.Errorf("not proven (the ILP budget ran out)")
	}
	h := colorsHash(res.Colors)
	if *r == nil {
		cn, st, err := core.VerifySolution(res)
		if err != nil {
			return fmt.Errorf("verify: %v", err)
		}
		if cn != res.Conflicts || st != res.Stitches {
			return fmt.Errorf("geometric recount %d/%d != reported %d/%d", cn, st, res.Conflicts, res.Stitches)
		}
		*r = &ref{colors: h, cn: res.Conflicts, st: res.Stitches}
		return nil
	}
	if h != (*r).colors || res.Conflicts != (*r).cn || res.Stitches != (*r).st {
		return fmt.Errorf("result differs from the input's first result (%d/%d vs %d/%d)", res.Conflicts, res.Stitches, (*r).cn, (*r).st)
	}
	return nil
}

// tally counts attempted and failed operations and keeps the first few
// failure messages.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) record(name string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.msgs) < 8 {
			t.msgs = append(t.msgs, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.msgs {
		if len(t.msgs) < 8 {
			t.msgs = append(t.msgs, m)
		}
	}
}

// loopResult is what a closed-loop window measured.
type loopResult struct {
	lat      samples // per call, wall ms
	passes   samples // per complete pass, summed call wall time, ms
	cpu      samples // per call, process CPU ms
	passCPU  samples // per complete pass, summed call CPU time, ms
	peakHeap uint64
	tally
}

// runLoop is the closed loop with one caller: it decomposes the inputs in
// order, pass after pass, until at least seconds have elapsed, at least
// minOps calls were timed and the current pass is complete (or the hard
// cap is reached).
func runLoop(ctx context.Context, workload string, inputs []libInput, refs []*ref, seconds float64, minOps int, hardCap time.Duration) loopResult {
	var lr loopResult
	start := time.Now()
	for {
		var pass, passCPU float64
		for i, in := range inputs {
			opts := libOptions(workload, in.K)
			runtime.GC() // the call pays for its own garbage only
			c0, t0 := selfCPU(), time.Now()
			res, err := core.DecomposeContext(ctx, in.Layout, opts)
			d, c := time.Since(t0), selfCPU()-c0
			if err == nil {
				err = checkResult(res, workload == "fullchip", &refs[i])
			}
			lr.record(in.Name, err)
			lr.lat = append(lr.lat, ms(d))
			lr.cpu = append(lr.cpu, ms(c))
			pass += ms(d)
			passCPU += ms(c)
			if h := heapObjectBytes(); h > lr.peakHeap {
				lr.peakHeap = h
			}
		}
		lr.passes = append(lr.passes, pass)
		lr.passCPU = append(lr.passCPU, passCPU)
		el := time.Since(start)
		if el >= hardCap || (el.Seconds() >= seconds && len(lr.lat) >= minOps) {
			return lr
		}
	}
}

// goCounters reads the runtime's cumulative allocation and GC counters.
func goCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layerRun accumulates the per-layer measurements of a traced run.
type layerRun struct {
	tr      *tracer
	ops     int
	invalid map[int]bool
	tallies tally

	split        samples // traced build + assign per op
	build        samples
	buildSplit   samples
	buildEdges   samples
	buildMerge   samples
	assign       samples
	fragments    []float64
	conflictEdge []float64
	stageBusy    map[string]samples
	maxBusy      samples
	minBusy      samples
	pieces       []float64
	fallbacks    []float64
	allocMB      []float64
	gcCycles     []float64
}

func newLayerRun() *layerRun {
	return &layerRun{tr: newTracer(), invalid: map[int]bool{}, stageBusy: map[string]samples{}}
}

// tracedOps runs the traced split path over the inputs, pass after pass,
// for at least seconds and at least one pass: each call is split into
// core.BuildGraphContext plus core.DecomposeGraphContext, whose counts must
// equal the untraced reference, followed by the engine pass on the same
// graph, whose colors must be byte-identical to the split path's.
func (lr *layerRun) tracedOps(ctx context.Context, workload string, inputs []libInput, refs []*ref, seconds float64, hardCap time.Duration) {
	start := time.Now()
	for {
		for i, in := range inputs {
			lr.tallies.record(in.Name, lr.tracedOp(ctx, workload, in, refs[i]))
		}
		if el := time.Since(start); el >= hardCap || el.Seconds() >= seconds {
			return
		}
	}
}

func (lr *layerRun) tracedOp(ctx context.Context, workload string, in libInput, r *ref) error {
	op := lr.ops
	lr.ops++
	opts := libOptions(workload, in.K)
	runtime.GC() // as in runLoop: the op pays for its own garbage only
	a0, g0 := goCounters()
	bid := lr.tr.begin("core.build", op, -1)
	dg, err := core.BuildGraphContext(ctx, in.Layout, opts.Normalize().Build)
	lr.tr.end(bid, nil)
	if err != nil {
		lr.invalid[op] = true
		return err
	}
	aid := lr.tr.begin("core.assign", op, -1)
	res, err := core.DecomposeGraphContext(ctx, dg, opts)
	lr.tr.end(aid, nil)
	a1, g1 := goCounters()
	if err != nil {
		lr.invalid[op] = true
		return err
	}
	if r == nil || res.Conflicts != r.cn || res.Stitches != r.st || colorsHash(res.Colors) != r.colors {
		lr.invalid[op] = true
		return fmt.Errorf("split build+assign path disagrees with the untraced decompose")
	}
	bd, ad := lr.tr.get(bid).dur(), lr.tr.get(aid).dur()
	lr.split = append(lr.split, ms(bd+ad))
	lr.build = append(lr.build, ms(bd))
	lr.assign = append(lr.assign, ms(ad))
	t := dg.Stats.Timing
	lr.buildSplit = append(lr.buildSplit, ms(t.Split))
	lr.buildEdges = append(lr.buildEdges, ms(t.Edges))
	lr.buildMerge = append(lr.buildMerge, ms(t.Merge))
	lr.fragments = append(lr.fragments, float64(dg.Stats.Fragments))
	lr.conflictEdge = append(lr.conflictEdge, float64(dg.Stats.ConflictEdges))
	ds := res.DivisionStats
	for _, name := range []string{pipeline.StageSimplify, pipeline.StagePartition, pipeline.StageDispatch, pipeline.StageStitch} {
		lr.stageBusy[name] = append(lr.stageBusy[name], ms(ds.Stages[name].Wall))
	}
	lr.maxBusy = append(lr.maxBusy, ms(ds.Balance.MaxBusy))
	lr.minBusy = append(lr.minBusy, ms(ds.Balance.MinBusy))
	lr.pieces = append(lr.pieces, float64(ds.SolverCalls))
	lr.fallbacks = append(lr.fallbacks, float64(ds.Fallbacks))
	lr.allocMB = append(lr.allocMB, float64(a1-a0)/(1<<20))
	lr.gcCycles = append(lr.gcCycles, float64(g1-g0))

	colors, err := enginePass(ctx, lr.tr, op, dg, opts)
	if err != nil {
		lr.invalid[op] = true
		return err
	}
	if !equalInts(colors, res.Colors) {
		// Not a program failure: the benchmark's own composed dispatcher
		// disagrees with the library's, so its spans measure something
		// else. They are dropped and counted.
		lr.invalid[op] = true
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// metrics reduces the traced run to its per-layer metrics. untracedMedian
// is the median untraced call latency of the same inputs, for the tracing
// overhead.
func (lr *layerRun) metrics(untracedMedian float64) map[string]float64 {
	m := map[string]float64{
		"core.build_ms":                 lr.build.median(),
		"core.split_ms":                 lr.buildSplit.median(),
		"core.edges_ms":                 lr.buildEdges.median(),
		"core.merge_ms":                 lr.buildMerge.median(),
		"core.fragments":                mean(lr.fragments),
		"core.conflict_edges":           mean(lr.conflictEdge),
		"core.assign_ms":                lr.assign.median(),
		"division.simplify_busy_ms":     lr.stageBusy[pipeline.StageSimplify].median(),
		"division.partition_busy_ms":    lr.stageBusy[pipeline.StagePartition].median(),
		"division.dispatch_busy_ms":     lr.stageBusy[pipeline.StageDispatch].median(),
		"division.stitch_busy_ms":       lr.stageBusy[pipeline.StageStitch].median(),
		"division.dispatch_max_busy_ms": lr.maxBusy.median(),
		"division.dispatch_min_busy_ms": lr.minBusy.median(),
		"division.pieces":               mean(lr.pieces),
		"division.fallbacks":            sum(lr.fallbacks),
		"go.alloc_mb_per_op":            mean(lr.allocMB),
		"go.gc_cycles_per_op":           mean(lr.gcCycles),
		"trace.overhead_ms":             lr.split.median() - untracedMedian,
		"trace.invalid_ops":             float64(len(lr.invalid)),
	}
	spans := lr.tr.snapshot()
	children := map[int][]span{}
	perOp := func() map[int]float64 { return map[int]float64{} }
	sdpBusy, btBusy, ilpBusy := perOp(), perOp(), perOp()
	var analyze samples
	var selfMs samples
	picks := map[string]float64{}
	var sdpCalls, sdpMaxN, btCalls, btComplete, ilpCalls, ilpProven float64
	validOps := map[int]bool{}
	for _, s := range spans {
		if lr.invalid[s.Op] || s.Name == "core.build" || s.Name == "core.assign" {
			continue
		}
		validOps[s.Op] = true
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		switch s.Name {
		case spanAnalyze:
			analyze = append(analyze, ms(s.dur()))
		case spanSDP:
			sdpBusy[s.Op] += ms(s.dur())
			sdpCalls++
			if n := s.Attrs["n"]; n > sdpMaxN {
				sdpMaxN = n
			}
		case spanBacktrack:
			btBusy[s.Op] += ms(s.dur())
			btCalls++
			btComplete += s.Attrs["complete"]
		case spanILP:
			ilpBusy[s.Op] += ms(s.dur())
			ilpCalls++
			ilpProven += s.Attrs["proven"]
		default:
			if strings.HasPrefix(s.Name, "portfolio.pick.") {
				picks[s.Name]++
			}
		}
	}
	for i, s := range spans {
		if s.Name == spanDivision && !lr.invalid[s.Op] {
			selfMs = append(selfMs, ms(selfTime(s, children[i])))
		}
	}
	nOps := float64(len(validOps))
	perOpMedian := func(busy map[int]float64) float64 {
		var xs samples
		for op := range validOps {
			xs = append(xs, busy[op])
		}
		return xs.median()
	}
	m["division.self_ms"] = selfMs.median()
	m["portfolio.analyze_ms"] = analyze.median()
	m["portfolio.picks_ilp"] = ratio(picks["portfolio.pick.ilp"], nOps)
	m["portfolio.picks_sdp_backtrack"] = ratio(picks["portfolio.pick.sdp_backtrack"], nOps)
	m["portfolio.picks_sdp_greedy"] = ratio(picks["portfolio.pick.sdp_greedy"], nOps)
	m["portfolio.picks_linear"] = ratio(picks["portfolio.pick.linear"], nOps)
	m["sdp.solve_busy_ms"] = perOpMedian(sdpBusy)
	m["sdp.calls"] = ratio(sdpCalls, nOps)
	m["sdp.max_piece_n"] = sdpMaxN
	m["coloring.backtrack_busy_ms"] = perOpMedian(btBusy)
	m["coloring.backtrack_complete_ratio"] = ratio(btComplete, btCalls)
	m["ilp.assign_busy_ms"] = perOpMedian(ilpBusy)
	m["ilp.proven_ratio"] = ratio(ilpProven, ilpCalls)
	return m
}
