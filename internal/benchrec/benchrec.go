// Package benchrec records the repository's benchmark trajectory: one JSON
// file per recorded run, named BENCH_<timestamp>.json, holding per-circuit
// graph-construction, division, and color-assignment wall times next to the
// conflict and stitch counts of the paper's Tables 1–2. Every PR that
// touches a hot path appends a new file (via `cmd/evaluate -json` or the
// bench smoke path in bench_test.go) so regressions and speedups are
// visible as a series, not anecdotes; EXPERIMENTS.md interprets the series.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mpl/internal/core"
	"mpl/internal/pipeline"
	"mpl/internal/store"
)

// Run is one recorded benchmark run: the environment it ran in plus one
// entry per circuit. Wall-clock fields are milliseconds (floats, so
// sub-millisecond stages stay visible).
type Run struct {
	// Timestamp is the RFC 3339 UTC time the run started.
	Timestamp string `json:"timestamp"`
	// Label distinguishes runs recorded for different reasons
	// ("trajectory-baseline", "ci-smoke", ...).
	Label string `json:"label,omitempty"`
	// GoVersion, NumCPU and Maxprocs pin the hardware/runtime context —
	// wall times from a 1-CPU container and a 32-core builder are not
	// comparable, and the trajectory must say which one produced them.
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	Maxprocs  int    `json:"gomaxprocs"`

	// Sweep parameters.
	K            int     `json:"k"`
	Scale        float64 `json:"scale"`
	Seed         int64   `json:"seed"`
	BuildWorkers int     `json:"build_workers"`
	DivWorkers   int     `json:"division_workers"`
	ILPBudgetMs  float64 `json:"ilp_budget_ms,omitempty"`
	// Memoize records whether shape memoization was on for the
	// sweep (shape counters then appear per algorithm run).
	Memoize bool `json:"memoize,omitempty"`

	Circuits []Circuit `json:"circuits"`

	// Store carries the durable session store's counters after the run
	// (`cmd/evaluate -data-dir`: every replayed edit batch is write-ahead
	// logged, so the trajectory records the WAL cost of durability next to
	// the replay latencies it taxed). Absent for volatile runs.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the trajectory form of internal/store's counters.
type StoreStats struct {
	LiveSessions int    `json:"live_sessions"`
	WALBytes     int64  `json:"wal_bytes"`
	WALRecords   int    `json:"wal_records"`
	Snapshots    uint64 `json:"snapshots"`
	Edits        uint64 `json:"edits"`
	Compactions  uint64 `json:"compactions"`
	TornTail     uint64 `json:"torn_tail,omitempty"`
	Orphans      uint64 `json:"orphans,omitempty"`
}

// StoreStatsOf converts a store's counters to the trajectory schema — the
// single conversion point, like CircuitOf, so writers cannot drift.
func StoreStatsOf(s store.Stats) *StoreStats {
	return &StoreStats{
		LiveSessions: s.LiveSessions,
		WALBytes:     s.WALBytes,
		WALRecords:   s.WALRecords,
		Snapshots:    s.Snapshots,
		Edits:        s.Edits,
		Compactions:  s.Compactions,
		TornTail:     s.TornTail,
		Orphans:      s.Orphans,
	}
}

// Circuit is one benchmark circuit's build stats and per-engine results.
type Circuit struct {
	Name          string  `json:"name"`
	Features      int     `json:"features"`
	Fragments     int     `json:"fragments"`
	ConflictEdges int     `json:"conflict_edges"`
	StitchEdges   int     `json:"stitch_edges"`
	BuildMs       float64 `json:"build_ms"`
	SplitMs       float64 `json:"split_ms"`
	EdgeMs        float64 `json:"edge_ms"`
	MergeMs       float64 `json:"merge_ms"`

	Algorithms []AlgorithmRun `json:"algorithms"`

	// EditReplay records the ECO replay of `cmd/evaluate -edits`: per edit
	// batch, the incremental (ApplyEdits) latency next to a full
	// from-scratch re-decomposition of the same post-edit layout.
	EditReplay *EditReplay `json:"edit_replay,omitempty"`
}

// EditBatch is one replayed edit batch. IncrementalMs covers the dirty
// region rebuild plus the dirty-component re-solve; FullMs covers a
// complete build + division + solve of the identical post-edit layout —
// the cost an ECO would pay without the incremental path.
type EditBatch struct {
	Ops                int     `json:"ops"`
	IncrementalMs      float64 `json:"incremental_ms"`
	FullMs             float64 `json:"full_ms"`
	RebuiltFragments   int     `json:"rebuilt_fragments"`
	ResolvedComponents int     `json:"resolved_components"`
	CopiedComponents   int     `json:"copied_components"`
	// DurableMs is the time spent write-ahead logging this batch to the
	// durable session store (`cmd/evaluate -data-dir`; absent when the
	// replay was volatile). Comparing it with IncrementalMs answers "what
	// does durability cost per ECO batch".
	DurableMs float64 `json:"durable_ms,omitempty"`
}

// EditReplay is one circuit's replay series. The replay engine must be
// deterministic (not ILP), because every batch is equivalence-checked
// against the from-scratch run it is timed against.
type EditReplay struct {
	Algorithm         string      `json:"algorithm"`
	Batches           []EditBatch `json:"batches"`
	MeanIncrementalMs float64     `json:"mean_incremental_ms"`
	MeanFullMs        float64     `json:"mean_full_ms"`
	// Speedup is MeanFullMs / MeanIncrementalMs.
	Speedup float64 `json:"speedup"`
}

// Summarize fills the aggregate fields from Batches.
func (er *EditReplay) Summarize() {
	if len(er.Batches) == 0 {
		return
	}
	var inc, full float64
	for _, b := range er.Batches {
		inc += b.IncrementalMs
		full += b.FullMs
	}
	er.MeanIncrementalMs = inc / float64(len(er.Batches))
	er.MeanFullMs = full / float64(len(er.Batches))
	if inc > 0 {
		er.Speedup = full / inc
	}
}

// AlgorithmRun is one engine's result on one circuit: the cn#/st# columns
// of the paper plus the division+assignment and solver-only wall times.
type AlgorithmRun struct {
	Algorithm string `json:"algorithm"`
	Conflicts int    `json:"conflicts"`
	Stitches  int    `json:"stitches"`
	Proven    bool   `json:"proven"`
	// AssignMs is division plus color assignment (Result.AssignTime);
	// SolverMs is time inside the engine only (Result.SolverTime, the
	// paper's CPU(s) column).
	AssignMs float64 `json:"assign_ms"`
	SolverMs float64 `json:"solver_ms"`
	// StageMs breaks the run down by pipeline stage (simplify/partition/
	// dispatch/stitch/merge wall milliseconds; the build stage is recorded
	// per circuit, not per engine — see Circuit.BuildMs). Stage wall sums
	// across division workers, so with DivWorkers > 1 it is CPU-style
	// time, like SolverMs.
	StageMs map[string]float64 `json:"stage_ms,omitempty"`
	// Shape-cache counters of the run (Options.Memoize;
	// all omitted for memo-off runs, which report no shape traffic).
	ShapeHits     int `json:"shape_hits,omitempty"`
	ShapeMisses   int `json:"shape_misses,omitempty"`
	ShapeDistinct int `json:"shape_distinct,omitempty"`
	// Dispatch-imbalance gauge: how many division workers processed at
	// least one component, and the busiest/idlest worker's busy wall time.
	// MaxBusy/MinBusy close together means the LPT schedule kept the pool
	// saturated; far apart means a straggler. Omitted for serial runs with
	// no components and for cache-served results.
	DispatchWorkers   int     `json:"dispatch_workers,omitempty"`
	DispatchMaxBusyMs float64 `json:"dispatch_max_busy_ms,omitempty"`
	DispatchMinBusyMs float64 `json:"dispatch_min_busy_ms,omitempty"`
}

// Ms converts a duration to the trajectory's unit (milliseconds, with
// microsecond resolution so sub-millisecond stages stay visible).
func Ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// CircuitOf seeds a Circuit from one build's stats — the single conversion
// point for every trajectory writer (cmd/evaluate -json, the bench smoke
// path), so the schema cannot drift between them.
func CircuitOf(name string, st core.BuildStats) Circuit {
	return Circuit{
		Name:          name,
		Features:      st.Features,
		Fragments:     st.Fragments,
		ConflictEdges: st.ConflictEdges,
		StitchEdges:   st.StitchEdges,
		BuildMs:       Ms(st.Timing.Total),
		SplitMs:       Ms(st.Timing.Split),
		EdgeMs:        Ms(st.Timing.Edges),
		MergeMs:       Ms(st.Timing.Merge),
	}
}

// AlgorithmRunOf records one engine's result under the given column name.
func AlgorithmRunOf(algorithm string, res *core.Result) AlgorithmRun {
	return AlgorithmRun{
		Algorithm:         algorithm,
		Conflicts:         res.Conflicts,
		Stitches:          res.Stitches,
		Proven:            res.Proven,
		AssignMs:          Ms(res.AssignTime),
		SolverMs:          Ms(res.SolverTime),
		StageMs:           StageMsOf(res.DivisionStats.Stages),
		ShapeHits:         res.DivisionStats.Shapes.Hits,
		ShapeMisses:       res.DivisionStats.Shapes.Misses,
		ShapeDistinct:     res.DivisionStats.Shapes.Distinct,
		DispatchWorkers:   res.DivisionStats.Balance.Workers,
		DispatchMaxBusyMs: Ms(res.DivisionStats.Balance.MaxBusy),
		DispatchMinBusyMs: Ms(res.DivisionStats.Balance.MinBusy),
	}
}

// StageMsOf flattens per-stage telemetry to the trajectory's stage → wall
// milliseconds map (nil for an empty map, so cache-served results omit the
// field entirely).
func StageMsOf(stages map[string]pipeline.StageStats) map[string]float64 {
	if len(stages) == 0 {
		return nil
	}
	out := make(map[string]float64, len(stages))
	for name, st := range stages {
		out[name] = Ms(st.Wall)
	}
	return out
}

// Delta is one (circuit, algorithm) quality comparison between two runs.
type Delta struct {
	Circuit   string
	Algorithm string
	// Base/Cur are the baseline and current cn#/st# pairs.
	BaseConflicts, BaseStitches int
	CurConflicts, CurStitches   int
	// Worse reports a quality regression under the paper's ranking: more
	// conflicts, or equal conflicts and more stitches.
	Worse bool
	// Improved reports the strict opposite; a Delta with neither flag set
	// is unchanged.
	Improved bool
}

// worse ranks (c1, s1) strictly worse than (c2, s2): conflicts first, then
// stitches — the paper's objective ordering.
func worse(c1, s1, c2, s2 int) bool {
	if c1 != c2 {
		return c1 > c2
	}
	return s1 > s2
}

// Compare matches every (circuit, algorithm) pair present in both runs and
// reports the quality movement, in baseline order. Pairs present in only
// one run are skipped — a new engine column or a dropped circuit is not a
// regression. Wall times are deliberately not compared: the trajectory
// records them for trend reading, but two runs rarely share hardware, so a
// time gate would only flap. The regression-gate tests consume the Worse
// flag; EXPERIMENTS.md reads the full list.
func Compare(baseline, current *Run) []Delta {
	curByName := make(map[string]*Circuit, len(current.Circuits))
	for i := range current.Circuits {
		curByName[current.Circuits[i].Name] = &current.Circuits[i]
	}
	var out []Delta
	for _, bc := range baseline.Circuits {
		cc, ok := curByName[bc.Name]
		if !ok {
			continue
		}
		curAlg := make(map[string]AlgorithmRun, len(cc.Algorithms))
		for _, a := range cc.Algorithms {
			curAlg[a.Algorithm] = a
		}
		for _, ba := range bc.Algorithms {
			ca, ok := curAlg[ba.Algorithm]
			if !ok {
				continue
			}
			out = append(out, Delta{
				Circuit:       bc.Name,
				Algorithm:     ba.Algorithm,
				BaseConflicts: ba.Conflicts, BaseStitches: ba.Stitches,
				CurConflicts: ca.Conflicts, CurStitches: ca.Stitches,
				Worse:    worse(ca.Conflicts, ca.Stitches, ba.Conflicts, ba.Stitches),
				Improved: worse(ba.Conflicts, ba.Stitches, ca.Conflicts, ca.Stitches),
			})
		}
	}
	return out
}

// Regressions filters a Compare result down to the quality regressions.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Worse {
			out = append(out, d)
		}
	}
	return out
}

// DefaultFilename returns the canonical trajectory filename for a run
// started at t: BENCH_<UTC timestamp>.json, lexicographically sortable.
func DefaultFilename(t time.Time) string {
	return fmt.Sprintf("BENCH_%s.json", t.UTC().Format("20060102T150405Z"))
}

// WriteFile writes the run as indented JSON. The file is written whole (no
// partial trajectory entries on error).
func (r *Run) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("benchrec: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a previously recorded run (trajectory comparisons, tests).
func ReadFile(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchrec: %s: %w", path, err)
	}
	return &r, nil
}
