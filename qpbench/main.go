// Command qpbench is the repository benchmark: two workloads run against
// the real library and a real `qpld serve` process, every output checked,
// end-to-end metrics (CPU time at a reference host speed; see cpu.go and
// probe.go) from untraced runs and per-layer metrics from a separate
// traced run. Run it through run.sh, which builds it and qpld from the
// checkout first:
//
//	bash qpbench/run.sh --workload fullchip --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check, and any run
// whose load generator could not hold its own bounds, exits non-zero.
// qpbench/README.md lists the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpl/internal/core"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	setups   int
	capacity bool
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics every untraced run reports. Their
// timings, set-up included, are CPU time the program spent (processCPU)
// scaled to the reference host speed by the host probe (probe.go).
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"decompose_cpu_p50_ms", "ms"},
	{"decompose_cpu_p90_ms", "ms"},
	{"pass_cpu_ms", "ms"},
	{"kfeat_per_cpu_s", "kfeat/cpu-s"},
	{"conflicts", "count"},
	{"stitches", "count"},
	{"peak_rss_mb", "MB"},
}

// layerDefs are the per-layer metrics every traced run reports. A layer
// the workload never calls reports 0.
var layerDefs = []metricDef{
	{"host.probe_ms", "ms"}, {"wall.setup_s", "s"}, {"wall.decompose_p50_ms", "ms"}, {"wall.decompose_p90_ms", "ms"}, {"wall.pass_p50_ms", "ms"}, {"wall.kfeat_per_s", "kfeat/s"},
	{"core.build_ms", "ms"}, {"core.split_ms", "ms"}, {"core.edges_ms", "ms"}, {"core.merge_ms", "ms"},
	{"core.fragments", "count"}, {"core.conflict_edges", "count"}, {"core.assign_ms", "ms"},
	{"division.simplify_busy_ms", "ms"}, {"division.partition_busy_ms", "ms"},
	{"division.dispatch_busy_ms", "ms"}, {"division.stitch_busy_ms", "ms"},
	{"division.dispatch_max_busy_ms", "ms"}, {"division.dispatch_min_busy_ms", "ms"},
	{"division.pieces", "count"}, {"division.fallbacks", "count"}, {"division.self_ms", "ms"},
	{"portfolio.analyze_ms", "ms"}, {"portfolio.picks_ilp", "count"}, {"portfolio.picks_sdp_backtrack", "count"},
	{"portfolio.picks_sdp_greedy", "count"}, {"portfolio.picks_linear", "count"},
	{"sdp.solve_busy_ms", "ms"}, {"sdp.calls", "count"}, {"sdp.max_piece_n", "count"},
	{"coloring.backtrack_busy_ms", "ms"}, {"coloring.backtrack_complete_ratio", "ratio"},
	{"ilp.assign_busy_ms", "ms"}, {"ilp.proven_ratio", "ratio"},
	{"canon.shape_hit_ratio", "ratio"}, {"core.edit_resolved_ratio", "ratio"}, {"core.edit_rebuilt_fragments", "count"},
	{"service.hit_ratio", "ratio"}, {"service.hash_ms", "ms"}, {"service.decompose_miss_ms", "ms"},
	{"service.decompose_hit_ms", "ms"}, {"service.incremental_ms", "ms"},
	{"store.open_ms", "ms"}, {"store.append_edits_ms", "ms"}, {"store.append_snapshot_ms", "ms"},
	{"store.wal_bytes_per_edit", "B"}, {"store.snapshots_per_edit", "ratio"},
	{"http.overhead_decompose_ms", "ms"}, {"http.overhead_hit_ms", "ms"}, {"http.overhead_edit_ms", "ms"},
	{"http.request_kb", "kB"}, {"http.hit_p50_ms", "ms"}, {"http.hit_p90_ms", "ms"},
	{"http.edit_p50_ms", "ms"}, {"http.edit_p90_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"}, {"go.gc_cycles_per_op", "count"},
	{"loadgen.late_p90_ms", "ms"}, {"loadgen.inflight_max", "count"},
	{"trace.overhead_ms", "ms"}, {"trace.invalid_ops", "count"},
}

// workloads are the benchmark's workloads, each with the reason it exists.
var workloads = map[string]string{
	// Build (split/edges/merge) plus Partition are most of each call and
	// the heap is large: exposes build and partition changes and the
	// paper's full-chip scaling. No service, store or HTTP.
	"fullchip": "closed loop, one caller: auto-engine K=4 decompose of four seeded S38417 variants at about 128k features",
	// The only workload through HTTP/JSON, layout hashing, the result,
	// graph, session and shape caches, incremental edits and WAL fsync;
	// it mixes cache hits with log appends. Its fresh decomposes run the
	// paper's SDP+Backtrack on small circuits, where fullchip runs the
	// auto engine on large ones.
	"serve": "open loop at a fixed rate against qpld serve: fresh decomposes, repeats and ECO edit batches",
}

// serveOnly reports whether a per-layer metric measures a layer only the
// serve workload calls.
func serveOnly(name string) bool {
	for _, p := range []string{"service.", "store.", "http.", "loadgen.", "canon.", "core.edit_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// childOut is what a library child process reports to its parent.
type childOut struct {
	MainStartNs int64              `json:"main_start_ns"`
	WarmupNs    int64              `json:"warmup_ns"`
	SetupCPUNs  int64              `json:"setup_cpu_ns"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures"`
	E2E         map[string]float64 `json:"e2e"`
	Layers      map[string]float64 `json:"layers"`
	PeakHeapMB  float64            `json:"peak_heap_mb"`
	Invalid     string             `json:"invalid"`
	Notes       []string           `json:"notes"`
}

// mainStart and mainStartCPU are read as the process starts, so set-up
// includes process start.
var mainStart, mainStartCPU = time.Now(), selfCPU()

func main() {
	var cfg config
	var traceN int
	var child, setupOnly bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: fullchip or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the inputs are derived from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&traceN, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout (holds .bench_build)")
	flag.BoolVar(&cfg.capacity, "capacity", false, "serve only: send every request at once and report the closed-loop capacity")
	flag.BoolVar(&child, "child", false, "internal: run the fullchip workload in this process")
	flag.BoolVar(&setupOnly, "setup-only", false, "internal: stop a child after its set-up")
	flag.Parse()
	cfg.trace = traceN == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "qpbench: unknown workload %q (want fullchip or serve)\n", cfg.workload)
		os.Exit(2)
	}
	// setup_s is the median of several set-ups; the traced run reports no
	// setup_s and sets up once.
	cfg.setups = 3
	if cfg.trace {
		cfg.setups = 1
	}
	if child {
		out := runLibraryChild(cfg, setupOnly)
		b, _ := json.Marshal(out)
		fmt.Println(string(b))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	os.Exit(run(ctx, cfg))
}

// run executes one workload and prints its report; it returns the exit
// code.
func run(ctx context.Context, cfg config) int {
	var (
		t       tally
		e2e     map[string]float64
		layers  map[string]float64
		invalid string
		notes   []string
		heapMB  float64
	)
	probe, err := newHostProbe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "qpbench: host probe: %v\n", err)
		return 1
	}
	defer probe.close()
	if cfg.workload == "serve" {
		out, err := runServe(ctx, cfg, probe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpbench: serve: %v\n", err)
			return 1
		}
		t, e2e, layers, invalid, notes = out.tally, out.e2e, out.layers, out.invalid, out.notes
	} else {
		var setups, wallSetups samples
		var last childOut
		for i := 0; i < cfg.setups; i++ {
			if err := probe.run(); err != nil {
				fmt.Fprintf(os.Stderr, "qpbench: host probe: %v\n", err)
				return 1
			}
			out, execAt, err := spawnChild(ctx, cfg, i < cfg.setups-1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qpbench: %s: %v\n", cfg.workload, err)
				return 1
			}
			setups = append(setups, time.Duration(out.SetupCPUNs).Seconds())
			wallSetups = append(wallSetups, time.Duration(out.MainStartNs-execAt.UnixNano()+out.WarmupNs).Seconds())
			t.merge(tally{attempted: out.Attempted, failed: out.Failed, msgs: out.Failures})
			last = out
		}
		for i := 0; i < probesAfter; i++ {
			if err := probe.run(); err != nil {
				fmt.Fprintf(os.Stderr, "qpbench: host probe: %v\n", err)
				return 1
			}
		}
		e2e, layers, invalid, notes, heapMB = last.E2E, last.Layers, last.Invalid, last.Notes, last.PeakHeapMB
		if e2e == nil {
			e2e = map[string]float64{}
		}
		e2e["setup_s"] = setups.median()
		notes = append(notes, fmt.Sprintf("set-ups: CPU %v s, wall %v s", []float64(setups), []float64(wallSetups)))
		if layers == nil {
			layers = map[string]float64{}
		}
		layers["wall.setup_s"] = wallSetups.median()
		for _, d := range layerDefs {
			if serveOnly(d.name) {
				layers[d.name] = 0 // fullchip never calls these layers
			}
		}
	}

	// Timings at the reference host speed; the measured CPU times stay in
	// the report above the result line.
	k := probe.scale()
	notes = append(notes, fmt.Sprintf("host probe: p50 %.3f ms of CPU (reference %.0f ms), so timings scale by %.4f; probes %v ms",
		probe.ms.median(), probeRefMs, k, []float64(probe.ms)))
	for _, name := range []string{"setup_s", "decompose_cpu_p50_ms", "decompose_cpu_p90_ms", "pass_cpu_ms"} {
		if v, ok := e2e[name]; ok {
			notes = append(notes, fmt.Sprintf("measured %s %.4f", name, v))
			e2e[name] = v * k
		}
	}
	if v, ok := e2e["kfeat_per_cpu_s"]; ok {
		notes = append(notes, fmt.Sprintf("measured kfeat_per_cpu_s %.4f", v))
		e2e["kfeat_per_cpu_s"] = v / k
	}
	if layers != nil {
		layers["host.probe_ms"] = probe.ms.median()
	}

	stamp := runStamp(cfg, heapMB)
	sb, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", sb)
	fmt.Printf("workload %s: %s\n", cfg.workload, workloads[cfg.workload])
	for _, n := range notes {
		fmt.Println(n)
	}
	defs, vals := e2eDefs, e2e
	if cfg.trace {
		defs, vals = layerDefs, layers
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			invalid = fmt.Sprintf("metric %s was not measured", d.name)
			continue
		}
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	failRatio := ratio(float64(t.failed), float64(t.attempted))
	fmt.Printf("fail_ratio %.6f (%d of %d operations)\n", failRatio, t.failed, t.attempted)
	for _, m := range t.msgs {
		fmt.Fprintf(os.Stderr, "qpbench: FAILED %s\n", m)
	}
	if invalid != "" {
		fmt.Fprintf(os.Stderr, "qpbench: INVALID RUN, not scored: %s\n", invalid)
	}
	correct := t.failed == 0 && t.attempted > 0 && invalid == ""
	if t.attempted == 0 {
		t.attempted = 1 // the result line requires attempted ≥ 1; nothing ran, so the run is not correct
		t.failed = 1
	}
	res, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(res))
	if !correct {
		return 1
	}
	return 0
}

// spawnChild runs one library child process and returns its report and
// the wall time just before it was started.
func spawnChild(ctx context.Context, cfg config, setupOnly bool) (childOut, time.Time, error) {
	self, err := os.Executable()
	if err != nil {
		return childOut{}, time.Time{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	execAt := time.Now()
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", trace, "-root", cfg.root, "-setup-only="+strconv.FormatBool(setupOnly))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childOut{}, execAt, fmt.Errorf("child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var out childOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return childOut{}, execAt, fmt.Errorf("child report: %w", err)
	}
	return out, execAt, nil
}

// runLibraryChild is the fullchip workload in its own process, so that
// process start is part of set-up and its peak RSS is the program's.
func runLibraryChild(cfg config, setupOnly bool) childOut {
	out := childOut{MainStartNs: mainStart.UnixNano(), E2E: map[string]float64{}}
	ctx := context.Background()
	inputs, err := fullchipInputs(cfg.seed)
	if err != nil {
		out.Invalid = err.Error()
		return out
	}
	var t tally
	refs := make([]*ref, len(inputs))
	t0, c0 := time.Now(), selfCPU()
	for _, i := range []int{0, 1} { // warm-up: the first two variants
		res, err := core.DecomposeContext(ctx, inputs[i].Layout, libOptions(cfg.workload, inputs[i].K))
		if err == nil {
			err = checkResult(res, cfg.workload == "fullchip", &refs[i])
		}
		t.record("warm-up "+inputs[i].Name, err)
	}
	out.WarmupNs = int64(time.Since(t0))
	out.SetupCPUNs = int64(mainStartCPU + selfCPU() - c0)
	if setupOnly {
		out.Attempted, out.Failed, out.Failures = t.attempted, t.failed, t.msgs
		return out
	}
	const hardCap = 110 * time.Second
	if !cfg.trace {
		lr := runLoop(ctx, cfg.workload, inputs, refs, cfg.seconds, minSamplesFor(90), hardCap)
		t.merge(lr.tally)
		p90, ok := lr.cpu.percentile(90)
		if !ok {
			out.Invalid = fmt.Sprintf("only %d calls: too few for p90", len(lr.cpu))
		}
		cn, st := 0, 0
		for _, r := range refs {
			if r != nil {
				cn += r.cn
				st += r.st
			}
		}
		rss, err := vmHWM("/proc/self/status")
		if err != nil {
			out.Invalid = err.Error()
		}
		out.E2E = map[string]float64{
			"decompose_cpu_p50_ms": lr.cpu.median(),
			"decompose_cpu_p90_ms": p90,
			"pass_cpu_ms":          lr.passCPU.median(),
			"kfeat_per_cpu_s":      float64(passFeatures(inputs)) / lr.passCPU.median(), // features per ms = kfeat/s
			"conflicts":            float64(cn),
			"stitches":             float64(st),
			"peak_rss_mb":          rss,
		}
		out.PeakHeapMB = float64(lr.peakHeap) / (1 << 20)
		out.Notes = append(out.Notes,
			fmt.Sprintf("calls, CPU: %s", lr.cpu.describe()),
			fmt.Sprintf("calls, wall: %s", lr.lat.describe()),
			fmt.Sprintf("passes of %d calls, CPU: %s", len(inputs), lr.passCPU.describe()),
			fmt.Sprintf("passes of %d calls, wall: %s", len(inputs), lr.passes.describe()))
		out.Attempted, out.Failed, out.Failures = t.attempted, t.failed, t.msgs
		return out
	}
	// Traced run: an untraced third for the wall-clock metrics and the
	// overhead baseline, then the traced split path and engine pass.
	base := runLoop(ctx, cfg.workload, inputs, refs, cfg.seconds/3, minSamplesFor(90), hardCap)
	t.merge(base.tally)
	lr := newLayerRun()
	lr.tracedOps(ctx, cfg.workload, inputs, refs, cfg.seconds*2/3, hardCap)
	t.merge(lr.tallies)
	out.Layers = lr.metrics(base.lat.median())
	wallP90, _ := base.lat.percentile(90) // base ran minSamplesFor(90) calls
	out.Layers["wall.decompose_p50_ms"] = base.lat.median()
	out.Layers["wall.decompose_p90_ms"] = wallP90
	out.Layers["wall.pass_p50_ms"] = base.passes.median()
	out.Layers["wall.kfeat_per_s"] = float64(passFeatures(inputs)) / base.passes.median()
	out.PeakHeapMB = float64(base.peakHeap) / (1 << 20)
	out.Notes = append(out.Notes,
		fmt.Sprintf("untraced calls: %s", base.lat.describe()),
		fmt.Sprintf("traced build+assign: %s; %d traced ops, %d with invalid spans", lr.split.describe(), lr.ops, len(lr.invalid)))
	out.Attempted, out.Failed, out.Failures = t.attempted, t.failed, t.msgs
	return out
}

// passFeatures is the number of features one pass over inputs decomposes.
func passFeatures(inputs []libInput) int {
	n := 0
	for _, in := range inputs {
		n += len(in.Layout.Features)
	}
	return n
}

// vmHWM reads a process's peak resident set size in MB from its
// /proc status file.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// runStamp records the configuration a result was measured under.
func runStamp(cfg config, heapMB float64) map[string]any {
	s := map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"build_workers":    buildWorkers,
		"division_workers": divisionWorkers,
		"server_workers":   serverWorkers,
		"commit":           gitCommit(cfg.root),
		"source_sha256":    sourceDigest(cfg.root),
		"llc":              llcSize(),
	}
	if cfg.workload == "fullchip" {
		s["peak_heap_mb"] = heapMB
	}
	if cfg.workload == "serve" {
		s["offered_rate_per_s"] = serveRate
		s["connections"] = maxConns
	}
	return s
}

// gitCommit reads HEAD without running git; a checkout without history
// reports "none" and the source digest identifies the code instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return h
}

// sourceDigest hashes every Go source and module file of the checkout, in
// path order, so runs of the same code share a stamp even without git.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// llcSize is the size of the highest-level CPU cache as the kernel
// reports it.
func llcSize() string {
	best, size := -1, "unknown"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		if lv, err := strconv.Atoi(strings.TrimSpace(string(lb))); err == nil && lv > best {
			best, size = lv, fmt.Sprintf("L%d %s", lv, strings.TrimSpace(string(sb)))
		}
	}
	return size
}
