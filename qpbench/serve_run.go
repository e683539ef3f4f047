package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpl/internal/core"
	"mpl/internal/layout"
	"mpl/internal/service"
	"mpl/internal/store"
)

// serveOut is everything one serve run measured.
type serveOut struct {
	tally
	e2e     map[string]float64
	layers  map[string]float64
	invalid string
	notes   []string
}

// serveMinGroups is the shortest serve window in groups: 200 fresh
// decomposes, so the 90th percentile (inside the C7552 mode) rests on 40
// samples of that circuit rather than on the 10 the percentile rule
// requires.
const serveMinGroups = 200

// runServe is the serve workload: set the server up several times (each
// from exec to warm caches), keep the last one, drive the open-loop window
// against it, then check every answer.
func runServe(ctx context.Context, cfg config, probe *hostProbe) (*serveOut, error) {
	qpld := filepath.Join(cfg.root, ".bench_build", "qpld")
	runDir := filepath.Join(cfg.root, ".bench_build", "run", fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	rate := serveRate
	slots := schedule(rate, cfg.seconds, serveMinGroups)
	if cfg.capacity {
		// Every request due at once: the connection runs closed loop.
		for i := range slots {
			slots[i].Due = 0
		}
	}
	groups := slots[len(slots)-1].Group + 1

	// Input generation, excluded from set-up.
	fresh := make([]*served, groups)
	for g := range fresh {
		l := serveLayout(cfg.seed, g)
		fresh[g] = &served{layout: l, body: layoutBody(l)}
	}
	warm := make([]*layout.Layout, warmLayouts)
	for i := range warm {
		warm[i] = serveLayout(cfg.seed, i-warmLayouts)
	}

	var setups, wallSetups samples
	var srv *server
	var st *serveState
	for i := 0; i < cfg.setups; i++ {
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("host probe: %w", err)
		}
		t0 := time.Now()
		s, err := startServer(ctx, qpld, filepath.Join(runDir, fmt.Sprintf("data%d", i)))
		if err != nil {
			return nil, err
		}
		ss := &serveState{fresh: fresh}
		if err := warmUp(s, ss, cfg.seed, warm); err != nil {
			s.stop()
			return nil, err
		}
		wallSetups = append(wallSetups, time.Since(t0).Seconds())
		cpu, err := processCPU(s.cmd.Process.Pid)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("server CPU clock: %w", err)
		}
		setups = append(setups, cpu.Seconds())
		if i < cfg.setups-1 {
			s.stop()
			continue
		}
		srv, st = s, ss
	}

	w := runWindow(srv, st, cfg.seed, slots, cfg.capacity)
	rss, rssErr := srv.peakRSSMB()
	var stats map[string]any
	var statsErr error
	if cfg.trace {
		stats, statsErr = srv.stats()
	}
	srv.stop()
	for i := 0; i < probesAfter; i++ {
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("host probe: %w", err)
		}
	}
	if rssErr != nil {
		return nil, fmt.Errorf("server peak RSS: %w", rssErr)
	}
	if statsErr != nil {
		return nil, fmt.Errorf("server stats: %w", statsErr)
	}

	out := &serveOut{e2e: map[string]float64{}, layers: map[string]float64{}}
	if cfg.capacity {
		out.notes = append(out.notes, fmt.Sprintf("capacity: %d requests in %.2f s = %.1f req/s over %d connections",
			len(slots), w.end.Sub(w.start).Seconds(), float64(len(slots))/w.end.Sub(w.start).Seconds(), maxConns))
	}

	// Correctness: every fresh answer against an in-process decompose and
	// a geometric recount, every repeat against its fresh answer, every
	// session's final state against a from-scratch decompose (ECO ≡
	// scratch).
	inOpts := serveOptions()
	inOpts.Memoize = false
	freshErr := make([]error, groups)
	refs := make([]*ref, groups)
	var inprocMs samples
	for g, sv := range fresh {
		if !sv.ok {
			continue
		}
		t0 := time.Now()
		res, err := core.DecomposeContext(ctx, sv.layout, inOpts)
		inprocMs = append(inprocMs, ms(time.Since(t0)))
		if err == nil {
			err = checkResult(res, false, &refs[g])
		}
		switch {
		case err != nil:
		case res.Conflicts != sv.cn || res.Stitches != sv.st:
			err = fmt.Errorf("served %d/%d, in-process %d/%d", sv.cn, sv.st, res.Conflicts, res.Stitches)
		case service.LayoutHash(sv.layout) != sv.hash:
			err = fmt.Errorf("served layout hash differs from the sent geometry")
		}
		freshErr[g] = err
	}
	lastEdit := map[*chain]*outcome{}
	for _, o := range w.outs {
		if o.Kind == kindEdit && o.chainRef != nil && o.err == nil {
			lastEdit[o.chainRef] = o
		}
	}
	chainErr := map[*outcome]error{}
	for c, o := range lastEdit {
		res, err := core.DecomposeContext(ctx, c.layout, inOpts)
		switch {
		case err != nil:
		case res.Conflicts != c.cn || res.Stitches != c.st:
			err = fmt.Errorf("ECO session ends at %d/%d, from scratch %d/%d", c.cn, c.st, res.Conflicts, res.Stitches)
		case service.LayoutHash(c.layout) != c.hash:
			err = fmt.Errorf("ECO session hash differs from the edited geometry")
		}
		chainErr[o] = err
	}
	var lat, cpu [3]samples
	var feats, cn, stt int
	// A pass is one cycle of fresh circuits: len(serveCircuits) groups.
	passLat := make([]float64, groups/len(serveCircuits))
	passCPU := make([]float64, len(passLat))
	for _, o := range w.outs {
		err := o.err
		if err == nil && o.resp.Degraded != 0 {
			err = fmt.Errorf("degraded %d pieces", o.resp.Degraded)
		}
		if err == nil {
			switch o.Kind {
			case kindFresh:
				if o.resp.Cached {
					err = fmt.Errorf("a never-sent layout was answered from the cache")
				} else {
					err = freshErr[o.Ref]
				}
				feats += len(fresh[o.Ref].layout.Features)
				cn += o.resp.Conflicts
				stt += o.resp.Stitches
			case kindHit:
				sv := st.servedRef(o.Ref)
				switch {
				case !o.resp.Cached:
					err = fmt.Errorf("a repeat was not answered from the cache")
				case !sv.ok:
					err = fmt.Errorf("the repeated layout's own decompose failed")
				case o.resp.Conflicts != sv.cn || o.resp.Stitches != sv.st || o.resp.LayoutHash != sv.hash:
					err = fmt.Errorf("repeat answered %d/%d, its decompose %d/%d", o.resp.Conflicts, o.resp.Stitches, sv.cn, sv.st)
				}
			case kindEdit:
				if o.after != nil && service.LayoutHash(o.after) != o.resp.LayoutHash {
					err = fmt.Errorf("edit answer hash differs from the edited geometry")
				} else {
					err = chainErr[o]
				}
			}
		}
		out.record(fmt.Sprintf("%s #%d", o.Kind, o.Idx), err)
		lat[o.Kind] = append(lat[o.Kind], ms(o.latency))
		cpu[o.Kind] = append(cpu[o.Kind], ms(o.cpu))
		if p := o.Group / len(serveCircuits); p < len(passLat) {
			passLat[p] += ms(o.latency)
			passCPU[p] += ms(o.cpu)
		}
	}

	var late samples
	var kb []float64
	for _, o := range w.outs {
		late = append(late, ms(o.late))
		kb = append(kb, float64(o.bytes)/1024)
	}
	late90, _ := late.percentile(90)
	if w.dials > maxConns {
		out.invalid = fmt.Sprintf("the generator opened %d connections (bound %d)", w.dials, maxConns)
	} else if late90 > ms(lateBound) && !cfg.capacity {
		out.invalid = fmt.Sprintf("the generator fell behind: p90 dispatch lateness %.2f ms (bound %.0f ms)", late90, ms(lateBound))
	}

	if w.cpuErr != nil {
		out.invalid = fmt.Sprintf("reading the server's CPU clock: %v", w.cpuErr)
	}
	p90, ok := cpu[kindFresh].percentile(90)
	if !ok {
		out.invalid = fmt.Sprintf("only %d fresh decomposes: too few for p90", len(cpu[kindFresh]))
	}
	window := w.end.Sub(w.start).Seconds()
	out.e2e["setup_s"] = setups.median()
	out.e2e["decompose_cpu_p50_ms"] = cpu[kindFresh].median()
	out.e2e["decompose_cpu_p90_ms"] = p90
	out.e2e["pass_cpu_ms"] = samples(passCPU).median()
	out.e2e["kfeat_per_cpu_s"] = float64(feats) / ms(w.cpu) // features per ms = kfeat/s
	out.e2e["conflicts"] = float64(cn)
	out.e2e["stitches"] = float64(stt)
	out.e2e["peak_rss_mb"] = rss
	for k, name := range []string{"fresh decompose", "hit", "edit"} {
		out.notes = append(out.notes,
			fmt.Sprintf("%-15s server CPU: %s", name, cpu[k].describe()),
			fmt.Sprintf("%-15s wall from due time: %s", name, lat[k].describe()))
	}
	out.notes = append(out.notes, fmt.Sprintf("cycles of %d groups, server CPU: %s; wall from due times: %s",
		len(serveCircuits), samples(passCPU).describe(), samples(passLat).describe()))
	out.notes = append(out.notes, fmt.Sprintf("window %.2f s, %d requests at %.0f req/s, %d groups of %d; set-ups: server CPU %v s, wall %v s",
		window, len(slots), rate, groups, len(groupKinds), setups, wallSetups))

	if !cfg.trace {
		return out, nil
	}
	hitP90, _ := lat[kindHit].percentile(90)
	editP90, _ := lat[kindEdit].percentile(90)
	freshP90, _ := lat[kindFresh].percentile(90)
	L := out.layers
	L["wall.setup_s"] = wallSetups.median()
	L["wall.decompose_p50_ms"] = lat[kindFresh].median()
	L["wall.decompose_p90_ms"] = freshP90
	L["wall.pass_p50_ms"] = samples(passLat).median()
	L["wall.kfeat_per_s"] = float64(feats) / 1000 / window
	L["http.hit_p50_ms"] = lat[kindHit].median()
	L["http.hit_p90_ms"] = hitP90
	L["http.edit_p50_ms"] = lat[kindEdit].median()
	L["http.edit_p90_ms"] = editP90
	L["http.request_kb"] = mean(kb)
	L["loadgen.late_p90_ms"] = late90
	L["loadgen.inflight_max"] = float64(w.inflightMax)

	// Counters the server reports about itself.
	num := func(m map[string]any, k string) float64 {
		v, _ := m[k].(float64)
		return v
	}
	hits, misses := num(stats, "cache_hits"), num(stats, "cache_misses")
	L["service.hit_ratio"] = ratio(hits, hits+misses)
	if sb, ok := stats["store"].(map[string]any); ok {
		edits := num(sb, "edits")
		L["store.wal_bytes_per_edit"] = ratio(num(sb, "wal_bytes"), edits)
		L["store.snapshots_per_edit"] = ratio(num(sb, "snapshots"), edits)
	}
	var shapeHits, shapeAll, resolved, comps float64
	var rebuilt samples
	for _, o := range w.outs {
		if o.err != nil {
			continue
		}
		if sh := o.resp.Shapes; sh != nil {
			shapeHits += float64(sh.Hits)
			shapeAll += float64(sh.Hits + sh.Misses)
		}
		if inc := o.resp.Incremental; inc != nil {
			resolved += float64(inc.ResolvedComponents)
			comps += float64(inc.Components)
			rebuilt = append(rebuilt, float64(inc.RebuiltFragments))
		}
	}
	L["canon.shape_hit_ratio"] = ratio(shapeHits, shapeAll)
	L["core.edit_resolved_ratio"] = ratio(resolved, comps)
	L["core.edit_rebuilt_fragments"] = rebuilt.median()

	// The same request sequence in process, against service.New with the
	// server's configuration, and the same records into a fresh store.
	rp, err := replayInProcess(ctx, st, w, filepath.Join(runDir, "replay"))
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	for k, v := range rp {
		L[k] = v
	}
	L["http.overhead_decompose_ms"] = lat[kindFresh].median() - rp["service.decompose_miss_ms"]
	L["http.overhead_hit_ms"] = lat[kindHit].median() - rp["service.decompose_hit_ms"]
	L["http.overhead_edit_ms"] = lat[kindEdit].median() - rp["service.incremental_ms"]

	// Engine layers on the fresh layouts (memoization off, which leaves
	// the bytes unchanged), through the same traced split path as
	// fullchip.
	var ins []libInput
	var inRefs []*ref
	for g, sv := range fresh {
		if refs[g] != nil && len(ins) < 40 {
			ins = append(ins, libInput{Name: sv.layout.Name, K: 4, Layout: sv.layout})
			inRefs = append(inRefs, refs[g])
		}
	}
	lr := newLayerRun()
	lr.tracedOps(ctx, "serve", ins, inRefs, 0, time.Minute)
	out.merge(lr.tallies)
	for k, v := range lr.metrics(inprocMs.median()) {
		L[k] = v
	}
	return out, nil
}

// replayInProcess replays the warm-up and the window, in dispatch order,
// against an in-process service configured like the server, timing each
// service call, and logs every edit batch into a separate fresh store the
// way cmd/evaluate -data-dir does, timing each store call.
func replayInProcess(ctx context.Context, st *serveState, w *window, dir string) (map[string]float64, error) {
	svcStore, err := store.Open(filepath.Join(dir, "service"), store.Options{})
	if err != nil {
		return nil, err
	}
	defer svcStore.Close()
	svc := service.New(service.Config{CacheSize: 256, Workers: serverWorkers, Store: svcStore})
	logDir := filepath.Join(dir, "log")
	logStore, err := store.Open(logDir, store.Options{})
	if err != nil {
		return nil, err
	}
	opts := serveOptions()
	sig := service.OptionsSig(opts)
	layouts := map[string]*layout.Layout{}
	results := map[string]*core.Result{}
	var hashMs, missMs, hitMs, incMs, appendEditsMs, appendSnapMs samples
	snap := func(sig, hash string, timed bool) error {
		t0 := time.Now()
		r := results[hash]
		err := logStore.AppendSnapshot(sig, hash, &store.Snapshot{Layout: layouts[hash], Colors: r.Colors, Conflicts: r.Conflicts, Stitches: r.Stitches, Proven: r.Proven})
		if timed {
			appendSnapMs = append(appendSnapMs, ms(time.Since(t0)))
		}
		return err
	}
	do := func(o *outcome, timed bool) error {
		switch o.Kind {
		case kindFresh, kindHit:
			var l *layout.Layout
			if o.Kind == kindFresh {
				l = st.fresh[o.Ref].layout
			} else {
				l = st.servedRef(o.Ref).layout
			}
			t0 := time.Now()
			service.LayoutHash(l)
			t1 := time.Now()
			res, h, cached, err := svc.DecomposeHashed(ctx, l, opts)
			d := time.Since(t1)
			if err != nil {
				return err
			}
			layouts[h], results[h] = l, res
			if timed {
				hashMs = append(hashMs, ms(t1.Sub(t0)))
				if cached {
					hitMs = append(hitMs, ms(d))
				} else {
					missMs = append(missMs, ms(d))
				}
			}
		case kindEdit:
			if o.err != nil || o.after == nil {
				return nil
			}
			t0 := time.Now()
			res, nh, _, _, err := svc.DecomposeIncremental(ctx, o.base, o.edits, opts)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			layouts[nh], results[nh] = o.after, res
			if timed {
				incMs = append(incMs, ms(d))
			}
			if !logStore.Has(sig, o.base) {
				if err := snap(sig, o.base, timed); err != nil {
					return err
				}
			}
			t1 := time.Now()
			need, err := logStore.AppendEdits(sig, o.base, nh, o.edits)
			if timed {
				appendEditsMs = append(appendEditsMs, ms(time.Since(t1)))
			}
			if err != nil {
				return err
			}
			if need {
				return snap(sig, nh, timed)
			}
		}
		return nil
	}
	for _, o := range st.warmOps {
		if err := do(o, false); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.Kind, err)
		}
	}
	for _, o := range w.outs {
		if err := do(o, true); err != nil {
			return nil, fmt.Errorf("%s #%d: %w", o.Kind, o.Idx, err)
		}
	}
	if err := logStore.Close(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	reopened, err := store.Open(logDir, store.Options{})
	openMs := ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	reopened.Close()
	return map[string]float64{
		"service.hash_ms":           hashMs.median(),
		"service.decompose_miss_ms": missMs.median(),
		"service.decompose_hit_ms":  hitMs.median(),
		"service.incremental_ms":    incMs.median(),
		"store.open_ms":             openMs,
		"store.append_edits_ms":     appendEditsMs.median(),
		"store.append_snapshot_ms":  appendSnapMs.median(),
	}, nil
}
