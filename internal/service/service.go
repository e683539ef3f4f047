// Package service is the serving layer over the decomposition pipeline: a
// layout-hash keyed LRU result cache with single-flight deduplication, a
// decomposition-graph cache shared by algorithm sweeps, a bounded-concurrency
// batch runner, and a session store for incremental (ECO) serving. It exists
// so callers with many or repeated layouts (the HTTP API of `qpld serve`,
// the table sweeps of cmd/evaluate) get concurrency and caching without
// re-implementing either, while cancellation flows straight through to
// core.DecomposeGraphContext.
//
// Sessions make edits first-class: every successful full-quality Decompose
// registers an immutable session (layout + result) under its layout hash,
// and DecomposeIncremental advances a session by an edit batch through
// core.ApplyEdits — re-solving only the dirty region — registering the
// post-edit state as a new session. Because a session is keyed by the
// geometry it decomposed (not by a mutable "current state"), concurrent
// conflicting edit batches never race: each derives its own successor state
// from the same immutable base.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mpl/internal/core"
	"mpl/internal/division"
	"mpl/internal/flight"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/pipeline"
	"mpl/internal/store"
)

// ErrNoSession is returned by DecomposeIncremental when the base layout
// hash has no live session — the client must (re)send the full layout via
// Decompose first. Wrapped; test with errors.Is.
var ErrNoSession = errors.New("service: no session for base layout hash")

// Config sizes a Service. The zero value is usable.
type Config struct {
	// CacheSize caps the number of cached results (and, independently, of
	// cached decomposition graphs); 0 means 128, negative disables caching.
	CacheSize int
	// Workers caps concurrently running decompositions across all callers;
	// 0 means GOMAXPROCS.
	Workers int
	// DefaultTimeout, when positive, bounds each decomposition that arrives
	// with a context carrying no earlier deadline.
	DefaultTimeout time.Duration
	// Store, when non-nil, makes sessions durable (DESIGN.md §13): edit
	// batches are logged before the successor session is registered, a
	// session evicted from the LRU is spilled to disk instead of dropped,
	// and a session miss rehydrates from the nearest persisted snapshot by
	// replaying the log tail through core.ApplyEdits. Nil (the zero value)
	// keeps sessions purely in-memory. The caller owns the Store's
	// lifecycle and must not Close it while the Service is in use.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits        uint64 // result served from cache (including waits on an in-flight solve)
	Misses      uint64 // result required a solve
	Evictions   uint64 // cache entries dropped by the LRU policy
	GraphHits   uint64 // graph builds avoided by the graph cache
	Incremental uint64 // incremental (ApplyEdits) solves actually executed
	Size        int    // current result-cache entry count
	Sessions    int    // current session-store entry count
	// Rehydrations counts sessions reconstructed from the durable store
	// (nearest snapshot plus log-tail replay); Spills counts sessions
	// written to the durable store on LRU eviction; StoreErrors counts
	// durable-store operations that failed — the request itself still
	// succeeded, but durability of the affected session is degraded until
	// a later spill or snapshot lands. All zero without Config.Store.
	Rehydrations uint64
	Spills       uint64
	StoreErrors  uint64
	// Store carries the durable session store's own counters (log size,
	// compactions, recovery events); nil without Config.Store.
	Store *store.Stats
	// Engines accumulates the per-engine dispatch histograms of every solve
	// this service executed (cache hits add nothing — no piece was solved):
	// engine name → pieces colored. Fixed-engine requests land in one
	// bucket; auto/race requests spread across the engines the portfolio
	// picked, plus "fallback" for deadline-degraded pieces.
	Engines map[string]uint64
	// Stages accumulates the per-stage telemetry of every solve this
	// service executed, keyed by the pipeline.Stage* names: division and
	// merge stages from each solve's Result, build stages from the graph
	// builds this service actually ran (cache-hit graphs add nothing —
	// the build they reuse was recorded when it happened).
	Stages map[string]pipeline.StageStats
	// Shapes accumulates the shape memoization counters of every
	// memoized solve this service executed (core Options.Memoize).
	// Distinct sums per-run distinct piece-encoding counts, so a piece two
	// solves both touch is counted by each.
	Shapes division.ShapeStats
	// Balance accumulates the dispatch-imbalance gauge across every solve
	// this service executed: worker contributions sum, busy-time extremes
	// are the lifetime max/min over all runs' workers (division.Balance
	// merge semantics). A MaxBusy far above MinBusy flags workloads whose
	// parallel Dispatch is dominated by straggler components.
	Balance division.Balance
}

// Service runs decompositions with caching and bounded concurrency. Safe
// for concurrent use.
type Service struct {
	cfg   Config
	sem   chan struct{} // full-quality solves
	fbSem chan struct{} // fallback solves for requests whose deadline expired while queued

	results  *flight.Cache[*core.Result] // resultKey -> healthy result
	graphs   *flight.Cache[*core.Graph]  // graphKey -> decomposition graph
	sessions *flight.Cache[*session]     // resultKey -> session (immutable once stored)

	mu    sync.Mutex
	stats Stats // guarded by mu
}

// session is one servable decomposition state: the layout geometry and the
// full-quality result computed for it under one options key. All fields
// are immutable after the session is stored — DecomposeIncremental derives
// new sessions instead of updating old ones, so readers never see torn
// state and conflicting edit batches cannot race. hash and sig are the
// components of the session's cache key (LayoutHash of layout, optionsSig
// of the options that produced res), kept so the durable store can spill
// and chain sessions without re-deriving either.
type session struct {
	hash   string
	sig    string
	layout *layout.Layout
	res    *core.Result
}

// snapshotLayout shields a stored session from later caller-side appends to
// the feature slice. (Callers mutating feature geometry in place would
// already have broken the hash-keyed caches; that contract is unchanged.)
func snapshotLayout(l *layout.Layout) *layout.Layout {
	return &layout.Layout{
		Name:     l.Name,
		Process:  l.Process,
		Features: append([]geom.Polygon(nil), l.Features...),
	}
}

// New returns a Service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		fbSem:    make(chan struct{}, cfg.Workers),
		results:  flight.New[*core.Result](cfg.CacheSize),
		graphs:   flight.New[*core.Graph](cfg.CacheSize),
		sessions: flight.New[*session](cfg.CacheSize),
	}
}

// Decompose runs (or reuses) one decomposition. cached reports whether the
// result was served from the cache or by waiting on an identical in-flight
// solve. The returned Result has its own Colors slice, so callers may
// mutate it (e.g. BalanceMasks) without corrupting the cache.
func (s *Service) Decompose(ctx context.Context, l *layout.Layout, opts core.Options) (res *core.Result, cached bool, err error) {
	res, _, cached, err = s.DecomposeHashed(ctx, l, opts)
	return res, cached, err
}

// DecomposeHashed is Decompose, additionally returning the layout hash it
// keyed the run under — the session base for DecomposeIncremental — so
// callers building responses (qpld serve) don't re-hash the geometry.
func (s *Service) DecomposeHashed(ctx context.Context, l *layout.Layout, opts core.Options) (res *core.Result, layoutHash string, cached bool, err error) {
	if opts.K != 0 && opts.K < 2 {
		return nil, "", false, fmt.Errorf("service: K must be >= 2, got %d", opts.K)
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()
	lh := LayoutHash(l)
	sig := optionsSig(opts)
	res, cached, err = s.cachedRun(ctx, lh, sig, l, func(ctx context.Context) (*core.Result, error) {
		// A restart may have left this very solve on disk: a durable
		// snapshot of the requested hash with no replay tail reconstructs
		// the result (graph build + verification) without re-running the
		// solve.
		if stored := s.fullFromStore(lh, sig, opts); stored != nil {
			return stored, nil
		}
		return s.solve(ctx, lh, l, opts)
	}, nil)
	if err != nil {
		return nil, "", false, err
	}
	return res, lh, cached, nil
}

// withDefaultTimeout bounds ctx by Config.DefaultTimeout when it carries no
// earlier deadline.
func (s *Service) withDefaultTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has || s.cfg.DefaultTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
}

// cachedRun is the result cache's single flight, shared by DecomposeHashed
// and DecomposeIncremental: the result for layout hash lh under options
// signature sig is served from the cache, or produced by run — once across
// concurrent callers — with l as the geometry it colors.
//
//   - Hit: the stored result is healthy by construction. Its session is
//     re-registered if the session store evicted it while the result stayed
//     hot, because the documented recovery for a lost session is "re-send
//     the full layout", and that must work even when it lands on a hit.
//   - Owner: run's result is stored only when healthy — a degraded or
//     failed solve reflects this caller's context, and a later caller with
//     a healthy deadline deserves a full-quality run; its waiters then loop
//     and one of them owns the retry. A healthy result also registers a
//     session so the caller can follow up with edit batches; persist, when
//     non-nil, makes that session durable first (write-ahead: once a
//     client can chain from lh, a crash must not lose the state it chains
//     from). The session is registered before the flight ends, so no
//     waiter can see the result without it.
//   - Bypass: this caller's deadline expired while waiting on another
//     caller's solve. It answers degraded itself — the contract the owner
//     path honors — uncached, instead of turning a key collision into an
//     error.
//
// Hits are counted only on Hit and misses on Owner and Bypass.
func (s *Service) cachedRun(ctx context.Context, lh, sig string, l *layout.Layout, run func(context.Context) (*core.Result, error), persist func(*session)) (*core.Result, bool, error) {
	key := lh + sig
	res, state := s.results.Acquire(ctx, key)
	s.mu.Lock()
	if state == flight.Hit {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if state == flight.Hit {
		s.ensureSession(lh, sig, l, res)
		return copyResult(res), true, nil
	}
	res, err := run(ctx)
	var evicted []*session
	var dropped int
	if state == flight.Owner {
		healthy := err == nil && res.Degraded == 0
		if healthy {
			sess := &session{hash: lh, sig: sig, layout: snapshotLayout(l), res: res}
			if persist != nil {
				persist(sess)
			}
			evicted = s.sessions.Put(key, sess)
		}
		dropped = len(s.results.Finish(key, res, healthy))
	}
	s.mu.Lock()
	s.stats.Evictions += uint64(dropped)
	s.recordEngines(res)
	s.mu.Unlock()
	s.spillEvicted(evicted)
	if err != nil {
		return nil, false, err
	}
	return copyResult(res), false, nil
}

// recordEngines folds one executed solve's per-engine dispatch histogram
// and per-stage telemetry into the service totals. Callers must hold s.mu.
//
//lint:holds mu
func (s *Service) recordEngines(res *core.Result) {
	if res == nil {
		return
	}
	if len(res.DivisionStats.Engines) > 0 {
		if s.stats.Engines == nil {
			s.stats.Engines = make(map[string]uint64)
		}
		for name, n := range res.DivisionStats.Engines {
			s.stats.Engines[name] += uint64(n)
		}
	}
	s.stats.Stages = pipeline.MergeStages(s.stats.Stages, res.DivisionStats.Stages)
	s.stats.Shapes.Hits += res.DivisionStats.Shapes.Hits
	s.stats.Shapes.Misses += res.DivisionStats.Shapes.Misses
	s.stats.Shapes.Distinct += res.DivisionStats.Shapes.Distinct
	s.stats.Balance.Merge(res.DivisionStats.Balance)
}

// recordBuild folds one executed graph build into the aggregate stage
// telemetry. Solves over cached graphs never reach here — the build cost
// was paid (and recorded) once, by the caller that actually built.
func (s *Service) recordBuild(st core.BuildStats) {
	s.mu.Lock()
	s.stats.Stages = pipeline.MergeStages(s.stats.Stages, map[string]pipeline.StageStats{
		pipeline.StageBuild: {Wall: st.Timing.Total, Calls: 1},
	})
	s.mu.Unlock()
}

// ensureSession re-registers a session for a healthy cached result whose
// session entry may have been LRU-evicted independently. The (pure,
// O(features)) snapshot is taken only when actually needed.
func (s *Service) ensureSession(lh, sig string, l *layout.Layout, res *core.Result) {
	key := lh + sig
	if _, ok := s.sessions.Get(key); ok { // present: just bumped its recency
		return
	}
	s.spillEvicted(s.sessions.Put(key, &session{hash: lh, sig: sig, layout: snapshotLayout(l), res: res}))
}

// fallbackLaneWait bounds how long an expired request may queue for the
// fallback lane. Every fallback solve is milliseconds-scale linear work, so
// a lane that stays full this long is saturated and the request is better
// failed than parked: its own context is already dead, and unbounded
// parking here would pin handler goroutines past serve's drain budget.
// A variable only so the saturation regression test can shorten it.
var fallbackLaneWait = 2 * time.Second

// acquireLane claims a solve slot: a full-quality slot while the context
// is alive, else the bounded fallback lane (under a cancelled context the
// pipeline takes the cheap linear-fallback path, so the caller still
// receives a valid degraded coloring instead of an error — but through a
// separate bounded semaphore, so an overload burst of expired requests
// cannot run unbounded graph builds). release is non-nil exactly when err
// is nil.
func (s *Service) acquireLane(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
	}
	t := time.NewTimer(fallbackLaneWait)
	defer t.Stop()
	select {
	case s.fbSem <- struct{}{}:
		return func() { <-s.fbSem }, nil
	case <-t.C:
		return nil, fmt.Errorf("service: fallback lane saturated after %v: %w", fallbackLaneWait, ctx.Err())
	}
}

// solve acquires a concurrency slot, builds (or reuses) the decomposition
// graph, and colors it.
func (s *Service) solve(ctx context.Context, lh string, l *layout.Layout, opts core.Options) (*core.Result, error) {
	release, err := s.acquireLane(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	dg, err := s.graphFor(lh, l, opts)
	if err != nil {
		return nil, err
	}
	return core.DecomposeGraphContext(ctx, dg, opts)
}

// graphFor returns the decomposition graph for the layout, building it at
// most once per (layout, build options) across concurrent callers. Waiting
// on another caller's in-flight build is not interruptible: the build is
// already running, always terminates, and finishing the wait is the fastest
// route to any answer — including a degraded one. A failed build stores
// nothing, so a waiter retries it.
func (s *Service) graphFor(lh string, l *layout.Layout, opts core.Options) (*core.Graph, error) {
	build := opts.Normalize().Build
	gk := graphKey(lh, build)
	//lint:ignore ctxflow deliberate: the wait on an in-flight build is not interruptible (see comment above)
	g, state := s.graphs.Acquire(context.Background(), gk)
	if state == flight.Hit {
		s.mu.Lock()
		s.stats.GraphHits++
		s.mu.Unlock()
		return g, nil
	}
	g, err := core.BuildGraph(l, build)
	if err == nil {
		s.recordBuild(g.Stats)
	}
	s.graphs.Finish(gk, g, err == nil)
	return g, err
}

// DecomposeIncremental advances the session identified by baseHash (a
// LayoutHash previously returned alongside a Decompose or
// DecomposeIncremental of the same opts) by one edit batch, re-solving only
// the dirty region via core.ApplyEdits. It returns the post-edit result,
// the post-edit layout hash (the base for follow-up batches), the reuse
// statistics (nil when the result came from the cache), and whether it was
// cached.
//
// Identical concurrent batches are deduplicated through the result cache:
// the post-edit geometry is hashed first, so one caller applies the edits
// and the rest wait on its entry. Conflicting concurrent batches derive
// independent successor sessions from the same immutable base — there is
// no "current state" to race on. When baseHash has no live session
// (evicted, never created, or caching disabled) the call fails with
// ErrNoSession and the client re-sends the full layout via Decompose.
func (s *Service) DecomposeIncremental(ctx context.Context, baseHash string, edits []core.Edit, opts core.Options) (res *core.Result, newHash string, estats *core.EditStats, cached bool, err error) {
	if opts.K != 0 && opts.K < 2 {
		return nil, "", nil, false, fmt.Errorf("service: K must be >= 2, got %d", opts.K)
	}
	ctx, cancel := s.withDefaultTimeout(ctx)
	defer cancel()
	sig := optionsSig(opts)
	sess, ok := s.sessions.Get(baseHash + sig)
	if !ok {
		// The in-memory store lost the session (evicted, or a restart) —
		// rehydrate it from the durable log before giving up. Only when
		// the disk has nothing either is it truly no session.
		if sess, err = s.rehydrate(ctx, baseHash, sig, opts); err != nil {
			return nil, "", nil, false, err
		}
		if sess == nil {
			return nil, "", nil, false, fmt.Errorf("%w: %.16s…", ErrNoSession, baseHash)
		}
	}

	// Hash the post-edit geometry up front: the result cache and its
	// single flight then work exactly as for full solves.
	newL, err := core.EditLayout(sess.layout, edits)
	if err != nil {
		return nil, "", nil, false, err
	}
	newHash = LayoutHash(newL)
	res, cached, err = s.cachedRun(ctx, newHash, sig, newL, func(ctx context.Context) (*core.Result, error) {
		_, out, st, runErr := s.applyEdits(ctx, sess, edits, opts)
		estats = st
		return out, runErr
	}, func(succ *session) { s.persistEdits(sess, succ, edits) })
	if err != nil {
		return nil, "", nil, false, err
	}
	return res, newHash, estats, cached, nil
}

// applyEdits runs core.ApplyEdits under the same concurrency discipline as
// solve: a full-quality slot when the deadline is alive, the bounded
// fallback lane when it expired while queued.
func (s *Service) applyEdits(ctx context.Context, sess *session, edits []core.Edit, opts core.Options) (*layout.Layout, *core.Result, *core.EditStats, error) {
	release, err := s.acquireLane(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	defer release()
	s.mu.Lock()
	s.stats.Incremental++
	s.mu.Unlock()
	return core.ApplyEdits(ctx, sess.layout, sess.res, edits, opts)
}

// StatsSnapshot returns current cache statistics.
func (s *Service) StatsSnapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Size = s.results.Len()
	st.Sessions = s.sessions.Len()
	if s.stats.Engines != nil {
		st.Engines = make(map[string]uint64, len(s.stats.Engines))
		for name, n := range s.stats.Engines {
			st.Engines[name] = n
		}
	}
	st.Stages = pipeline.MergeStages(nil, s.stats.Stages)
	if s.cfg.Store != nil {
		ss := s.cfg.Store.StatsSnapshot()
		st.Store = &ss
	}
	return st
}

// copyResult returns a shallow copy with an independent Colors slice (the
// only part of a Result its public API mutates, via BalanceMasks).
func copyResult(r *core.Result) *core.Result {
	cp := *r
	cp.Colors = append([]int(nil), r.Colors...)
	return &cp
}

// Request is one unit of batch work.
type Request struct {
	// Name labels the request in its Response (e.g. a circuit name).
	Name string
	// Layout is the layout to decompose.
	Layout *layout.Layout
	// Options configures the run.
	Options core.Options
}

// Response pairs a Request with its outcome, in the same slice position.
type Response struct {
	Name    string
	Result  *core.Result
	Cached  bool
	Err     error
	Elapsed time.Duration
}

// DecomposeAll runs every request through Decompose with at most
// Config.Workers solves in flight, returning responses in request order.
// Cancelling ctx degrades rather than abandons the work already picked
// up — requests already solving finish promptly via core's fallback path,
// with valid degraded results — while requests a worker has not yet
// started are not solved at all: their responses carry the context's
// error, so the batch returns as soon as the in-flight tail drains
// instead of grinding every remaining layout through a fallback solve.
func (s *Service) DecomposeAll(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	workers := s.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					out[i] = Response{Name: reqs[i].Name, Err: fmt.Errorf("service: batch cancelled before this request started: %w", err)}
					continue
				}
				t0 := time.Now()
				res, cached, err := s.Decompose(ctx, reqs[i].Layout, reqs[i].Options)
				out[i] = Response{
					Name:    reqs[i].Name,
					Result:  res,
					Cached:  cached,
					Err:     err,
					Elapsed: time.Since(t0),
				}
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
