package service

// Regression tests for the service-layer bugfix sweep: the bounded
// fallback-lane wait and the hit/miss tally rules of the result cache's
// single flight (both entry points) and the graph cache.

import (
	"context"
	"errors"
	"testing"
	"time"

	"mpl/internal/core"
	"mpl/internal/flight"
)

// TestFallbackLaneSaturationBounded: with both the full-quality semaphore
// and the fallback lane full and the context already dead, the request must
// fail with the context's error after the bounded wait — not park forever
// on the lane.
func TestFallbackLaneSaturationBounded(t *testing.T) {
	old := fallbackLaneWait
	fallbackLaneWait = 50 * time.Millisecond
	t.Cleanup(func() { fallbackLaneWait = old })

	s := New(Config{Workers: 1})
	s.sem <- struct{}{}   // a full-quality solve is running
	s.fbSem <- struct{}{} // and the fallback lane is busy too
	defer func() { <-s.sem; <-s.fbSem }()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := s.Decompose(dead, denseRow("sat", 4), core.Options{K: 4, Algorithm: core.AlgLinear})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("saturated lane blocked for %v despite the bounded wait", waited)
	}

	// Once the lane frees up, the same dead-context request is served
	// (degraded), as before.
	<-s.fbSem
	defer func() { s.fbSem <- struct{}{} }()
	if _, _, err := s.Decompose(dead, denseRow("sat", 4), core.Options{K: 4, Algorithm: core.AlgLinear}); err != nil {
		t.Fatalf("free lane: %v", err)
	}
}

// TestWaiterDegradedRetalliedAsMiss: a waiter whose deadline expires while
// parked on someone else's in-flight solve runs its own uncached solve —
// which must count as a miss, not retain the optimistic hit tally.
func TestWaiterDegradedRetalliedAsMiss(t *testing.T) {
	s := New(Config{})
	l := denseRow("skew", 5)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	// A never-finishing flight stands in for a slow owner.
	if _, st := s.results.Acquire(context.Background(), resultKey(LayoutHash(l), opts)); st != flight.Owner {
		t.Fatalf("seeding the flight: state %v, want Owner", st)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, cached, err := s.DecomposeHashed(dead, l, opts); err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	st := s.StatsSnapshot()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 0/1 — the degraded waiter solved uncached", st.Hits, st.Misses)
	}
}

// TestIncrementalWaiterDegradedRetalliedAsMiss: DecomposeIncremental
// follows the same tally rule.
func TestIncrementalWaiterDegradedRetalliedAsMiss(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	l := denseRow("skew2", 6)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	if _, _, err := s.Decompose(ctx, l, opts); err != nil {
		t.Fatal(err)
	}
	edits := []core.Edit{{Op: core.EditRemove, Feature: 0}}
	newL, err := core.EditLayout(l, edits)
	if err != nil {
		t.Fatal(err)
	}
	if _, st := s.results.Acquire(ctx, resultKey(LayoutHash(newL), opts)); st != flight.Owner {
		t.Fatalf("seeding the flight: state %v, want Owner", st)
	}
	before := s.StatsSnapshot()

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, cached, err := s.DecomposeIncremental(dead, LayoutHash(l), edits, opts); err != nil || cached {
		t.Fatalf("cached=%v err=%v", cached, err)
	}
	st := s.StatsSnapshot()
	if st.Hits != before.Hits || st.Misses != before.Misses+1 {
		t.Fatalf("hits %d->%d misses %d->%d, want unchanged/+1", before.Hits, st.Hits, before.Misses, st.Misses)
	}
}

// TestGraphHitRetalliedOnFailedBuild: a caller that waits on an in-flight
// graph build which then fails ends up building the graph itself — which
// is no graph hit.
func TestGraphHitRetalliedOnFailedBuild(t *testing.T) {
	s := New(Config{})
	l := denseRow("gskew", 5)
	opts := core.Options{K: 4, Algorithm: core.AlgLinear}
	gk := graphKey(LayoutHash(l), opts.Normalize().Build)
	if _, st := s.graphs.Acquire(context.Background(), gk); st != flight.Owner {
		t.Fatalf("seeding the flight: state %v, want Owner", st)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Decompose(context.Background(), l, opts)
		done <- err
	}()
	// Wait until the caller holds its solve slot (graphFor is the next
	// step, and the seeded flight parks it there), then fail the build the
	// way the owner path does: finish the flight without storing. The
	// extra sleep only makes it likely the caller is parked by then; if it
	// is not, it owns the build outright, which is no graph hit either.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never reached the graph wait")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	s.graphs.Finish(gk, nil, false)

	if err := <-done; err != nil {
		t.Fatalf("retry after failed in-flight build: %v", err)
	}
	if st := s.StatsSnapshot(); st.GraphHits != 0 {
		t.Fatalf("GraphHits = %d after a failed in-flight build, want 0", st.GraphHits)
	}
}
