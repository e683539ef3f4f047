package flight_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpl/internal/flight"
)

func TestHitRequiresExactKey(t *testing.T) {
	c := flight.New[[]int](8)
	ctx := context.Background()
	v, st := c.Acquire(ctx, "enc-1")
	if st != flight.Owner || v != nil {
		t.Fatalf("first Acquire: got (%v, %v), want (nil, Owner)", v, st)
	}
	c.Finish("enc-1", []int{0, 1, 2}, true)

	v, st = c.Acquire(ctx, "enc-1")
	if st != flight.Hit || len(v) != 3 {
		t.Fatalf("same key: got (%v, %v), want stored Hit", v, st)
	}
	// A different key — however similar — must fill, not hit.
	if _, st = c.Acquire(ctx, "enc-2"); st != flight.Owner {
		t.Fatalf("sibling key: got state %v, want Owner", st)
	}
	c.Finish("enc-2", []int{2, 1, 0}, true)
	if c.Len() != 2 {
		t.Fatalf("two stored keys, Len = %d", c.Len())
	}
}

// TestFinishWithoutKeepReleasesWaiters: a flight that ends with keep=false
// stores nothing and wakes its waiters, exactly one of which becomes the
// next owner. The sleeps only make it likely that the waiters are parked
// when each flight ends; the assertions hold in every interleaving, and a
// waiter that is never woken hangs the test.
func TestFinishWithoutKeepReleasesWaiters(t *testing.T) {
	c := flight.New[int](8)
	ctx := context.Background()
	if _, st := c.Acquire(ctx, "k"); st != flight.Owner {
		t.Fatalf("want Owner, got %v", st)
	}
	const waiters = 4
	states := make(chan flight.State, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, st := c.Acquire(ctx, "k")
			if st == flight.Owner {
				time.Sleep(10 * time.Millisecond) // let the others park again
				c.Finish("k", 7, true)
			} else if v != 7 {
				t.Errorf("state %v returned %d, want the next owner's 7", st, v)
			}
			states <- st
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the waiters park on the flight
	c.Finish("k", 0, false)
	if c.Len() != 0 {
		t.Fatal("keep=false stored an entry")
	}
	owners := 0
	for i := 0; i < waiters; i++ {
		switch st := <-states; st {
		case flight.Owner:
			owners++
		case flight.Hit:
		default:
			t.Errorf("unexpected state %v", st)
		}
	}
	if owners != 1 {
		t.Fatalf("%d waiters became owner after a keep=false Finish, want 1", owners)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := flight.New[string](2)
	ctx := context.Background()
	var evicted []string
	for _, k := range []string{"a", "b", "c"} {
		if _, st := c.Acquire(ctx, k); st != flight.Owner {
			t.Fatalf("key %q: want Owner, got %v", k, st)
		}
		if k == "c" {
			// Touch "a" so "b" is the least recently used when "c" lands.
			if _, st := c.Acquire(ctx, "a"); st != flight.Hit {
				t.Fatalf("key a: want Hit, got %v", st)
			}
		}
		evicted = append(evicted, c.Finish(k, k, true)...)
	}
	if c.Len() != 2 {
		t.Fatalf("cache exceeded bound: %d entries", c.Len())
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("evicted key still stored")
	}
	for _, k := range []string{"a", "c"} {
		if v, ok := c.Get(k); !ok || v != k {
			t.Fatalf("recent key %q: got (%q, %v)", k, v, ok)
		}
	}
	// Put follows the same order: "a" is now least recent.
	if ev := c.Put("d", "d"); len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("Put evicted %v, want [a]", ev)
	}
}

// TestSingleFlight: N concurrent acquirers of one key produce exactly one
// owner; every waiter gets the owner's value.
func TestSingleFlight(t *testing.T) {
	c := flight.New[[]int](8)
	ctx := context.Background()
	const n = 16
	var owners atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, st := c.Acquire(ctx, "hot")
			switch st {
			case flight.Owner:
				owners.Add(1)
				c.Finish("hot", []int{7}, true)
			case flight.Hit:
				if len(v) != 1 || v[0] != 7 {
					t.Errorf("hit returned wrong value %v", v)
				}
			default:
				t.Errorf("unexpected state %v", st)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := owners.Load(); got != 1 {
		t.Fatalf("%d owners for one hot key, want 1", got)
	}
}

// TestBypassOnCancelledWait: a waiter whose context dies while another
// flight is in progress bypasses rather than blocking.
func TestBypassOnCancelledWait(t *testing.T) {
	c := flight.New[int](8)
	if _, st := c.Acquire(context.Background(), "k"); st != flight.Owner {
		t.Fatalf("want Owner, got %v", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st := c.Acquire(ctx, "k"); st != flight.Bypass {
		t.Fatalf("cancelled waiter: want Bypass, got %v", st)
	}
	c.Finish("k", 1, true)
	if v, st := c.Acquire(ctx, "k"); st != flight.Hit || v != 1 {
		t.Fatalf("stored value under a dead context: got (%d, %v), want a Hit", v, st)
	}
}

// TestNegativeCapacityNeverWaits: a disabled cache makes every caller an
// owner at once, even while another flight on the key is open, and stores
// nothing.
func TestNegativeCapacityNeverWaits(t *testing.T) {
	c := flight.New[int](-1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a waiter would Bypass; an owner proves nobody waited
	for i := 0; i < 3; i++ {
		if _, st := c.Acquire(ctx, "k"); st != flight.Owner {
			t.Fatalf("acquire %d: want Owner, got %v", i, st)
		}
	}
	if ev := c.Finish("k", 1, true); ev != nil {
		t.Fatalf("disabled cache evicted %v", ev)
	}
	c.Put("k", 2)
	if _, ok := c.Get("k"); ok || c.Len() != 0 {
		t.Fatalf("disabled cache stored an entry (Len %d)", c.Len())
	}
}
