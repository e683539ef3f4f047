// Package flight is the one cache type of the serving and memoization
// layers: a bounded LRU map from string keys to values, with single-flight
// fills so that concurrent callers missing on one key run one fill between
// them (DESIGN.md §7). The service's result, graph and session stores and
// core's shape memo are all instances.
//
// Flights live beside the stored entries, not inside the LRU: an entry is
// stored only once its fill has finished, so eviction never meets an
// in-flight fill and a fill that ends without storing leaves nothing
// behind to clean up.
package flight

import (
	"container/list"
	"context"
	"sync"
)

// State reports how an Acquire resolved.
type State int

const (
	// Hit: the returned value was stored under the key (its recency is
	// bumped). Stored values are shared; callers must not mutate them.
	Hit State = iota
	// Owner: the caller holds the key's flight and must fill it, then
	// call Finish exactly once.
	Owner
	// Bypass: the context died while waiting on another caller's flight;
	// the caller fills for itself and must not call Finish.
	Bypass
)

// Cache is a bounded, single-flight LRU. The zero value is not usable;
// call New. Safe for concurrent use.
type Cache[V any] struct {
	mu      sync.Mutex
	limit   int
	ll      *list.List               // guarded by mu; front = most recent, Value = *item[V]
	items   map[string]*list.Element // guarded by mu
	flights map[string]chan struct{} // guarded by mu; closed when the fill finishes
}

type item[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries. A negative
// capacity stores nothing and never makes a caller wait: every Acquire
// returns Owner.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		limit:   capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]chan struct{}),
	}
}

// Acquire resolves key to a stored value (Hit), to the caller's own flight
// (Owner), or — when ctx dies while another caller's flight is running —
// to Bypass. A flight that ends without storing wakes its waiters, and one
// of them becomes the next owner.
func (c *Cache[V]) Acquire(ctx context.Context, key string) (V, State) {
	var zero V
	for {
		c.mu.Lock()
		if v, ok := c.getLocked(key); ok {
			c.mu.Unlock()
			return v, Hit
		}
		if c.limit < 0 {
			c.mu.Unlock()
			return zero, Owner
		}
		done, busy := c.flights[key]
		if !busy {
			c.flights[key] = make(chan struct{})
			c.mu.Unlock()
			return zero, Owner
		}
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return zero, Bypass
		}
	}
}

// Finish ends the owner's flight on key, storing v first when keep is
// true, and returns the values the capacity bound evicted (usually none)
// so the caller can dispose of them outside any lock.
func (c *Cache[V]) Finish(key string, v V, keep bool) (evicted []V) {
	c.mu.Lock()
	if keep {
		evicted = c.putLocked(key, v)
	}
	done := c.flights[key]
	delete(c.flights, key)
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
	return evicted
}

// Get returns the value stored under key, bumping its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

// Put stores v under key outside any flight and returns what the capacity
// bound evicted.
func (c *Cache[V]) Put(key string, v V) (evicted []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(key, v)
}

// Len reports the number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

//lint:holds mu
func (c *Cache[V]) getLocked(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*item[V]).val, true
}

//lint:holds mu
func (c *Cache[V]) putLocked(key string, v V) (evicted []V) {
	if c.limit < 0 {
		return nil
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*item[V]).val = v
		c.ll.MoveToFront(el)
		return nil
	}
	c.items[key] = c.ll.PushFront(&item[V]{key: key, val: v})
	for c.ll.Len() > c.limit {
		oldest := c.ll.Remove(c.ll.Back()).(*item[V])
		delete(c.items, oldest.key)
		evicted = append(evicted, oldest.val)
	}
	return evicted
}
