package main

import (
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer: its name, the workload
// operation it belongs to, the span that caused it (-1 for none), and its
// interval relative to the tracer's origin.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration
	End    time.Duration
	// Attrs carries counts observed at the same boundary (piece size,
	// completion flags), so ratios are measured where the work happens.
	Attrs map[string]float64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a traced run. Safe for
// concurrent use: division workers record engine spans from several
// goroutines at once.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, attrs map[string]float64) {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Attrs = attrs
}

// get returns span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// snapshot returns a copy of every closed span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (engine calls on parallel division
// workers) count once, and the parts of a child outside the parent's
// interval count not at all.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	covered += curHi - curLo
	return parent.dur() - covered
}
