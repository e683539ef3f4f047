package main

import (
	"sync"
	"testing"
	"time"
)

func sp(start, end int) span {
	return span{Start: time.Duration(start), End: time.Duration(end)}
}

// Self time is the span minus the part of it its children cover: children
// that overlap each other count once, and the parts outside the parent
// not at all.
func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		{"overlapping workers", []span{sp(10, 40), sp(20, 60), sp(55, 70)}, 40},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20},
		{"touching", []span{sp(10, 20), sp(20, 30)}, 80},
		{"clipped at the parent", []span{sp(-10, 10), sp(95, 120)}, 85},
		{"outside", []span{sp(150, 160)}, 100},
		{"unsorted", []span{sp(60, 70), sp(0, 10)}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// Spans recorded from several goroutines all land, each closed once.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("parent", 0, -1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.begin("child", 0, parent)
				tr.end(id, map[string]float64{"n": 1})
			}
		}()
	}
	wg.Wait()
	tr.end(parent, nil)
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Name)
		}
	}
}
