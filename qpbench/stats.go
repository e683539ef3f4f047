package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above its rank. A percentile that lacks them
// is omitted, never estimated.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule chooses from, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// samples is one latency distribution in milliseconds.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile: the smallest sample at
// or above which p percent of the samples lie. ok is false when fewer than
// minBeyond samples lie above that rank.
func (s samples) percentile(p float64) (v float64, ok bool) {
	c := s.sorted()
	n := len(c)
	if n == 0 {
		return 0, false
	}
	idx := rank(p, n)
	return c[idx], n-1-idx >= minBeyond
}

// rank is the 0-based nearest-rank index of the p-th percentile of n
// samples; the tolerance keeps p·n that is whole in exact arithmetic from
// rounding up.
func rank(p float64, n int) int {
	idx := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if idx < 0 {
		return 0
	}
	return idx
}

// minSamplesFor is the smallest sample count for which percentile(p)
// reports.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-1-rank(p, n) >= minBeyond {
			return n
		}
	}
}

// tail reports the highest candidate percentile the rule allows.
func (s samples) tail() (p, v float64, ok bool) {
	for _, p := range tailCandidates {
		if v, ok := s.percentile(p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// describe renders the median, the rule's tail percentile and the sample
// count for the human-readable report.
func (s samples) describe() string {
	if p, v, ok := s.tail(); ok {
		return fmt.Sprintf("p50 %.3f ms, p%g %.3f ms, n=%d", s.median(), p, v, len(s))
	}
	return fmt.Sprintf("p50 %.3f ms, no tail percentile (n=%d)", s.median(), len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
