package main

import "testing"

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: the rule must sort
	}
	return s
}

// A percentile is reported only with at least ten samples above its rank,
// and is then the nearest-rank value, never an interpolation.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := seq(99).percentile(90); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond its rank and must be omitted")
	}
	v, ok := seq(100).percentile(90)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := seq(1000).percentile(99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := (samples{}).percentile(50); ok {
		t.Fatal("no samples, no percentile")
	}
	for _, p := range []float64{50, 75, 90, 95, 99} {
		n := minSamplesFor(p)
		if _, ok := seq(n).percentile(p); !ok {
			t.Errorf("p%g: %d samples should suffice", p, n)
		}
		if _, ok := seq(n - 1).percentile(p); ok {
			t.Errorf("p%g: %d samples should not suffice", p, n-1)
		}
	}
	if minSamplesFor(90) != 100 {
		t.Fatalf("minSamplesFor(90) = %d, want 100", minSamplesFor(90))
	}
}

// The tail is the highest candidate percentile with enough samples.
func TestTailPicksHighestAllowed(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{30, 0, false}, // p75 needs 40
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, _, ok := seq(c.n).tail()
		if ok != c.ok || p != c.want {
			t.Errorf("tail of %d samples = p%g (%v), want p%g (%v)", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := (samples{3, 1, 2}).median(); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
