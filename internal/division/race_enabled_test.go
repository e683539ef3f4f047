//go:build race

package division

// RaceEnabled reports whether this test binary was built with the race
// detector, so the reference comparisons (here and in the external test
// package) can scale themselves down.
const RaceEnabled = true
