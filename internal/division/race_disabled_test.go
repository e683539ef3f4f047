//go:build !race

package division

const RaceEnabled = false
