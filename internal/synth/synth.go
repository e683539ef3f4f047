// Package synth generates deterministic synthetic benchmark layouts shaped
// like the scaled ISCAS-85/89 Metal1/contact layers used by the DAC'14
// paper's experiments (Tables 1 and 2). The paper's actual benchmark files
// are not distributed; per DESIGN.md §2 these generators reproduce the
// *regime* the paper evaluates in — 20 nm half pitch, wm = sm = 20 nm,
// row-structured standard-cell geometry — with four ingredients:
//
//   - sparse contact rows on a 60 nm site grid (mostly 4-colorable
//     king-graph neighborhoods under mins = 80 nm);
//   - dense "macro" patches: solid 4-line king-graph blocks that survive
//     every division technique (no low-degree vertices, biconnected, all
//     internal cuts ≥ 4) and therefore exercise the per-component engines;
//     macro width tunes ILP difficulty — ~24-vertex macros solve in
//     seconds, ~60-vertex macros push the exact baseline past any
//     reasonable budget, reproducing the paper's big-circuit timeouts;
//   - "bump" contacts on macro borders, which densify the patch without
//     creating K5s; they roughen the SDP landscape so the greedy mapping
//     degrades relative to backtracking, as in the paper's Table 1;
//   - Fig. 7-style cross clusters at 40 nm pitch — K5 patterns that are
//     native conflicts under quadruple patterning, calibrated per circuit
//     so conflict counts land near the paper's reported magnitudes;
//   - Metal1 wire segments over the sparse regions providing stitch
//     candidates.
//
// Generation is deterministic per (circuit, scale): the seed derives from
// the circuit name.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"mpl/internal/geom"
	"mpl/internal/layout"
)

// Spec describes one synthetic circuit.
type Spec struct {
	// Name is the ISCAS circuit name the row stands in for.
	Name string
	// Gates is the real circuit's gate count; it scales the layout area.
	Gates int
	// Crosses is the number of K5 cross clusters (native QP conflicts),
	// calibrated to the paper's reported conflict numbers.
	Crosses int
	// Macros is the number of dense king-graph patches.
	Macros int
	// MacroW is the macro width in sites (height is 4 lines). Around 6 the
	// exact ILP baseline needs seconds per macro; ≥ 12 it times out.
	MacroW int
	// Bumps is the number of border bump contacts per macro.
	Bumps int
}

// Table1 lists the fifteen circuits of Table 1 in paper order. Cross counts
// follow the paper's optimal conflict numbers (ILP column; SDP+Backtrack
// for the rows where ILP timed out). Macro widths grow with circuit size so
// the exact baseline ages the way the paper reports: seconds on the
// C-circuits, over an hour on the dense S-circuits.
var Table1 = []Spec{
	{Name: "C432", Gates: 160, Crosses: 2, Macros: 1, MacroW: 5, Bumps: 2},
	{Name: "C499", Gates: 202, Crosses: 1, Macros: 1, MacroW: 5, Bumps: 2},
	{Name: "C880", Gates: 383, Crosses: 1, Macros: 1, MacroW: 5, Bumps: 2},
	{Name: "C1355", Gates: 546, Crosses: 0, Macros: 1, MacroW: 6, Bumps: 2},
	{Name: "C1908", Gates: 880, Crosses: 2, Macros: 1, MacroW: 6, Bumps: 2},
	{Name: "C2670", Gates: 1269, Crosses: 0, Macros: 2, MacroW: 5, Bumps: 2},
	{Name: "C3540", Gates: 1669, Crosses: 1, Macros: 2, MacroW: 6, Bumps: 3},
	{Name: "C5315", Gates: 2307, Crosses: 1, Macros: 2, MacroW: 6, Bumps: 3},
	{Name: "C6288", Gates: 2416, Crosses: 9, Macros: 3, MacroW: 6, Bumps: 3},
	{Name: "C7552", Gates: 3513, Crosses: 2, Macros: 3, MacroW: 6, Bumps: 3},
	{Name: "S1488", Gates: 653, Crosses: 0, Macros: 1, MacroW: 5, Bumps: 2},
	{Name: "S38417", Gates: 23843, Crosses: 20, Macros: 8, MacroW: 7, Bumps: 3},
	{Name: "S35932", Gates: 16065, Crosses: 50, Macros: 14, MacroW: 14, Bumps: 7},
	{Name: "S38584", Gates: 19253, Crosses: 41, Macros: 14, MacroW: 14, Bumps: 7},
	{Name: "S15850", Gates: 10383, Crosses: 42, Macros: 12, MacroW: 14, Bumps: 7},
}

// Table2Names lists the six densest circuits evaluated for pentuple
// patterning in Table 2, in paper order.
var Table2Names = []string{"C6288", "C7552", "S38417", "S35932", "S38584", "S15850"}

// Extras lists circuits outside the paper's tables that exercise specific
// subsystems. REPCELL is the shape memoization workload: many
// copies of a small set of dense cell shapes (cross clusters and macro
// patches), with Bumps deliberately zero — bump contacts are placed by the
// per-macro RNG, so any bump would perturb each macro's surroundings and
// break the shape repetition the memo cache exists to exploit.
var Extras = []Spec{
	{Name: "REPCELL", Gates: 220, Crosses: 20, Macros: 10, MacroW: 5, Bumps: 0},
}

// ByName returns the spec for a circuit name (paper tables first, then the
// extra subsystem workloads).
func ByName(name string) (Spec, bool) {
	for _, s := range Table1 {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range Extras {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// region is a reserved site span [lo, hi) inside one row.
type region struct{ row, lo, hi int }

// Geometry constants (nm): the paper's 20 nm half-pitch process.
const (
	contactSize = 20  // wm
	sitePitch   = 60  // contact grid pitch (gap 40 → conflicts within ±1 site at mins=80)
	crossPitch  = 40  // cross cluster pitch (K5 under mins = 80)
	macroLines  = 4   // macro height in site lines (2-line patches peel away)
	wireTrackY  = 160 // wire track: 80 nm above line 2, conflicts with it
	wireHeight  = 20
	rowPitch    = 400 // row separation: no coupling across rows at mins=80
)

// Generate builds the layout for a spec at the given scale (1.0 = nominal
// size; smaller values shrink area and cluster counts proportionally).
// Generation is deterministic for a given (spec.Name, scale).
func Generate(spec Spec, scale float64) *layout.Layout {
	return GenerateSeeded(spec, scale, 0)
}

// GenerateSeeded is Generate with an extra seed mixed into the circuit's
// name-derived base seed, for generating layout variants of one circuit
// (load testing, fuzz corpora). Seed 0 reproduces Generate bit for bit —
// and therefore the committed benchmarks/*.lay files.
func GenerateSeeded(spec Spec, scale float64, seed int64) *layout.Layout {
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seedOf(spec.Name) ^ seed))
	l := layout.New(spec.Name)

	sites := int(float64(spec.Gates) * 2 * scale)
	if sites < 60 {
		sites = 60
	}
	rows := int(math.Sqrt(float64(sites) / 40))
	if rows < 1 {
		rows = 1
	}
	perRow := sites / rows
	if perRow < 20 {
		perRow = 20
	}
	crosses := scaledCount(spec.Crosses, scale)
	macros := scaledCount(spec.Macros, scale)
	macroW := spec.MacroW
	if macroW < 4 {
		macroW = 4
	}

	addContact := func(x, y int) {
		l.AddRect(geom.Rect{X0: x, Y0: y, X1: x + contactSize, Y1: y + contactSize})
	}

	// Reserve non-overlapping site spans for crosses and macros. A span
	// [lo, hi) in a row is blocked for sparse contacts and wires; one site
	// of margin keeps the structures conflict-isolated horizontally.
	var crossRegions, macroRegions []region
	reserved := make(map[int][]region) // row -> regions
	overlaps := func(row, lo, hi int) bool {
		for _, r := range reserved[row] {
			if lo < r.hi+1 && r.lo < hi+1 {
				return true
			}
		}
		return false
	}
	place := func(width int) (region, bool) {
		for try := 0; try < 50; try++ {
			r := region{row: rng.Intn(rows)}
			if perRow <= width+2 {
				return region{}, false
			}
			r.lo = 1 + rng.Intn(perRow-width-2)
			r.hi = r.lo + width
			if !overlaps(r.row, r.lo, r.hi) {
				reserved[r.row] = append(reserved[r.row], r)
				return r, true
			}
		}
		return region{}, false
	}
	for i := 0; i < macros; i++ {
		if r, ok := place(macroW); ok {
			macroRegions = append(macroRegions, r)
		}
	}
	for i := 0; i < crosses; i++ {
		if r, ok := place(4); ok {
			crossRegions = append(crossRegions, r)
		}
	}

	const occupancy = 0.35
	for row := 0; row < rows; row++ {
		y0 := row * rowPitch
		// Sparse contact sites on two lines.
		for site := 0; site < perRow; site++ {
			if overlaps(row, site, site+1) {
				continue
			}
			for line := 0; line < 2; line++ {
				if rng.Float64() < occupancy {
					addContact(site*sitePitch, y0+line*sitePitch)
				}
			}
		}
		// Wire segments over the sparse stretches of the row's track.
		buildWires(l, rng, row, y0, perRow, reserved[row])
	}

	// Dense macros: solid 4-line king patches plus border bumps.
	for _, r := range macroRegions {
		y0 := r.row * rowPitch
		for site := r.lo; site < r.hi; site++ {
			for line := 0; line < macroLines; line++ {
				addContact(site*sitePitch, y0+line*sitePitch)
			}
		}
		for b := 0; b < spec.Bumps; b++ {
			s := r.lo + rng.Intn(r.hi-r.lo-1)
			x := s*sitePitch + sitePitch/2
			if rng.Intn(2) == 0 {
				addContact(x, y0+macroLines*sitePitch) // above the top line (gap 40)
			} else {
				addContact(x, y0-sitePitch) // below the bottom line (gap 40)
			}
		}
	}

	// Cross clusters: Fig. 7 K5 pattern at 40 nm pitch.
	for _, r := range crossRegions {
		y0 := r.row * rowPitch
		cx := (r.lo + 2) * sitePitch
		cy := y0 + contactSize
		for _, d := range [][2]int{{0, 0}, {crossPitch, 0}, {-crossPitch, 0}, {0, crossPitch}, {0, -crossPitch}} {
			addContact(cx+d[0], cy+d[1])
		}
	}
	return l
}

// buildWires lays metal segments on the row track, skipping reserved spans
// (macros keep their component structure clean; crosses stay pure K5s).
func buildWires(l *layout.Layout, rng *rand.Rand, row, y0, perRow int, blocked []region) {
	limit := perRow * sitePitch
	x := rng.Intn(3) * sitePitch
	for x < limit-2*sitePitch {
		segSites := 2 + rng.Intn(6)
		x1 := x + segSites*sitePitch - crossPitch
		if x1 > limit {
			x1 = limit
		}
		// Clip against reserved spans (with one site of margin).
		clipped := false
		for _, r := range blocked {
			bLo, bHi := (r.lo-1)*sitePitch, (r.hi+1)*sitePitch
			if x < bHi && bLo < x1 {
				if x >= bLo {
					x = bHi // segment starts inside: skip past
					clipped = true
					break
				}
				x1 = bLo // segment runs into the span: truncate
			}
		}
		if clipped {
			continue
		}
		if x1-x >= 2*contactSize {
			l.AddRect(geom.Rect{X0: x, Y0: y0 + wireTrackY, X1: x1, Y1: y0 + wireTrackY + wireHeight})
		}
		x = x1 + crossPitch
	}
}

// GenerateByName is Generate over the named Table 1 circuit.
func GenerateByName(name string, scale float64) (*layout.Layout, error) {
	spec, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("synth: unknown circuit %q", name)
	}
	return Generate(spec, scale), nil
}

// Random generates a small random layout for property-based tests:
// contact clusters, wire segments and K5 crosses placed by the seeded rng
// on the paper's 20 nm half-pitch process. Unlike the named circuits it has
// no structural guarantees — clusters may overlap rows, wires may couple to
// anything nearby — which is exactly what a property test wants: arbitrary
// (valid) geometry in the regime the decomposer serves. Deterministic per
// seed; the layout always has at least one feature.
func Random(seed int64) *layout.Layout {
	rng := rand.New(rand.NewSource(seed))
	l := layout.New(fmt.Sprintf("random-%d", seed))

	// A compact die: 2–4 rows of up to ~14 sites keeps graphs small enough
	// that even the exact engine answers in milliseconds.
	rows := 2 + rng.Intn(3)
	perRow := 8 + rng.Intn(7)
	for row := 0; row < rows; row++ {
		y0 := row * rowPitch
		for site := 0; site < perRow; site++ {
			for line := 0; line < 2; line++ {
				if rng.Float64() < 0.4 {
					l.AddRect(geom.Rect{
						X0: site * sitePitch, Y0: y0 + line*sitePitch,
						X1: site*sitePitch + contactSize, Y1: y0 + line*sitePitch + contactSize,
					})
				}
			}
		}
		// One wire segment per row half the time: stitch candidates.
		if rng.Intn(2) == 0 {
			x0 := rng.Intn(3) * sitePitch
			x1 := x0 + (3+rng.Intn(5))*sitePitch
			l.AddRect(geom.Rect{X0: x0, Y0: y0 + wireTrackY, X1: x1, Y1: y0 + wireTrackY + wireHeight})
		}
	}
	// A dense king patch one time in three: a piece that survives division
	// and reaches the per-component engines. Width ≤ 4 keeps the core at or
	// below 16 vertices, where even the exact engine answers in ~25 ms.
	if rng.Intn(3) == 0 {
		bx := rng.Intn(4) * sitePitch
		by := rows * rowPitch
		w := 3 + rng.Intn(2)
		for site := 0; site < w; site++ {
			for line := 0; line < macroLines; line++ {
				l.AddRect(geom.Rect{
					X0: bx + site*sitePitch, Y0: by + line*sitePitch,
					X1: bx + site*sitePitch + contactSize, Y1: by + line*sitePitch + contactSize,
				})
			}
		}
	}
	// A K5 cross one time in three: a native QP conflict.
	if rng.Intn(3) == 0 {
		cx := (perRow + 2) * sitePitch
		cy := rng.Intn(rows) * rowPitch
		for _, d := range [][2]int{{0, 0}, {crossPitch, 0}, {-crossPitch, 0}, {0, crossPitch}, {0, -crossPitch}} {
			l.AddRect(geom.Rect{X0: cx + d[0], Y0: cy + d[1], X1: cx + d[0] + contactSize, Y1: cy + d[1] + contactSize})
		}
	}
	if len(l.Features) == 0 {
		l.AddRect(geom.Rect{X0: 0, Y0: 0, X1: contactSize, Y1: contactSize})
	}
	return l
}

func scaledCount(n int, scale float64) int {
	if scale >= 1 {
		return n
	}
	v := int(math.Round(float64(n) * scale))
	if n > 0 && v == 0 {
		v = 1
	}
	return v
}

func seedOf(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h
}
