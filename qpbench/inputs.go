package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mpl/internal/core"
	"mpl/internal/geom"
	"mpl/internal/layout"
	"mpl/internal/synth"
)

// Every input the benchmark feeds the program is derived from the
// workload seed here; the program itself never sees the seed.

// mixSeed derives an independent generator seed for item i of a
// workload seed (splitmix64 finalizer), so neighboring seeds and items
// share no generator state.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	// synth treats seed 0 as the committed baseline; keep variants apart.
	return int64(z>>1) | 1
}

// libInput is one library call of a closed-loop workload.
type libInput struct {
	Name   string
	K      int
	Layout *layout.Layout
}

const (
	fullchipBase     = "S38417"
	fullchipFeatures = 128_000
	fullchipVariants = 4
)

// fullchipInputs is the fixed cycle of seeded S38417 variants, each scaled
// to about fullchipFeatures features with the calibration cmd/benchgen
// -series uses: generate the variant at scale 1, then scale linearly.
func fullchipInputs(seed int64) ([]libInput, error) {
	spec, ok := synth.ByName(fullchipBase)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %s", fullchipBase)
	}
	out := make([]libInput, 0, fullchipVariants)
	for i := 0; i < fullchipVariants; i++ {
		vs := mixSeed(seed, i)
		nominal := synth.GenerateSeeded(spec, 1, vs)
		if len(nominal.Features) == 0 {
			return nil, fmt.Errorf("%s variant %d has no features", fullchipBase, i)
		}
		scale := float64(fullchipFeatures) / float64(len(nominal.Features))
		l := synth.GenerateSeeded(spec, scale, vs)
		out = append(out, libInput{Name: fmt.Sprintf("%s_128k#%d", fullchipBase, i), K: 4, Layout: l})
	}
	return out, nil
}

// serveCircuits is the cycle of circuits fresh serve requests are variants
// of. C5315 appears twice so that the median and the 90th percentile of
// fresh decompose latency fall inside one circuit's mode (C5315 and C7552)
// instead of on the edge between two.
var serveCircuits = []string{"C1908", "C5315", "C3540", "C5315", "C7552"}

// serveLayout is fresh serve layout i: a seeded variant of one of
// serveCircuits. Negative i are the warm-up layouts decomposed during
// set-up, which stand in for layouts an earlier client already served.
func serveLayout(seed int64, i int) *layout.Layout {
	name := serveCircuits[(i%len(serveCircuits)+len(serveCircuits))%len(serveCircuits)]
	spec, _ := synth.ByName(name)
	l := synth.GenerateSeeded(spec, 1, mixSeed(seed, 1_000_000+i))
	l.Name = fmt.Sprintf("%s#%d", name, i)
	return l
}

// reqKind is the class of one serve request.
type reqKind int

const (
	kindFresh reqKind = iota // decompose of a layout never sent before
	kindHit                  // repeat decompose of a layout already served
	kindEdit                 // incremental edit batch on a live session
)

func (k reqKind) String() string {
	return [...]string{"decompose", "hit", "edit"}[k]
}

// groupKinds is the serve mix, one group of six requests: one fresh
// decompose, two repeats and three edit batches, interleaved.
var groupKinds = [...]reqKind{kindFresh, kindEdit, kindHit, kindEdit, kindHit, kindEdit}

// warmLayouts is the number of warm-up layouts decomposed during set-up:
// two of each circuit in the cycle, so set-up is long enough that process
// start does not dominate its variance.
const warmLayouts = 10

// slot is one scheduled serve request.
type slot struct {
	Idx   int
	Group int
	Kind  reqKind
	Due   time.Duration // offset from the start of the window
	// Ref is the fresh layout index of a fresh request, or the served
	// layout a repeat re-sends (negative: a warm-up layout).
	Ref int
}

// schedule lays out the open-loop window: requests every 1/rate seconds,
// in whole groups, for at least the given length and at least minGroups
// groups (so every reported percentile has its samples).
func schedule(rate, seconds float64, minGroups int) []slot {
	groups := int(math.Ceil(rate * seconds / float64(len(groupKinds))))
	if groups < minGroups {
		groups = minGroups
	}
	gap := time.Duration(float64(time.Second) / rate)
	out := make([]slot, 0, groups*len(groupKinds))
	for g := 0; g < groups; g++ {
		hit := 0
		for _, k := range groupKinds {
			s := slot{Idx: len(out), Group: g, Kind: k, Due: time.Duration(len(out)) * gap}
			switch k {
			case kindFresh:
				s.Ref = g
			case kindHit:
				// The two most recent earlier fresh layouts; warm-up
				// layouts (negative refs) stand in before there are any.
				hit++
				s.Ref = g - hit
			}
			out = append(out, s)
		}
	}
	return out
}

// editBatch generates one ECO batch of 1–3 operations on l, the op shape
// cmd/evaluate -edits replays: nudge a feature by up to three site
// pitches, drop one, or add a contact inside the die.
func editBatch(rng *rand.Rand, l *layout.Layout) []core.Edit {
	b := l.Bounds()
	w, h := b.Width(), b.Height()
	if w < 100 {
		w = 100
	}
	if h < 100 {
		h = 100
	}
	cnt := len(l.Features)
	n := 1 + rng.Intn(3)
	var edits []core.Edit
	for i := 0; i < n; i++ {
		op := rng.Intn(3)
		if cnt <= 1 {
			op = 0
		}
		switch op {
		case 0:
			x, y := b.X0+rng.Intn(w), b.Y0+rng.Intn(h)
			edits = append(edits, core.Edit{Op: core.EditAdd, Shape: geom.NewPolygon(geom.Rect{X0: x, Y0: y, X1: x + 20, Y1: y + 20})})
			cnt++
		case 1:
			edits = append(edits, core.Edit{Op: core.EditRemove, Feature: rng.Intn(cnt)})
			cnt--
		default:
			edits = append(edits, core.Edit{
				Op: core.EditMove, Feature: rng.Intn(cnt),
				DX: (rng.Intn(7) - 3) * 20, DY: (rng.Intn(7) - 3) * 20,
			})
		}
	}
	return edits
}
