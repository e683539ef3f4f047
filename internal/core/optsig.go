package core

import (
	"strconv"
	"strings"

	"mpl/internal/coloring"
)

// OptionsSig is the canonical encoding of every solve-affecting option of o,
// normalized first so defaulted spellings encode identically. Two option
// sets with equal signatures produce the same result. The encoding is
// persistent: the service keys its result cache and durable session store
// by it, so its bytes must not change for an existing field.
//
// Every field is written through a value-typed formatter (ints, floats,
// bools), never through reflection or %#v — a %#v of a struct that later
// gains a pointer, func or map field silently turns keys address-dependent
// (wrong hits across restarts, permanent misses within one process). The
// price of being explicit is that new Options fields must be added here
// consciously; the service's TestOptionsKeyCoversEveryField fails until
// they are either encoded or recorded as deliberately key-neutral.
func OptionsSig(o Options) string {
	var e sigEnc
	e.options(o.withDefaults())
	return e.b.String()
}

// BuildSig encodes every graph-affecting BuildOptions field. Workers is
// deliberately omitted: the parallel build produces an identical graph at
// any worker count.
func BuildSig(b BuildOptions) string {
	var e sigEnc
	e.build(b)
	return e.b.String()
}

// sigEnc builds an explicit |name=value list, one entry per field.
type sigEnc struct{ b strings.Builder }

func (e *sigEnc) int(name string, v int)     { e.str(name, strconv.Itoa(v)) }
func (e *sigEnc) int64(name string, v int64) { e.str(name, strconv.FormatInt(v, 10)) }
func (e *sigEnc) bool(name string, v bool)   { e.str(name, strconv.FormatBool(v)) }
func (e *sigEnc) float(name string, v float64) {
	e.str(name, strconv.FormatFloat(v, 'g', -1, 64))
}
func (e *sigEnc) str(name, v string) {
	e.b.WriteByte('|')
	e.b.WriteString(name)
	e.b.WriteByte('=')
	e.b.WriteString(v)
}

func (e *sigEnc) build(b BuildOptions) {
	e.int("b.mins", b.MinS)
	e.int("b.k", b.K)
	e.bool("b.nostitch", b.DisableStitches)
	e.int("b.minseg", b.StitchMinSeg)
	e.int("b.maxstitch", b.MaxStitchesPerFeature)
}

// options writes every key-participating field of an already-normalized
// o. The Division and Build worker counts are key-neutral (deterministic
// results at any worker count) and are omitted.
func (e *sigEnc) options(o Options) {
	e.int("k", o.K)
	e.int("alg", int(o.Algorithm))
	e.str("engine", o.Engine)
	e.int("pf.ilpn", o.Portfolio.ILPMaxN)
	e.int("pf.ilpm", o.Portfolio.ILPMaxM)
	e.int("pf.btn", o.Portfolio.BacktrackMaxN)
	e.int("pf.grn", o.Portfolio.GreedyMaxN)
	e.int64("race", int64(o.RaceBudget))
	e.float("alpha", o.Alpha)
	e.float("tth", o.Threshold)
	e.int64("seed", o.Seed)
	e.int64("ilpbudget", int64(o.ILPTimeLimit))
	e.int64("btnodes", o.BacktrackNodeLimit)
	e.int("sdprestarts", o.SDPRestarts)
	e.int("sdpmaxiter", o.SDPMaxIter)
	e.bool("memo", o.Memoize)
	e.build(o.Build)
	e.int("d.k", o.Division.K)
	e.float("d.alpha", o.Division.Alpha)
	e.bool("d.nopeel", o.Division.DisablePeeling)
	e.bool("d.nobicon", o.Division.DisableBiconnected)
	e.bool("d.noght", o.Division.DisableGHTree)
	e.int("d.ghmaxn", o.Division.GHTreeMaxN)
	e.int("d.maxstitchdeg", o.Division.MaxStitchDegree)
	e.linear("d.lin.", o.Division.Linear)
	e.linear("lin.", o.Linear)
}

func (e *sigEnc) linear(prefix string, lo coloring.LinearOptions) {
	e.int(prefix+"k", lo.K)
	e.float(prefix+"alpha", lo.Alpha)
	e.bool(prefix+"nofriend", lo.DisableColorFriendly)
	e.float(prefix+"fw", lo.FriendWeight)
	e.int(prefix+"maxstitchdeg", lo.MaxStitchDegree)
	e.int(prefix+"order", int(lo.Order))
}
