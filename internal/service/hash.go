package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"mpl/internal/core"
	"mpl/internal/layout"
)

// LayoutHash returns a hex digest identifying the layout geometry: the
// process parameters and every feature's rectangles, in order. The layout
// name is deliberately excluded — it never influences a decomposition — so
// renamed copies of one layout share cache entries. Feature and rectangle
// order are preserved: reordering changes fragment indexing (and hence the
// Colors slice), so order-insensitive hashing would alias distinct results.
func LayoutHash(l *layout.Layout) string {
	h := sha256.New()
	var buf [16]byte
	put := func(vals ...int) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:8], uint64(int64(v)))
			h.Write(buf[:8])
		}
	}
	put(l.Process.MinWidth, l.Process.MinSpace, l.Process.HalfPitch)
	put(len(l.Features))
	for _, f := range l.Features {
		put(len(f.Rects))
		for _, r := range f.Rects {
			put(r.X0, r.Y0, r.X1, r.Y1)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// optionsSig is core.OptionsSig, the canonical encoding of every
// solve-affecting option — the options half of a resultKey, and the
// signature the durable session store (internal/store) keys sessions under. Two requests with the same
// signature are solve-equivalent: core.ApplyEdits accepts a persisted
// result recorded under one as the base for the other, because the only
// fields the signature omits are the result-neutral worker counts, which
// ApplyEdits also ignores.
func optionsSig(opts core.Options) string { return core.OptionsSig(opts) }

// OptionsSig exposes the durable session signature to other writers of the
// session store (cmd/evaluate's durable replay): records they file under
// OptionsSig(opts) are the ones a Service configured with the same store
// will find.
func OptionsSig(opts core.Options) string { return optionsSig(opts) }

// resultKey keys the result cache: layout geometry plus every solve-affecting
// option. Options are normalized first so default spellings ({} vs {K: 4})
// share an entry, and the Division and Build worker counts never participate
// because worker count never changes the (deterministic) result, only how
// fast it arrives.
func resultKey(layoutHash string, opts core.Options) string {
	return layoutHash + optionsSig(opts)
}

// graphKey keys the decomposition-graph cache: layout geometry plus the
// graph-construction options only, so algorithm sweeps over one layout
// (cmd/evaluate's tables) build each graph once.
func graphKey(layoutHash string, build core.BuildOptions) string {
	return layoutHash + "|g" + core.BuildSig(build)
}
