package experiments

// The approximate-store frontier: what does shrinking the per-bin load
// state below one byte cost in allocation quality? The exact stores
// (compact 2 B/bin, nibble ~0.5 B/bin) are bit-identical to the dense
// reference, so their rows differ only in measured memory; the count-min
// sketch store drops below 0.5 B/bin by giving up exactness, and its
// one-sided load overestimates inflate the achieved max load. ApproxFrontier
// measures all three side by side — bytes per bin as actually allocated
// (including any overflow-escape surcharge) against mean max load and mean
// gap — at the same (k,d) shape the heavy-load scale study tracks.

import (
	"fmt"

	kdchoice "repro"
)

// ApproxFrontierOpts configures the approximate-store frontier study.
type ApproxFrontierOpts struct {
	// K, D are the round shape (default 2, 64, matching HeavyScale).
	K, D int
	// Ns are the bin counts (default 1e5, 1e6).
	Ns []int
	// Mult is the load multiplier: each run places Mult·n balls (default
	// 1, the canonical n-balls case). Unlike HeavyScale's default 100,
	// light load keeps the sketch's 8-bit saturating counters in their
	// useful range at the sub-half-byte default geometry.
	Mult int
	// Runs is the number of independent runs per (n, store) cell
	// (default 3).
	Runs int
	// Seed is the root seed.
	Seed uint64
	// Stores are the representations to compare (default compact, nibble,
	// sketch). The first entry is the baseline the MaxInflation column is
	// measured against.
	Stores []kdchoice.Store
	// SketchWidth, SketchDepth configure the sketch geometry (0 = the
	// store defaults: n/8 counters per row, 2 rows).
	SketchWidth, SketchDepth int
}

func (o ApproxFrontierOpts) withDefaults() ApproxFrontierOpts {
	if o.K == 0 {
		o.K = 2
	}
	if o.D == 0 {
		o.D = 64
	}
	if len(o.Ns) == 0 {
		o.Ns = []int{100_000, 1_000_000}
	}
	if o.Mult == 0 {
		o.Mult = 1
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if len(o.Stores) == 0 {
		o.Stores = []kdchoice.Store{kdchoice.StoreCompact, kdchoice.StoreNibble, kdchoice.StoreSketch}
	}
	return o
}

// ApproxFrontierPoint is one (n, store) cell of the frontier.
type ApproxFrontierPoint struct {
	N     int
	Store kdchoice.Store
	Balls int
	// BytesPerBin is the measured per-bin memory cost, averaged over runs
	// and including the escape-table surcharge of the sub-byte stores.
	BytesPerBin float64
	MeanMax     float64
	MeanGap     float64
	// MaxInflation is MeanMax minus the baseline store's MeanMax at the
	// same n and seeds: 0 for every exact store (they are bit-identical),
	// positive for the sketch when collisions distort its decisions.
	MaxInflation float64
}

// ApproxFrontier runs the error-vs-gap-vs-bytes frontier: for every n and
// every store, Runs independent allocations of Mult·n balls with identical
// seeds across stores, reporting measured bytes per bin next to the
// achieved max load and gap. Runs execute serially — the study exists to
// measure per-store memory, so only one allocator's store is live at a
// time.
func ApproxFrontier(opts ApproxFrontierOpts) ([]ApproxFrontierPoint, error) {
	o := opts.withDefaults()
	out := make([]ApproxFrontierPoint, 0, len(o.Ns)*len(o.Stores))
	for i, n := range o.Ns {
		baseMax := 0.0
		for si, store := range o.Stores {
			var sumMax, sumGap, sumBpb float64
			for r := 0; r < o.Runs; r++ {
				a, err := kdchoice.New(kdchoice.Config{
					Bins: n, K: o.K, D: o.D,
					Store:       store,
					SketchWidth: o.SketchWidth,
					SketchDepth: o.SketchDepth,
					// Same per-(n, run) seed for every store, so the exact
					// stores run literally the same allocation and the
					// sketch's divergence is attributable to the sketch.
					Seed: o.Seed + uint64(i)*1e6 + uint64(r),
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: approx frontier: %w", err)
				}
				if err := a.Place(o.Mult * n); err != nil {
					a.Close()
					return nil, fmt.Errorf("experiments: approx frontier: %w", err)
				}
				sumMax += float64(a.MaxLoad())
				sumGap += a.Gap()
				sumBpb += a.BytesPerBin()
				a.Close()
			}
			runs := float64(o.Runs)
			pt := ApproxFrontierPoint{
				N:           n,
				Store:       store,
				Balls:       o.Mult * n,
				BytesPerBin: sumBpb / runs,
				MeanMax:     sumMax / runs,
				MeanGap:     sumGap / runs,
			}
			if si == 0 {
				baseMax = pt.MeanMax
			}
			pt.MaxInflation = pt.MeanMax - baseMax
			out = append(out, pt)
		}
	}
	return out, nil
}
