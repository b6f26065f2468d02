package experiments

// The heavy-load scale study: the regime the compact bin stores and the
// superstep round engine exist for. ScalingGrid and HeavyGrid (see
// experiments.go) walk parameter grids at moderate n; HeavyScale pushes one
// (k, d) shape to production-scale bin counts with m = Mult·n balls,
// running every cell on the compact store with streaming per-run
// aggregation, so memory stays ~2 bytes/bin + O(runs) regardless of how
// many runs a cell repeats. n = 10⁷ runs in the default configuration; at
// 10⁸ bins the compact store needs ~200 MB for the load state (the dense
// reference would need 800 MB), which fits commodity hardware — see README
// "Scaling limits & memory".

import (
	"fmt"

	kdchoice "repro"
	"repro/internal/theory"
)

// HeavyScaleOpts configures the heavy-load scale study.
type HeavyScaleOpts struct {
	// K, D are the round shape (default 2, 64 — the repository's tracked
	// acceptance shape; d >= 2k keeps Theorem 2 applicable).
	K, D int
	// Ns are the bin counts (default 1e5, 1e6, 1e7).
	Ns []int
	// Mult is the heavy-load multiplier: each run places Mult·n balls
	// (default 100).
	Mult int
	// Runs is the number of independent runs per cell (default 3).
	Runs int
	// Seed is the root seed.
	Seed uint64
	// Store selects the bin-load representation; nil means the study
	// default, StoreCompact. A pointer distinguishes "unset" from an
	// explicit StoreDense (the zero Store value), so the dense baseline
	// is selectable too.
	Store *kdchoice.Store
	// Workers bounds the shared pool; 0 means GOMAXPROCS.
	Workers int
}

func (o HeavyScaleOpts) withDefaults() HeavyScaleOpts {
	if o.K == 0 {
		o.K = 2
	}
	if o.D == 0 {
		o.D = 64
	}
	if len(o.Ns) == 0 {
		o.Ns = []int{100_000, 1_000_000, 10_000_000}
	}
	if o.Mult == 0 {
		o.Mult = 100
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Store == nil {
		def := kdchoice.StoreCompact
		o.Store = &def
	}
	return o
}

// HeavyScalePoint is one heavy-load scale measurement.
type HeavyScalePoint struct {
	N       int
	Balls   int
	MeanGap float64
	MeanMax float64
	// AboveAvg is the run-averaged number of bins loaded strictly above
	// the average m/n — ν_{m/n+1}, computed from the streamed occupancy
	// profile (CollectProfiles), so no run ever retains its O(n) load
	// vector.
	AboveAvg float64
	// GapUpper is the Theorem 2 upper leading term (m-independent), the
	// bound the measured gap must stay under as n grows.
	GapUpper float64
}

// HeavyScale runs the heavy-load scale study: Mult·n balls into n bins for
// every n, on the selected store, streaming per-run aggregation (no O(n)
// retention per finished run). The gap (max − m/n) is the Theorem 2
// quantity; the study shows it stays bounded by the m-independent leading
// term as n scales up.
func HeavyScale(opts HeavyScaleOpts) ([]HeavyScalePoint, error) {
	o := opts.withDefaults()
	cells := make([]kdchoice.Cell, len(o.Ns))
	for i, n := range o.Ns {
		cells[i] = kdchoice.Cell{
			Config: kdchoice.Config{
				Bins:  n,
				K:     o.K,
				D:     o.D,
				Store: *o.Store,
				Seed:  o.Seed + uint64(i)*1e6,
			},
			Balls: o.Mult * n,
		}
	}
	rep, err := kdchoice.Experiment{
		Cells:   cells,
		Runs:    o.Runs,
		Seed:    o.Seed,
		Workers: o.Workers,
		// Streamed aggregation: each run folds its sorted/occupancy
		// profile into integer accumulators and drops its load vector, so
		// the study's memory stays ~one store per in-flight run.
		CollectProfiles: true,
	}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: heavy scale: %w", err)
	}
	out := make([]HeavyScalePoint, len(o.Ns))
	for i, n := range o.Ns {
		nu, err := rep.Cells[i].MeanNuY()
		if err != nil {
			return nil, fmt.Errorf("experiments: heavy scale: %w", err)
		}
		aboveAvg := 0.0
		if y := o.Mult + 1; y < len(nu) {
			aboveAvg = nu[y]
		}
		out[i] = HeavyScalePoint{
			N:        n,
			Balls:    o.Mult * n,
			MeanGap:  rep.Cells[i].MeanGap,
			MeanMax:  rep.Cells[i].MeanMax,
			AboveAvg: aboveAvg,
			GapUpper: theory.HeavyGapUpper(o.K, o.D, n),
		}
	}
	return out, nil
}
