package kdchoice

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// Cell is one experiment cell: a process configuration plus optional
// per-cell overrides of the experiment-wide ball and run counts.
type Cell struct {
	// Config describes the process. If Config.Seed is non-zero it becomes
	// the cell's seed; otherwise the cell draws a deterministic seed from
	// the experiment's root seed and the cell's position.
	Config Config
	// Balls overrides Experiment.Balls for this cell (0 = inherit).
	Balls int
	// Runs overrides Experiment.Runs for this cell (0 = inherit).
	Runs int
	// Label is an optional display name carried into the Report.
	Label string
}

// label returns the cell's display name, deriving one from the
// configuration when none was set.
func (c Cell) label() string {
	if c.Label != "" {
		return c.Label
	}
	cfg := c.Config.withDefaults()
	switch cfg.Policy {
	case KDChoice, Serialized, AdaptiveKD, StaleBatch:
		return fmt.Sprintf("%s(%d,%d) n=%d", cfg.Policy, cfg.K, cfg.D, cfg.Bins)
	case DChoice, AlwaysGoLeft, DynamicKD, ThresholdChoice, CoarseDChoice:
		return fmt.Sprintf("%s(d=%d) n=%d", cfg.Policy, cfg.D, cfg.Bins)
	default:
		return fmt.Sprintf("%s n=%d", cfg.Policy, cfg.Bins)
	}
}

// Experiment runs a set of cells — each repeated Runs times — on one shared
// bounded worker pool. All (cell, run) pairs are scheduled together, so a
// sweep of many cells with few runs each parallelizes as well as one cell
// with many runs.
//
// Determinism: run r of cell i draws from the random stream (seedᵢ, r),
// where seedᵢ is the cell's Config.Seed when non-zero and otherwise is
// derived from (Seed, i). The Report is therefore a pure function of the
// Experiment value — identical for any Workers setting.
type Experiment struct {
	// Cells lists the cells to run (at least one).
	Cells []Cell
	// Balls is the default per-run ball count; 0 means each cell's Bins
	// (the paper's canonical n-into-n experiment).
	Balls int
	// Runs is the default number of independent runs per cell; 0 means 1.
	Runs int
	// Seed is the root seed from which cells without an explicit
	// Config.Seed derive their seeds.
	Seed uint64
	// Workers bounds the shared pool; 0 means GOMAXPROCS.
	Workers int
	// CollectLoads retains each run's final load vector (memory:
	// cells × runs × N ints), enabling the Report's profile accessors and
	// RunLoads.
	CollectLoads bool
	// CollectProfiles streams each finished run's sorted-load profile and
	// occupancy counts into per-cell integer accumulators instead of
	// retaining the vectors: memory stays O(N) per cell regardless of the
	// run count, and the profile accessors still work. The aggregation
	// order cannot affect integer sums, so reports remain identical for any
	// Workers setting. Use this (not CollectLoads) on giant heavy-load
	// grids.
	CollectProfiles bool
}

// cellSeed derives the seed of cell i: an explicit (non-zero) cell seed
// wins, otherwise the root seed is mixed with the cell index (cell 0 keeps
// the root seed itself, which makes a one-cell Experiment bit-compatible
// with the classic Simulate seed derivation). Experiment and Study share
// this derivation so core and application grids stream seeds identically.
func cellSeed(root uint64, i int, explicit uint64) uint64 {
	if explicit != 0 {
		return explicit
	}
	return root ^ (uint64(i) * 0x9E3779B97F4A7C15)
}

// Run executes the experiment and aggregates per-cell results into a
// Report. Every cell is validated before any work starts; an invalid cell
// fails the whole experiment with an error naming it.
func (e Experiment) Run() (*Report, error) {
	if len(e.Cells) == 0 {
		return nil, fmt.Errorf("kdchoice: Experiment needs at least one cell")
	}
	if e.Balls < 0 {
		return nil, fmt.Errorf("kdchoice: Experiment.Balls = %d, must be non-negative", e.Balls)
	}
	if e.Runs < 0 {
		return nil, fmt.Errorf("kdchoice: Experiment.Runs = %d, must be non-negative", e.Runs)
	}
	cfgs := make([]sim.Config, len(e.Cells))
	for i, c := range e.Cells {
		cfg := c.Config.withDefaults()
		cp, params, err := cfg.coreConfig()
		if err == nil {
			err = core.Validate(cp, params)
		}
		if err != nil {
			return nil, fmt.Errorf("kdchoice: cell %d (%s): %w", i, c.label(), err)
		}
		balls := c.Balls
		if balls == 0 {
			balls = e.Balls
		}
		if balls < 0 {
			return nil, fmt.Errorf("kdchoice: cell %d (%s): Balls = %d, must be non-negative", i, c.label(), balls)
		}
		runs := c.Runs
		if runs == 0 {
			runs = e.Runs
		}
		if runs < 0 {
			return nil, fmt.Errorf("kdchoice: cell %d (%s): Runs = %d, must be non-negative", i, c.label(), runs)
		}
		if runs == 0 {
			runs = 1
		}
		cfgs[i] = sim.Config{
			Policy:          cp,
			Params:          params,
			Balls:           balls,
			Runs:            runs,
			Seed:            cellSeed(e.Seed, i, cfg.Seed),
			CollectLoads:    e.CollectLoads,
			CollectProfiles: e.CollectProfiles,
		}
	}
	results, err := sim.RunAll(e.Workers, cfgs)
	if err != nil {
		return nil, fmt.Errorf("kdchoice: %w", err)
	}
	rep := &Report{Cells: make([]CellResult, len(results))}
	for i, res := range results {
		rep.Cells[i] = CellResult{
			Index:     i,
			Cell:      e.Cells[i],
			SimResult: newSimResult(res),
		}
	}
	return rep, nil
}

// Sweep builds the cells of a grid experiment: the cross product of bin
// counts, K values, D values, and policies, sharing the remaining
// configuration from Base. It is the programmatic form of the paper's
// tables and figures, which all walk a (k, d) grid.
type Sweep struct {
	// N lists the bin counts; empty means {Base.Bins}.
	N []int
	// K lists the per-round ball counts; empty means {Base.K}.
	K []int
	// D lists the per-round probe counts; empty means {Base.D}.
	D []int
	// Policies lists the processes to sweep; empty means {Base.Policy}
	// (KDChoice when that is unset too).
	Policies []Policy
	// Base supplies every Config field the grid does not vary (Beta,
	// Sigma, Store, Seed, ...). Bins/K/D/Policy are overwritten per cell.
	Base Config
	// Balls, Runs, Seed, Workers, CollectLoads and CollectProfiles
	// configure the Experiment built by Run, exactly as the Experiment
	// fields of the same names.
	Balls           int
	Runs            int
	Seed            uint64
	Workers         int
	CollectLoads    bool
	CollectProfiles bool
	// SkipInvalid drops grid points the process rejects (k >= d, d > n,
	// ...) instead of failing. This is how the paper's triangular Table 1
	// grid is expressed: sweep the full rectangle, keep the valid cells.
	SkipInvalid bool
}

// Cells materializes the grid in row-major order (N outermost, then
// Policies, then K, then D). With SkipInvalid set, invalid grid points are
// dropped; otherwise the first invalid point fails with an error naming it.
func (s Sweep) Cells() ([]Cell, error) {
	ns := s.N
	if len(ns) == 0 {
		if s.Base.Bins <= 0 {
			return nil, fmt.Errorf("kdchoice: Sweep needs N values (or Base.Bins)")
		}
		ns = []int{s.Base.Bins}
	}
	ks := s.K
	if len(ks) == 0 {
		ks = []int{s.Base.K}
	}
	ds := s.D
	if len(ds) == 0 {
		ds = []int{s.Base.D}
	}
	policies := s.Policies
	if len(policies) == 0 {
		p := s.Base.Policy
		if p == 0 {
			p = KDChoice
		}
		policies = []Policy{p}
	}
	cells := make([]Cell, 0, len(ns)*len(policies)*len(ks)*len(ds))
	for _, n := range ns {
		for _, pol := range policies {
			for _, k := range ks {
				for _, d := range ds {
					cfg := s.Base
					cfg.Bins, cfg.K, cfg.D, cfg.Policy = n, k, d, pol
					if err := cfg.validate(); err != nil {
						if s.SkipInvalid {
							continue
						}
						return nil, fmt.Errorf("kdchoice: sweep cell (n=%d, policy=%s, k=%d, d=%d): %w", n, pol, k, d, err)
					}
					cells = append(cells, Cell{Config: cfg})
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("kdchoice: sweep produced no valid cells")
	}
	return cells, nil
}

// Run materializes the grid and executes it as one Experiment on the shared
// pool.
func (s Sweep) Run() (*Report, error) {
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	return Experiment{
		Cells:           cells,
		Balls:           s.Balls,
		Runs:            s.Runs,
		Seed:            s.Seed,
		Workers:         s.Workers,
		CollectLoads:    s.CollectLoads,
		CollectProfiles: s.CollectProfiles,
	}.Run()
}

// CellResult is the outcome of one experiment cell: the cell description
// plus the aggregated SimResult of its runs.
type CellResult struct {
	// Index is the cell's position in Experiment.Cells.
	Index int
	// Cell is the cell as submitted.
	Cell Cell
	// SimResult aggregates the cell's runs.
	SimResult
}

// Label returns the cell's display name.
func (c *CellResult) Label() string { return c.Cell.label() }

// Report carries the results of an Experiment: one CellResult per cell, in
// cell order, plus cross-cell summaries.
type Report struct {
	Cells []CellResult
}

// Find returns the first cell result whose configuration matches (policy,
// bins, k, d), or nil.
func (r *Report) Find(policy Policy, bins, k, d int) *CellResult {
	for i := range r.Cells {
		cfg := r.Cells[i].Cell.Config.withDefaults()
		if cfg.Policy == policy && cfg.Bins == bins && cfg.K == k && cfg.D == d {
			return &r.Cells[i]
		}
	}
	return nil
}

// TradeoffPoint places one cell on the paper's headline plane: maximum load
// versus message cost.
type TradeoffPoint struct {
	// Label names the cell.
	Label string
	// Policy, Bins, K, D identify the configuration.
	Policy Policy
	Bins   int
	K, D   int
	// Balls is the per-run ball count of the cell.
	Balls int
	// MeanMaxLoad is the mean over runs of the maximum bin load.
	MeanMaxLoad float64
	// MeanMessages is the mean over runs of the total message cost.
	MeanMessages float64
	// MessagesPerBall is MeanMessages normalized by the ball count — the
	// paper's amortized cost measure.
	MessagesPerBall float64
}

// TradeoffCurve summarizes every cell on the max-load/message-cost plane,
// sorted by ascending message cost per ball (ties by mean max load). This
// is the cross-cell view of the paper's Theorem 1 tradeoff: scanning the
// curve shows what load each additional probe buys.
func (r *Report) TradeoffCurve() []TradeoffPoint {
	pts := make([]TradeoffPoint, 0, len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		cfg := c.Cell.Config.withDefaults()
		balls := c.EffectiveBalls
		pt := TradeoffPoint{
			Label:        c.Label(),
			Policy:       cfg.Policy,
			Bins:         cfg.Bins,
			K:            cfg.K,
			D:            cfg.D,
			Balls:        balls,
			MeanMaxLoad:  c.MeanMax,
			MeanMessages: c.MeanMessages,
		}
		if balls > 0 {
			pt.MessagesPerBall = c.MeanMessages / float64(balls)
		}
		pts = append(pts, pt)
	}
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].MessagesPerBall != pts[j].MessagesPerBall {
			return pts[i].MessagesPerBall < pts[j].MessagesPerBall
		}
		return pts[i].MeanMaxLoad < pts[j].MeanMaxLoad
	})
	return pts
}
