// Package experiments implements every experiment of the reproduction —
// Table 1, the Figure 1/2 load-vector profiles, the per-theorem scaling
// studies, the tradeoff frontier, the Section 1.3 application comparisons
// and the Section 7 ablation — as reusable functions shared by
// cmd/experiments (whose quick report is checked in as EXPERIMENTS.md),
// the root package's benchmarks and the examples.
//
// The simulation experiments are built entirely on the public kdchoice
// Experiment API: each study assembles its grid of cells once and runs
// every (cell, run) pair on one shared worker pool. Only the
// proof-machinery checks in analysis.go reach below the public surface
// (they drive the core engine round by round).
//
// Every function is deterministic given its seed.
package experiments

import (
	"fmt"
	"math"

	kdchoice "repro"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/theory"
)

// PaperN is the bin/ball count used throughout the paper's Table 1:
// n = 3·2^16 = 196608.
const PaperN = 3 * (1 << 16)

// table1Ks lists the k values of the paper's Table 1 rows.
var table1Ks = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192}

// table1Ds lists the d values of the paper's Table 1 columns.
var table1Ds = []int{1, 2, 3, 5, 9, 17, 25, 49, 65, 193}

// Table1Opts configures the Table 1 reproduction.
type Table1Opts struct {
	// N is the bin/ball count (default PaperN).
	N int
	// Runs is the repetition count per cell (default 10, as in the paper).
	Runs int
	// Seed is the root seed.
	Seed uint64
}

// Table1Cell is one reproduced cell.
type Table1Cell struct {
	K, D        int
	DistinctMax []int
}

// table1Seed derives the historical per-cell seed: every cell's random
// stream is a pure function of (root seed, k, d), so adding or removing
// grid rows never reshuffles the other cells.
func table1Seed(seed uint64, k, d int) uint64 {
	return seed ^ (uint64(k)<<32 | uint64(d))
}

// Table1 reproduces the paper's Table 1: for every (k, d) cell of the grid
// with k < d (plus the single-choice cell k = d = 1), the distinct maximum
// loads over the configured number of runs. The triangular grid is built by
// a public Sweep over the full k × d rectangle with the invalid cells
// dropped, and all cells × runs execute together on one shared worker pool.
// Cells are returned in row-major order.
func Table1(opts Table1Opts) ([]Table1Cell, error) {
	n := opts.N
	if n == 0 {
		n = PaperN
	}
	runs := opts.Runs
	if runs == 0 {
		runs = 10
	}
	type gridKey struct{ k, d int }
	var cells []kdchoice.Cell
	var keys []gridKey

	// The k = d = 1 corner is the paper's single-choice cell; the sweep
	// proper covers the k < d triangle.
	if n >= 1 {
		cells = append(cells, kdchoice.Cell{
			Config: kdchoice.Config{Bins: n, Policy: kdchoice.SingleChoice, Seed: table1Seed(opts.Seed, 1, 1)},
			Label:  "single-choice",
		})
		keys = append(keys, gridKey{1, 1})
	}
	grid, err := kdchoice.Sweep{
		N:           []int{n},
		K:           table1Ks,
		D:           table1Ds,
		SkipInvalid: true, // drops k >= d and d > n, the blank cells
	}.Cells()
	if err != nil {
		return nil, fmt.Errorf("experiments: table1 grid: %w", err)
	}
	for _, c := range grid {
		k, d := c.Config.K, c.Config.D
		c.Config.Seed = table1Seed(opts.Seed, k, d)
		cells = append(cells, c)
		keys = append(keys, gridKey{k, d})
	}

	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: opts.Seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: table1: %w", err)
	}
	out := make([]Table1Cell, len(rep.Cells))
	for i := range rep.Cells {
		out[i] = Table1Cell{K: keys[i].k, D: keys[i].d, DistinctMax: rep.Cells[i].DistinctMax}
	}
	return out, nil
}

// Table1Render renders cells in the paper's layout (k rows, d columns,
// "-" for empty cells).
func Table1Render(cells []Table1Cell) *table.Table {
	byKey := make(map[[2]int][]int, len(cells))
	for _, c := range cells {
		byKey[[2]int{c.K, c.D}] = c.DistinctMax
	}
	header := make([]string, 0, len(table1Ds)+1)
	header = append(header, "k\\d")
	for _, d := range table1Ds {
		header = append(header, fmt.Sprintf("d=%d", d))
	}
	t := table.New(header...)
	for _, k := range table1Ks {
		row := make([]string, 0, len(table1Ds)+1)
		row = append(row, fmt.Sprintf("k=%d", k))
		for _, d := range table1Ds {
			row = append(row, table.IntsCell(byKey[[2]int{k, d}]))
		}
		t.AddRow(row...)
	}
	return t
}

// PaperTable1 returns the values published in the paper's Table 1 keyed by
// (k, d) — used by EXPERIMENTS.md and the comparison tests. Cells the paper
// leaves blank are absent.
func PaperTable1() map[[2]int][]int {
	return map[[2]int][]int{
		{1, 1}: {7, 8, 9}, {1, 2}: {3, 4}, {1, 3}: {3}, {1, 5}: {2}, {1, 9}: {2},
		{1, 17}: {2}, {1, 25}: {2}, {1, 49}: {2}, {1, 65}: {2}, {1, 193}: {2},
		{2, 3}: {4}, {2, 5}: {3}, {2, 9}: {2}, {2, 17}: {2}, {2, 25}: {2},
		{2, 49}: {2}, {2, 65}: {2}, {2, 193}: {2},
		{3, 5}: {3}, {3, 9}: {2}, {3, 17}: {2}, {3, 25}: {2}, {3, 49}: {2},
		{3, 65}: {2}, {3, 193}: {2},
		{4, 5}: {4}, {4, 9}: {3}, {4, 17}: {2}, {4, 25}: {2}, {4, 49}: {2},
		{4, 65}: {2}, {4, 193}: {2},
		{6, 9}: {3}, {6, 17}: {2}, {6, 25}: {2}, {6, 49}: {2}, {6, 65}: {2},
		{6, 193}: {2},
		{8, 9}:   {4}, {8, 17}: {2, 3}, {8, 25}: {2}, {8, 49}: {2}, {8, 65}: {2},
		{8, 193}: {2},
		{12, 17}: {3}, {12, 25}: {2}, {12, 49}: {2}, {12, 65}: {2}, {12, 193}: {2},
		{16, 17}: {4, 5}, {16, 25}: {3}, {16, 49}: {2}, {16, 65}: {2}, {16, 193}: {2},
		{24, 25}: {5}, {24, 49}: {2}, {24, 65}: {2}, {24, 193}: {2},
		{32, 49}: {3}, {32, 65}: {2}, {32, 193}: {2},
		{48, 49}: {5}, {48, 65}: {3}, {48, 193}: {2},
		{64, 65}: {5}, {64, 193}: {2},
		{96, 193}:  {2},
		{128, 193}: {2},
		{192, 193}: {5, 6},
	}
}

// Profile is the measured sorted-load-vector profile of one (k, d) pair —
// the empirical counterpart of the paper's schematic Figures 1 and 2.
type Profile struct {
	K, D, N int
	Runs    int
	// Checkpoints from the analysis.
	Beta0     int // β₀ = n/(6 d_k), Theorem 3 / Figure 1
	GammaStar int // γ* = 4n/d_k, Theorem 6 / Figure 2
	Gamma0    int // γ₀ = n/d, Theorem 7
	// Measured mean sorted loads at the checkpoints (1-indexed positions).
	B1, BBeta0, BGammaStar, BGamma0 float64
	// MeasuredGap is B1 − BBeta0, the Theorem 4 quantity.
	MeasuredGap float64
	// PredictedGap is ln ln n / ln(d−k+1).
	PredictedGap float64
	// PredictedCrowd is ln d_k / ln ln d_k, bounding B_{β0} (Theorem 3)
	// and (within 1−o(1)) B_{γ*} (Theorem 6).
	PredictedCrowd float64
	// MeanProfile is the full mean sorted-load curve (index x-1 = E[B_x]).
	MeanProfile []float64
}

// LoadVectorProfiles measures the mean sorted-load vectors of the given
// (k,d) pairs with n balls into n bins over the given runs (Figures 1
// and 2), running every pair's runs on one shared pool.
func LoadVectorProfiles(kds [][2]int, n, runs int, seed uint64) ([]*Profile, error) {
	cells := make([]kdchoice.Cell, len(kds))
	for i, kd := range kds {
		cells[i] = kdchoice.Cell{Config: kdchoice.Config{Bins: n, K: kd[0], D: kd[1], Seed: seed}}
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed, CollectLoads: true}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: profiles: %w", err)
	}
	out := make([]*Profile, len(kds))
	for i, kd := range kds {
		k, d := kd[0], kd[1]
		prof, err := rep.Cells[i].MeanSortedProfile()
		if err != nil {
			return nil, fmt.Errorf("experiments: profile k=%d d=%d: %w", k, d, err)
		}
		at := func(pos int) float64 {
			if pos < 1 {
				pos = 1
			}
			if pos > n {
				pos = n
			}
			return prof[pos-1]
		}
		p := &Profile{
			K: k, D: d, N: n, Runs: runs,
			Beta0:          theory.Beta0(k, d, n),
			GammaStar:      theory.GammaStar(k, d, n),
			Gamma0:         theory.Gamma0(d, n),
			PredictedGap:   theory.GapTerm(k, d, n),
			PredictedCrowd: theory.CrowdTerm(k, d),
			MeanProfile:    prof,
		}
		p.B1 = at(1)
		p.BBeta0 = at(p.Beta0)
		p.BGammaStar = at(p.GammaStar)
		p.BGamma0 = at(p.Gamma0)
		p.MeasuredGap = p.B1 - p.BBeta0
		out[i] = p
	}
	return out, nil
}

// LoadVectorProfile is the one-pair convenience form of LoadVectorProfiles.
func LoadVectorProfile(k, d, n, runs int, seed uint64) (*Profile, error) {
	ps, err := LoadVectorProfiles([][2]int{{k, d}}, n, runs, seed)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// ScalingPoint is one (n, measured, predicted) triple of a scaling series.
type ScalingPoint struct {
	N         int
	MeanMax   float64
	Predicted float64
}

// ScalingSeriesResult is one (k, d) row of a scaling grid.
type ScalingSeriesResult struct {
	K, D   int
	Points []ScalingPoint
}

// scalingCell builds the cell for one (k, d, n) grid point; d = 1 means
// single choice. The seed depends only on the n index, matching the
// historical derivation (all pairs share the per-n streams).
func scalingCell(k, d, n, ni int, seed uint64) kdchoice.Cell {
	cfg := kdchoice.Config{Bins: n, K: k, D: d, Seed: seed + uint64(ni)*1e6}
	if d == 1 {
		cfg = kdchoice.Config{Bins: n, Policy: kdchoice.SingleChoice, Seed: seed + uint64(ni)*1e6}
	}
	return kdchoice.Cell{Config: cfg}
}

// ScalingGrid measures the mean max load of every (k,d) pair at every n on
// one shared pool (Theorem 1 shape: ln ln n growth when d_k = O(1),
// Corollary 1 plateau when d_k is large). k = 1 uses the d-choice fast path
// semantics via KDChoice's k=1 case; d = 1 means single choice.
func ScalingGrid(pairs [][2]int, ns []int, runs int, seed uint64) ([]ScalingSeriesResult, error) {
	var cells []kdchoice.Cell
	for _, kd := range pairs {
		for i, n := range ns {
			cells = append(cells, scalingCell(kd[0], kd[1], n, i, seed))
		}
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: scaling grid: %w", err)
	}
	out := make([]ScalingSeriesResult, len(pairs))
	ci := 0
	for pi, kd := range pairs {
		k, d := kd[0], kd[1]
		res := ScalingSeriesResult{K: k, D: d, Points: make([]ScalingPoint, len(ns))}
		for i, n := range ns {
			pred := theory.SingleChoiceMaxLoad(n)
			if d > 1 {
				pred = theory.MaxLoadUpper(k, d, n)
			}
			res.Points[i] = ScalingPoint{N: n, MeanMax: rep.Cells[ci].MeanMax, Predicted: pred}
			ci++
		}
		out[pi] = res
	}
	return out, nil
}

// ScalingSeries is the one-pair convenience form of ScalingGrid.
func ScalingSeries(k, d int, ns []int, runs int, seed uint64) ([]ScalingPoint, error) {
	grid, err := ScalingGrid([][2]int{{k, d}}, ns, runs, seed)
	if err != nil {
		return nil, err
	}
	return grid[0].Points, nil
}

// HeavyPoint is one heavy-load measurement at m = Mult·n balls.
type HeavyPoint struct {
	Mult     int
	MeanGap  float64
	MeanMax  float64
	GapLower float64 // Theorem 2 lower leading term
	GapUpper float64 // Theorem 2 upper leading term
}

// HeavySeriesResult is one (k, d) row of a heavy-load grid.
type HeavySeriesResult struct {
	K, D   int
	Points []HeavyPoint
}

// HeavyGrid measures the gap (max − m/n) of every (k,d) pair as the ball
// count grows to Mult·n (Theorem 2, d >= 2k), all on one shared pool.
func HeavyGrid(pairs [][2]int, n int, mults []int, runs int, seed uint64) ([]HeavySeriesResult, error) {
	var cells []kdchoice.Cell
	for _, kd := range pairs {
		for i, mult := range mults {
			cells = append(cells, kdchoice.Cell{
				Config: kdchoice.Config{Bins: n, K: kd[0], D: kd[1], Seed: seed + uint64(i)*1e6},
				Balls:  mult * n,
			})
		}
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: heavy grid: %w", err)
	}
	out := make([]HeavySeriesResult, len(pairs))
	ci := 0
	for pi, kd := range pairs {
		k, d := kd[0], kd[1]
		res := HeavySeriesResult{K: k, D: d, Points: make([]HeavyPoint, len(mults))}
		for i, mult := range mults {
			res.Points[i] = HeavyPoint{
				Mult:     mult,
				MeanGap:  rep.Cells[ci].MeanGap,
				MeanMax:  rep.Cells[ci].MeanMax,
				GapLower: theory.HeavyGapLower(k, d, n),
				GapUpper: theory.HeavyGapUpper(k, d, n),
			}
			ci++
		}
		out[pi] = res
	}
	return out, nil
}

// HeavySeries is the one-pair convenience form of HeavyGrid.
func HeavySeries(k, d, n int, mults []int, runs int, seed uint64) ([]HeavyPoint, error) {
	grid, err := HeavyGrid([][2]int{{k, d}}, n, mults, runs, seed)
	if err != nil {
		return nil, err
	}
	return grid[0].Points, nil
}

// TradeoffPoint is one point of the message-cost/max-load frontier.
type TradeoffPoint struct {
	Label           string
	Policy          string
	K, D            int
	MeanMax         float64
	MessagesPerBall float64
	Regime          string
}

// TradeoffFrontier measures the paper's headline tradeoff at one n: the
// max load and amortized message cost of single choice, two-choice,
// (1+β)-choice, and the (k,d) sweet spots (d = 2k constant-load regime and
// d = k + ln n minimal-message regime), as one experiment batch.
func TradeoffFrontier(n, runs int, seed uint64) ([]TradeoffPoint, error) {
	// Integer approximations of the paper's parameter choices.
	logn := ilog(n)       // ⌊ln n⌋
	k1 := logn * logn     // k = ln² n
	d1 := k1 + logn       // d = k + ln n  -> (1+o(1))n messages
	k2 := logn * logn / 2 // k = Θ(polylog n)
	d2 := 2 * k2          // d = 2k        -> 2n messages, O(1) load
	cells := []kdchoice.Cell{
		{Label: "single choice", Config: kdchoice.Config{Bins: n, Policy: kdchoice.SingleChoice}},
		{Label: "two-choice", Config: kdchoice.Config{Bins: n, K: 1, D: 2}},
		{Label: "(1+beta), beta=0.5", Config: kdchoice.Config{Bins: n, Policy: kdchoice.OnePlusBeta, Beta: 0.5}},
		{Label: fmt.Sprintf("(k,d)=(%d,%d) [d=k+ln n]", k1, d1), Config: kdchoice.Config{Bins: n, K: k1, D: d1}},
		{Label: fmt.Sprintf("(k,d)=(%d,%d) [d=2k]", k2, d2), Config: kdchoice.Config{Bins: n, K: k2, D: d2}},
	}
	for i := range cells {
		cells[i].Config.Seed = seed + uint64(i)*7919
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: tradeoff: %w", err)
	}
	out := make([]TradeoffPoint, 0, len(rep.Cells))
	for i := range rep.Cells {
		c := &rep.Cells[i]
		cfg := c.Cell.Config
		pol := cfg.Policy
		if pol == 0 {
			pol = kdchoice.KDChoice
		}
		tp := TradeoffPoint{
			Label:           c.Cell.Label,
			Policy:          pol.String(),
			K:               cfg.K,
			D:               cfg.D,
			MeanMax:         c.MeanMax,
			MessagesPerBall: c.MeanMessages / float64(n),
		}
		if pol == kdchoice.KDChoice {
			tp.Regime = theory.Classify(cfg.K, cfg.D, n).String()
		}
		out = append(out, tp)
	}
	return out, nil
}

// ilog returns ⌊ln n⌋, at least 1.
func ilog(n int) int {
	l := int(math.Log(float64(n)))
	if l < 1 {
		l = 1
	}
	return l
}

// RemarkRow is one Section 1.2 remark comparison.
type RemarkRow struct {
	Name        string
	LeftLabel   string
	RightLabel  string
	LeftMax     []int
	RightMax    []int
	LeftMsgs    float64
	RightMsgs   float64
	Explanation string
}

// Remarks reproduces the three explicit observations of Section 1.2:
// (8,9) ≈ two-choice, (128,193) matches (1,193), and (64,65) clearly beats
// single choice. All six sides run as one experiment batch.
func Remarks(n, runs int, seed uint64) ([]RemarkRow, error) {
	type spec struct {
		name, explain string
		l, r          kdchoice.Config
	}
	specs := []spec{
		{
			name: "(8,9) vs two-choice", explain: "close max loads at half the per-ball probes",
			l: kdchoice.Config{Bins: n, K: 8, D: 9},
			r: kdchoice.Config{Bins: n, K: 1, D: 2},
		},
		{
			name: "(128,193) vs (1,193)", explain: "identical max load 2 at 1/128 of the rounds",
			l: kdchoice.Config{Bins: n, K: 128, D: 193},
			r: kdchoice.Config{Bins: n, K: 1, D: 193},
		},
		{
			name: "(64,65) vs single choice", explain: "noticeably better than single choice",
			l: kdchoice.Config{Bins: n, K: 64, D: 65},
			r: kdchoice.Config{Bins: n, Policy: kdchoice.SingleChoice},
		},
	}
	cells := make([]kdchoice.Cell, 0, 2*len(specs))
	for i, sp := range specs {
		sp.l.Seed = seed + uint64(i)*2
		sp.r.Seed = seed + uint64(i)*2 + 1
		cells = append(cells, kdchoice.Cell{Config: sp.l}, kdchoice.Cell{Config: sp.r})
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: remarks: %w", err)
	}
	out := make([]RemarkRow, 0, len(specs))
	for i, sp := range specs {
		lres, rres := &rep.Cells[2*i], &rep.Cells[2*i+1]
		out = append(out, RemarkRow{
			Name:        sp.name,
			LeftLabel:   fmt.Sprintf("(%d,%d)", sp.l.K, sp.l.D),
			RightLabel:  fmt.Sprintf("(%d,%d)", sp.r.K, sp.r.D),
			LeftMax:     lres.DistinctMax,
			RightMax:    rres.DistinctMax,
			LeftMsgs:    lres.MeanMessages / float64(n),
			RightMsgs:   rres.MeanMessages / float64(n),
			Explanation: sp.explain,
		})
	}
	return out, nil
}

// AdaptivePoint compares the strict (k,d) rule against the two Section 7
// future-work variants for one (k, d): water-filling (AdaptiveKD) and
// dynamic round size (DynamicKD, same d).
type AdaptivePoint struct {
	K, D                  int
	StrictMax, AdaptMax   float64
	StrictDist, AdaptDist []int
	// DynMax and DynMsgsPerBall measure the dynamic-k policy at the same
	// d (its k adapts, so only d carries over).
	DynMax         float64
	DynMsgsPerBall float64
}

// AdaptiveAblation measures the Section 7 conjectures: relaxing the
// multiplicity rule (water-filling) should help most when k ≈ d, and
// adjusting k dynamically should hold the ceiling at little message cost.
// The whole 3 × pairs grid runs as one experiment batch.
func AdaptiveAblation(n, runs int, seed uint64, pairs [][2]int) ([]AdaptivePoint, error) {
	cells := make([]kdchoice.Cell, 0, 3*len(pairs))
	for i, kd := range pairs {
		k, d := kd[0], kd[1]
		cells = append(cells,
			kdchoice.Cell{Config: kdchoice.Config{Bins: n, K: k, D: d, Seed: seed + uint64(i)*11}},
			kdchoice.Cell{Config: kdchoice.Config{Bins: n, K: k, D: d, Policy: kdchoice.AdaptiveKD, Seed: seed + uint64(i)*11 + 5}},
			kdchoice.Cell{Config: kdchoice.Config{Bins: n, D: d, Policy: kdchoice.DynamicKD, Seed: seed + uint64(i)*11 + 9}},
		)
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: adaptive ablation: %w", err)
	}
	out := make([]AdaptivePoint, 0, len(pairs))
	for i, kd := range pairs {
		strict, adapt, dyn := &rep.Cells[3*i], &rep.Cells[3*i+1], &rep.Cells[3*i+2]
		out = append(out, AdaptivePoint{
			K: kd[0], D: kd[1],
			StrictMax:      strict.MeanMax,
			AdaptMax:       adapt.MeanMax,
			StrictDist:     strict.DistinctMax,
			AdaptDist:      adapt.DistinctMax,
			DynMax:         dyn.MeanMax,
			DynMsgsPerBall: dyn.MeanMessages / float64(n),
		})
	}
	return out, nil
}

// MajCheck is one verified majorization relation (Section 3).
type MajCheck struct {
	Property    string
	Left, Right string
	LeftMean    float64
	RightMean   float64
	Holds       bool
}

// MajorizationChecks verifies properties (ii)-(v) at the expected-max-load
// level over `runs` independent runs per side, as one experiment batch.
func MajorizationChecks(n, runs int, seed uint64) ([]MajCheck, error) {
	type check struct {
		prop   string
		lp, rp kdchoice.Config
	}
	checks := []check{
		{"(ii) A(k,d+a) <= A(k,d)", kdchoice.Config{Bins: n, K: 2, D: 6}, kdchoice.Config{Bins: n, K: 2, D: 3}},
		{"(iii) A(k-a,d) <= A(k,d)", kdchoice.Config{Bins: n, K: 1, D: 4}, kdchoice.Config{Bins: n, K: 3, D: 4}},
		{"(iv) A(ak,ad) <= A(k,d)", kdchoice.Config{Bins: n, K: 2, D: 4}, kdchoice.Config{Bins: n, K: 1, D: 2}},
		{"(v) A(k,d) <= A(k+a,d+a)", kdchoice.Config{Bins: n, K: 1, D: 2}, kdchoice.Config{Bins: n, K: 3, D: 4}},
	}
	cells := make([]kdchoice.Cell, 0, 2*len(checks))
	for i, c := range checks {
		c.lp.Seed = seed + uint64(i)*13
		c.rp.Seed = seed + uint64(i)*13 + 6
		cells = append(cells, kdchoice.Cell{Config: c.lp}, kdchoice.Cell{Config: c.rp})
	}
	rep, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: seed}.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: majorization: %w", err)
	}
	// Tolerance for sampling noise at the configured run count.
	tol := 0.2
	if runs >= 400 {
		tol = 0.12
	}
	out := make([]MajCheck, 0, len(checks))
	for i, c := range checks {
		lm := rep.Cells[2*i].MeanMax
		rm := rep.Cells[2*i+1].MeanMax
		out = append(out, MajCheck{
			Property:  c.prop,
			Left:      fmt.Sprintf("(%d,%d)", c.lp.K, c.lp.D),
			Right:     fmt.Sprintf("(%d,%d)", c.rp.K, c.rp.D),
			LeftMean:  lm,
			RightMean: rm,
			Holds:     lm <= rm+tol,
		})
	}
	return out, nil
}

// MeanOfInts is a convenience re-export used by the cmds.
func MeanOfInts(xs []int) float64 { return stats.MeanInts(xs) }
