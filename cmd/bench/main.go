// Command bench runs the repository's tracked performance grids and writes
// the results to BENCH_kd.json (per-round micro grid) and BENCH_scale.json
// (large-n scale grid), the benchmark trajectories future PRs regress
// against.
//
// Each cell of the micro grid benchmarks one allocation process
// configuration (n, k, d, policy) through the public API, measuring ns per
// round, heap allocations per round, and placement throughput in balls per
// second. The grid also times the (k,d)-choice acceptance cell (n = 1e5,
// k = 2, d = 64) on both slot-selection kernels and under the 4-shard
// superstep engine, reporting the fast-vs-sort and shards-vs-serial
// speedups.
//
// The scale grid (-scale) runs the heavy-load cells the compact stores
// exist for: n = 1e6 and 1e7 with k=2/d=64 and an m = 100n heavy-load
// cell, one column per bin store, measuring sustained balls/sec and the
// steady-state bytes per bin (via runtime.MemStats).
//
// The serve grid (-serve) benchmarks the online serving layer: a mixed
// insert/delete stream (churn = the per-op delete probability, uniform
// victims) served through Insert/Delete on every store, measuring ops/sec
// and allocs/op. The tracked acceptance cell
// (n=1e5, d=2, beta=1, churn=0.4, store=hist) rides the histogram store's
// O(1)-amortized deletes and the specialized kernels: its floor is 1M
// ops/sec at 0 allocs/op.
//
// The faults grid (-faults) is the serving grid under deterministic fault
// plans: the tracked serving mix with bin outages + probe loss + retries +
// eviction attached (and a degradation ablation alongside), tracked in
// BENCH_faults.json. Its floor is the serving floor with the plan's extra
// probes priced in, still at 0 allocs/op — -comparefaults FAILS (not
// warns) if the faulty hot path ever allocates.
//
// The approx grid (-approx) is the sub-byte store trajectory: the
// acceptance shape on the exact compact baseline vs the nibble store
// (~0.5 B/bin, exact) vs the count-min sketch store (<0.5 B/bin,
// approximate) at n = 1e7, plus the n = 1e8 compact/nibble pair, reporting
// measured bytes per bin and the max-load inflation against the exact
// compact baseline at the same n.
//
// Usage:
//
//	bench [-out BENCH_kd.json] [-quick]             # micro grid
//	bench -scale [-out BENCH_scale.json] [-quick]   # scale grid
//	bench -serve [-out BENCH_serve.json] [-quick]   # serving grid
//	bench -faults [-out BENCH_faults.json] [-quick] # faulty serving grid
//	bench -approx [-out BENCH_approx.json] [-quick] # approximate-store grid
//	bench -compare BENCH_kd.json                    # perf ratchet (CI)
//	bench -compareserve BENCH_serve.json            # serving ratchet (CI)
//	bench -compareapprox BENCH_approx.json          # approx ratchet (CI)
//	bench -comparefaults BENCH_faults.json          # fault-layer ratchet (CI)
//	bench -cpuprofile cpu.out -memprofile mem.out   # hot-path diagnosis
//
// -quick shrinks the grids to tiny cells (for smoke tests); tracked results
// should always come from the full grids, e.g. via `scripts/ci.sh bench`.
// -compare re-times only the tracked acceptance cells at full size against
// a committed BENCH_kd.json and prints a non-fatal PERF WARNING when a cell
// regresses more than 15% — the CI ratchet that keeps the committed
// trajectory honest; -compareapprox additionally warns when the tracked
// nibble cell's measured bytes per bin exceed its 0.6 budget.
// -cpuprofile/-memprofile write pprof profiles of the
// benchmark run so hot-path regressions can be diagnosed without editing
// the harness; -block overrides the superstep size of every cell, -shards
// the shard count of every micro-grid cell, and -store the bin store of
// every cell (ablations — they require an explicit empty -out, stdout
// only, so they can never overwrite a tracked trajectory, and they cannot
// be combined with the ratchets).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	kdchoice "repro"
)

// cell is one micro-grid entry.
type cell struct {
	Name string
	Cfg  kdchoice.Config
}

// result is the serialized outcome of one micro-grid cell.
type result struct {
	Name            string  `json:"name"`
	Policy          string  `json:"policy"`
	N               int     `json:"n"`
	K               int     `json:"k,omitempty"`
	D               int     `json:"d,omitempty"`
	ReferenceSelect bool    `json:"reference_select,omitempty"`
	Block           int     `json:"block,omitempty"`
	Shards          int     `json:"shards,omitempty"`
	NsPerRound      float64 `json:"ns_per_round"`
	BytesPerRound   int64   `json:"bytes_per_round"`
	AllocsPerRound  int64   `json:"allocs_per_round"`
	BallsPerRound   float64 `json:"balls_per_round"`
	BallsPerSec     float64 `json:"balls_per_sec"`
}

// report is the BENCH_kd.json schema.
type report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Grid      []result `json:"grid"`
	// SpeedupFastVsSort is ns/round(sort kernel) / ns/round(fast kernel)
	// on the n=1e5, k=2, d=64 acceptance cell; the floor is 1.5.
	SpeedupFastVsSort float64 `json:"speedup_fast_vs_sort_n1e5_k2_d64,omitempty"`
	// SpeedupShardsVsSerial is ns/round(serial fast kernel) / ns/round
	// (4-shard superstep engine) on the same cell — the headline number of
	// the sharded engine. On a single-CPU host the shard workers multiplex
	// one core, so parity or a mild slowdown is the expected reading
	// there; the engine only pulls ahead with spare cores.
	SpeedupShardsVsSerial float64 `json:"speedup_shards_vs_serial_n1e5_k2_d64,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// cellName derives the canonical cell name from its configuration, so
// names can never disagree with the recorded parameters (quick mode
// shrinks n, and the names shrink with it). Grid configs always set
// Policy explicitly, so no defaulting logic is duplicated here.
func cellName(cfg kdchoice.Config) string {
	policy := cfg.Policy
	name := fmt.Sprintf("%v/n=%d", policy, cfg.Bins)
	if policy == kdchoice.KDChoice {
		kernel := "fast"
		if cfg.ReferenceSelect {
			kernel = "sort"
		}
		name = fmt.Sprintf("kd/%s/n=%d", kernel, cfg.Bins)
	}
	if cfg.K > 0 {
		name += fmt.Sprintf(",k=%d", cfg.K)
	}
	if cfg.D > 0 {
		name += fmt.Sprintf(",d=%d", cfg.D)
	}
	if cfg.Beta > 0 {
		name += fmt.Sprintf(",beta=%g", cfg.Beta)
	}
	if cfg.Store != kdchoice.StoreDense {
		name += fmt.Sprintf(",store=%v", cfg.Store)
	}
	if cfg.Block > 0 {
		name += fmt.Sprintf(",block=%d", cfg.Block)
	}
	if cfg.Shards > 1 {
		name += fmt.Sprintf(",shards=%d", cfg.Shards)
	}
	return name
}

// grid returns the tracked micro-benchmark cells. The first two cells are
// the kernel-ablation pair the fast-vs-sort speedup is computed from; the
// third is the 4-shard superstep variant of cell 0 for the shards-vs-serial
// speedup.
func grid(quick bool) []cell {
	n, small := 100000, 10000
	if quick {
		n, small = 2048, 512
	}
	configs := []kdchoice.Config{
		{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice},
		{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, ReferenceSelect: true},
		{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Shards: 4},
		{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Store: kdchoice.StoreHist},
		// Superstep ablation: Block=1 pays every per-round fixed cost the
		// auto-sized superstep amortizes away (results are bit-identical).
		{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Block: 1},
		{Bins: n, K: 8, D: 16, Seed: 1, Policy: kdchoice.KDChoice},
		{Bins: n, K: 128, D: 192, Seed: 1, Policy: kdchoice.KDChoice},
		{Bins: small, K: 2, D: 4, Seed: 1, Policy: kdchoice.KDChoice},
		{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.Serialized},
		{Bins: n, D: 2, Seed: 1, Policy: kdchoice.DChoice},
		{Bins: n, Seed: 1, Policy: kdchoice.SingleChoice},
		{Bins: n, Beta: 0.5, Seed: 1, Policy: kdchoice.OnePlusBeta},
		{Bins: n, K: 8, D: 2, Seed: 1, Policy: kdchoice.StaleBatch},
		{Bins: n, K: 256, D: 2, Seed: 1, Policy: kdchoice.StaleBatch, Shards: 4},
	}
	cells := make([]cell, len(configs))
	for i, cfg := range configs {
		cells[i] = cell{Name: cellName(cfg), Cfg: cfg}
	}
	return cells
}

// runCell benchmarks one cell: steady-state rounds through the public API.
func runCell(c cell) (result, error) {
	probe, err := kdchoice.New(c.Cfg)
	if err != nil {
		return result{}, fmt.Errorf("cell %s: %w", c.Name, err)
	}
	probe.Close()
	// New normalizes the config (zero Policy means KDChoice), so the
	// stored Config carries the canonical policy name.
	policy := probe.Config().Policy.String()
	var ballsPerRound float64
	br := testing.Benchmark(func(b *testing.B) {
		alloc, err := kdchoice.New(c.Cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer alloc.Close()
		// Warm to steady state (~1 ball per bin) so scratch buffers are
		// grown and the load vector is realistic.
		alloc.PlaceAll()
		b.ReportAllocs()
		b.ResetTimer()
		start := alloc.Balls()
		for i := 0; i < b.N; i++ {
			alloc.Round()
		}
		ballsPerRound = float64(alloc.Balls()-start) / float64(b.N)
	})
	ns := float64(br.NsPerOp())
	res := result{
		Name:            c.Name,
		Policy:          policy,
		N:               c.Cfg.Bins,
		K:               c.Cfg.K,
		D:               c.Cfg.D,
		ReferenceSelect: c.Cfg.ReferenceSelect,
		Block:           c.Cfg.Block,
		Shards:          c.Cfg.Shards,
		NsPerRound:      ns,
		BytesPerRound:   br.AllocedBytesPerOp(),
		AllocsPerRound:  br.AllocsPerOp(),
		BallsPerRound:   ballsPerRound,
	}
	if ns > 0 {
		res.BallsPerSec = ballsPerRound * 1e9 / ns
	}
	return res, nil
}

// scaleCell is one scale-grid entry: a configuration plus its warmup and
// timed ball counts.
type scaleCell struct {
	Name  string
	Cfg   kdchoice.Config
	Warm  int // balls placed before the timed section
	Balls int // balls placed in the timed section
}

// scaleResult is the serialized outcome of one scale-grid cell.
type scaleResult struct {
	Name        string  `json:"name"`
	Policy      string  `json:"policy"`
	Store       string  `json:"store"`
	Block       int     `json:"block,omitempty"`
	N           int     `json:"n"`
	K           int     `json:"k"`
	D           int     `json:"d"`
	TotalBalls  int     `json:"total_balls"`
	TimedBalls  int     `json:"timed_balls"`
	BallsPerSec float64 `json:"balls_per_sec"`
	NsPerRound  float64 `json:"ns_per_round"`
	BytesPerBin float64 `json:"bytes_per_bin"`
	MaxLoad     int     `json:"max_load"`
	Gap         float64 `json:"gap"`
}

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Cells     []scaleResult `json:"cells"`
}

// scaleGrid returns the scale cells: the (k=2, d=64) acceptance shape at
// n = 1e6 and 1e7 plus a heavy-load m = 100n cell, each with one column
// per bin store. Quick mode shrinks n for smoke tests.
func scaleGrid(quick bool) []scaleCell {
	n1, n2, heavyN := 1_000_000, 10_000_000, 1_000_000
	if quick {
		n1, n2, heavyN = 20_000, 100_000, 20_000
	}
	stores := []kdchoice.Store{kdchoice.StoreDense, kdchoice.StoreCompact, kdchoice.StoreHist}
	var cells []scaleCell
	capBalls := func(n, cap int) int {
		if n < cap {
			return n
		}
		return cap
	}
	for _, n := range []int{n1, n2} {
		for _, store := range stores {
			cfg := kdchoice.Config{Bins: n, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Store: store}
			cells = append(cells, scaleCell{
				Name:  fmt.Sprintf("kd/n=%d,k=2,d=64,store=%v", n, store),
				Cfg:   cfg,
				Warm:  capBalls(n, 2_000_000),
				Balls: capBalls(n, 4_000_000),
			})
		}
	}
	// Heavy load: m = 100n exercises the Theorem 2 regime (gap growth with
	// m/n) at a cheaper per-ball shape (k=8, d=16).
	for _, store := range stores {
		cfg := kdchoice.Config{Bins: heavyN, K: 8, D: 16, Seed: 1, Policy: kdchoice.KDChoice, Store: store}
		cells = append(cells, scaleCell{
			Name:  fmt.Sprintf("kd-heavy/n=%d,k=8,d=16,m=100n,store=%v", heavyN, store),
			Cfg:   cfg,
			Warm:  0,
			Balls: 100 * heavyN,
		})
	}
	return cells
}

// runScaleCell places the cell's balls, timing the post-warmup section, and
// measures the steady-state heap footprint per bin.
func runScaleCell(c scaleCell) (scaleResult, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	alloc, err := kdchoice.New(c.Cfg)
	if err != nil {
		return scaleResult{}, fmt.Errorf("cell %s: %w", c.Name, err)
	}
	defer alloc.Close()
	if c.Warm > 0 {
		if err := alloc.Place(c.Warm); err != nil {
			return scaleResult{}, err
		}
	}
	startRounds := alloc.Rounds()
	start := time.Now()
	if err := alloc.Place(c.Balls); err != nil {
		return scaleResult{}, err
	}
	elapsed := time.Since(start)
	rounds := alloc.Rounds() - startRounds

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	bytesPerBin := 0.0
	if after.HeapAlloc > before.HeapAlloc {
		bytesPerBin = float64(after.HeapAlloc-before.HeapAlloc) / float64(c.Cfg.Bins)
	}

	res := scaleResult{
		Name:        c.Name,
		Policy:      alloc.Config().Policy.String(),
		Store:       c.Cfg.Store.String(),
		Block:       c.Cfg.Block,
		N:           c.Cfg.Bins,
		K:           c.Cfg.K,
		D:           c.Cfg.D,
		TotalBalls:  alloc.Balls(),
		TimedBalls:  c.Balls,
		BytesPerBin: bytesPerBin,
		MaxLoad:     alloc.MaxLoad(),
		Gap:         alloc.Gap(),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.BallsPerSec = float64(c.Balls) / secs
		if rounds > 0 {
			res.NsPerRound = float64(elapsed.Nanoseconds()) / float64(rounds)
		}
	}
	runtime.KeepAlive(alloc)
	return res, nil
}

// runScale executes the scale grid and writes BENCH_scale.json.
func runScale(quick bool, block int, store string, outPath string, out io.Writer) error {
	rep := scaleReport{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	cells := scaleGrid(quick)
	if store != "" {
		s, err := kdchoice.ParseStore(store)
		if err != nil {
			return err
		}
		// Rewrite every cell onto the override store and drop the duplicate
		// rows the collapsed store column leaves behind.
		seen := make(map[string]bool, len(cells))
		dedup := cells[:0]
		for _, c := range cells {
			c.Cfg.Store = s
			if idx := strings.Index(c.Name, "store="); idx >= 0 {
				c.Name = c.Name[:idx] + "store=" + s.String()
			}
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			dedup = append(dedup, c)
		}
		cells = dedup
	}
	if block != 0 {
		for i := range cells {
			cells[i].Cfg.Block = block
			if block > 0 {
				cells[i].Name += fmt.Sprintf(",block=%d", block)
			}
		}
	}
	for _, c := range cells {
		res, err := runScaleCell(c)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, res)
		fmt.Fprintf(out, "%-44s %14.0f balls/sec %7.2f B/bin  max=%d gap=%.2f\n",
			res.Name, res.BallsPerSec, res.BytesPerBin, res.MaxLoad, res.Gap)
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// approxResult is one approx-grid cell: a scale measurement plus the
// max-load inflation against the exact compact baseline at the same n.
type approxResult struct {
	scaleResult
	// MaxLoadInflation is this cell's max load minus the compact baseline's
	// at the same n — exactly 0 for every exact store (nibble is
	// bit-identical to compact), and the one-sided accuracy price of the
	// sketch. Absent when the grid carries no compact baseline for the n.
	MaxLoadInflation *int `json:"max_load_inflation,omitempty"`
}

// approxReport is the BENCH_approx.json schema.
type approxReport struct {
	GoVersion string         `json:"go_version"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	Cells     []approxResult `json:"cells"`
}

// approxGrid returns the approximate-store cells: the acceptance shape at
// n = 1e7 on compact/nibble/sketch, then the n = 1e8 compact/nibble pair
// (the tracked sub-byte cell). Light load (m = timed balls ≤ n) keeps the
// sketch's saturating counters in range and the nibble store escape-free,
// so the memory comparison is the structural one. Quick mode shrinks n.
func approxGrid(quick bool) []scaleCell {
	n1, n2 := 10_000_000, 100_000_000
	balls1, balls2 := n1, 20_000_000
	if quick {
		n1, n2 = 20_000, 100_000
		balls1, balls2 = n1, n2
	}
	var cells []scaleCell
	for _, store := range []kdchoice.Store{kdchoice.StoreCompact, kdchoice.StoreNibble, kdchoice.StoreSketch} {
		cells = append(cells, scaleCell{
			Name:  fmt.Sprintf("kd-approx/n=%d,k=2,d=64,store=%v", n1, store),
			Cfg:   kdchoice.Config{Bins: n1, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Store: store},
			Balls: balls1,
		})
	}
	for _, store := range []kdchoice.Store{kdchoice.StoreCompact, kdchoice.StoreNibble} {
		cells = append(cells, scaleCell{
			Name:  fmt.Sprintf("kd-approx/n=%d,k=2,d=64,store=%v", n2, store),
			Cfg:   kdchoice.Config{Bins: n2, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Store: store},
			Balls: balls2,
		})
	}
	return cells
}

// runApprox executes the approx grid and writes BENCH_approx.json. Cells
// run in grid order, so each n's compact baseline finishes before the
// cells measured against it.
func runApprox(quick bool, outPath string, out io.Writer) error {
	rep := approxReport{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	baseMax := make(map[int]int) // n -> compact baseline max load
	for _, c := range approxGrid(quick) {
		res, err := runScaleCell(c)
		if err != nil {
			return err
		}
		ar := approxResult{scaleResult: res}
		if res.Store == kdchoice.StoreCompact.String() {
			baseMax[res.N] = res.MaxLoad
		}
		if base, ok := baseMax[res.N]; ok {
			infl := res.MaxLoad - base
			ar.MaxLoadInflation = &infl
		}
		rep.Cells = append(rep.Cells, ar)
		inflStr := "n/a"
		if ar.MaxLoadInflation != nil {
			inflStr = fmt.Sprintf("%+d", *ar.MaxLoadInflation)
		}
		fmt.Fprintf(out, "%-48s %14.0f balls/sec %7.3f B/bin  max=%d infl=%s\n",
			res.Name, res.BallsPerSec, res.BytesPerBin, res.MaxLoad, inflStr)
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// approxBudgetBytesPerBin is the tracked nibble cell's memory budget: the
// packed half byte plus headroom for the escape table and runtime slack.
const approxBudgetBytesPerBin = 0.6

// runCompareApprox re-times the tracked n=1e8 nibble cell against a
// committed BENCH_approx.json: a non-fatal PERF WARNING on >15% throughput
// regression, and another when the measured bytes per bin exceed the 0.6
// budget the cell is tracked at.
func runCompareApprox(path string, out io.Writer) error {
	const threshold = 1.15
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compareapprox: %w", err)
	}
	var tracked approxReport
	if err := json.Unmarshal(data, &tracked); err != nil {
		return fmt.Errorf("compareapprox: parsing %s: %w", path, err)
	}
	// The tracked cell, constructed directly so grid edits can never
	// redirect the ratchet.
	c := scaleCell{
		Name:  fmt.Sprintf("kd-approx/n=%d,k=2,d=64,store=%v", 100_000_000, kdchoice.StoreNibble),
		Cfg:   kdchoice.Config{Bins: 100_000_000, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice, Store: kdchoice.StoreNibble},
		Balls: 20_000_000,
	}
	var prev *approxResult
	for i := range tracked.Cells {
		if tracked.Cells[i].Name == c.Name {
			prev = &tracked.Cells[i]
			break
		}
	}
	if prev == nil || prev.BallsPerSec <= 0 {
		fmt.Fprintf(out, "PERF WARNING: tracked approx cell %q missing from %s\n", c.Name, path)
		return nil
	}
	res, err := runScaleCell(c)
	if err != nil {
		return err
	}
	ratio := prev.BallsPerSec / res.BallsPerSec
	fmt.Fprintf(out, "%-48s tracked %.0f balls/sec, now %.0f balls/sec (%.2fx slower)\n",
		c.Name, prev.BallsPerSec, res.BallsPerSec, ratio)
	warned := false
	if ratio > threshold {
		warned = true
		fmt.Fprintf(out, "PERF WARNING: %s regressed %.0f%% vs %s (threshold %.0f%%)\n",
			c.Name, (ratio-1)*100, path, (threshold-1)*100)
	}
	if res.BytesPerBin > approxBudgetBytesPerBin {
		warned = true
		fmt.Fprintf(out, "PERF WARNING: %s measured %.3f B/bin, over the %.1f B/bin budget\n",
			c.Name, res.BytesPerBin, approxBudgetBytesPerBin)
	}
	if !warned {
		fmt.Fprintln(out, "compareapprox: tracked cell within threshold and budget")
	}
	return nil
}

// serveCell is one serving-grid entry: a (1+β)-family allocator serving a
// mixed insert/delete stream.
type serveCell struct {
	Name string
	N    int
	D    int
	Beta float64
	// Churn is the per-op delete probability (uniform victims); the rest
	// of the ops are inserts.
	Churn float64
	// MaxWeight > 1 draws each insert's weight uniformly from [1, MaxWeight]
	// (the weighted-add kernel path); 1 keeps unit weights.
	MaxWeight int
	Store     kdchoice.Store
	// Faults, when non-empty, is a fault-plan spec (kdchoice.ParseFaults)
	// attached to the cell's allocator — the -faults grid rows.
	Faults string
}

// serveResult is the serialized outcome of one serving-grid cell.
type serveResult struct {
	Name        string  `json:"name"`
	Store       string  `json:"store"`
	N           int     `json:"n"`
	D           int     `json:"d"`
	Beta        float64 `json:"beta"`
	Churn       float64 `json:"churn"`
	MaxWeight   int     `json:"max_weight,omitempty"`
	Faults      string  `json:"faults,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// serveReport is the BENCH_serve.json schema.
type serveReport struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Cells     []serveResult `json:"cells"`
}

// serveCellName derives the canonical serving cell name from its
// parameters.
func serveCellName(c serveCell) string {
	name := fmt.Sprintf("serve/n=%d,d=%d,beta=%g,churn=%g,store=%v", c.N, c.D, c.Beta, c.Churn, c.Store)
	if c.MaxWeight > 1 {
		name += fmt.Sprintf(",w=%d", c.MaxWeight)
	}
	if c.Faults != "" {
		name += ",faults=" + c.Faults
	}
	return name
}

// serveGrid returns the serving cells: the tracked acceptance cell first
// (histogram store — O(1) amortized deletes), then the store ablation, the
// β ablation, the insert-only baseline and the weighted-kernel cell.
func serveGrid(quick bool) []serveCell {
	n := 100000
	if quick {
		n = 4096
	}
	cells := []serveCell{
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreDense},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreCompact},
		{N: n, D: 2, Beta: 0.5, Churn: 0.4, Store: kdchoice.StoreHist},
		{N: n, D: 2, Beta: 1, Churn: 0, Store: kdchoice.StoreHist},
		{N: n, D: 2, Beta: 1, Churn: 0.4, MaxWeight: 8, Store: kdchoice.StoreHist},
	}
	for i := range cells {
		cells[i].Name = serveCellName(cells[i])
	}
	return cells
}

// runServeCell benchmarks one serving cell: a steady-state mixed
// insert/delete loop through the public API, with the registry and the
// live-handle list pre-sized so the specialized kernels run at 0 allocs/op.
func runServeCell(c serveCell) (serveResult, error) {
	cfg := kdchoice.Config{
		Bins:   c.N,
		D:      c.D,
		Policy: kdchoice.OnePlusBeta,
		Beta:   c.Beta,
		Store:  c.Store,
		Seed:   1,
	}
	if c.Faults != "" {
		plan, err := kdchoice.ParseFaults(c.Faults)
		if err != nil {
			return serveResult{}, fmt.Errorf("cell %s: %w", c.Name, err)
		}
		cfg.Faults = &plan
	}
	probe, err := kdchoice.New(cfg)
	if err != nil {
		return serveResult{}, fmt.Errorf("cell %s: %w", c.Name, err)
	}
	probe.Close()
	br := testing.Benchmark(func(b *testing.B) {
		alloc, err := kdchoice.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer alloc.Close()
		// The op mix is drawn outside the allocator's deterministic stream;
		// a fixed-seed generator keeps the benchmark reproducible.
		mix := rand.New(rand.NewSource(7))
		// Warm to ~1 live ball per bin, pre-sizing for the worst case of
		// b.N further inserts so no slice grows inside the timed loop.
		alloc.Reserve(c.N + b.N)
		live := make([]kdchoice.Ball, 0, c.N+b.N)
		for i := 0; i < c.N; i++ {
			ball, err := alloc.Insert()
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, ball)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(live) > 0 && mix.Float64() < c.Churn {
				vi := mix.Intn(len(live))
				if err := alloc.Delete(live[vi]); err != nil {
					b.Fatal(err)
				}
				live[vi] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			w := 1
			if c.MaxWeight > 1 {
				w = 1 + mix.Intn(c.MaxWeight)
			}
			ball, err := alloc.InsertW(w)
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, ball)
		}
	})
	ns := float64(br.NsPerOp())
	res := serveResult{
		Name:        c.Name,
		Store:       c.Store.String(),
		N:           c.N,
		D:           c.D,
		Beta:        c.Beta,
		Churn:       c.Churn,
		MaxWeight:   c.MaxWeight,
		Faults:      c.Faults,
		NsPerOp:     ns,
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if ns > 0 {
		res.OpsPerSec = 1e9 / ns
	}
	return res, nil
}

// runServe executes the serving grid and writes BENCH_serve.json.
func runServe(quick bool, outPath string, out io.Writer) error {
	rep := serveReport{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, c := range serveGrid(quick) {
		res, err := runServeCell(c)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, res)
		fmt.Fprintf(out, "%-52s %10.0f ns/op %14.0f ops/sec %3d allocs\n",
			res.Name, res.NsPerOp, res.OpsPerSec, res.AllocsPerOp)
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// runCompareServe re-times the tracked serving acceptance cell at full size
// against a committed BENCH_serve.json — the serving twin of runCompare,
// with the same non-fatal warning contract.
func runCompareServe(path string, out io.Writer) error {
	const threshold = 1.15
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compareserve: %w", err)
	}
	var tracked serveReport
	if err := json.Unmarshal(data, &tracked); err != nil {
		return fmt.Errorf("compareserve: parsing %s: %w", path, err)
	}
	// The tracked acceptance cell, constructed directly so grid edits can
	// never redirect the ratchet.
	c := serveCell{N: 100000, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist}
	c.Name = serveCellName(c)
	var prev *serveResult
	for i := range tracked.Cells {
		if tracked.Cells[i].Name == c.Name {
			prev = &tracked.Cells[i]
			break
		}
	}
	if prev == nil || prev.NsPerOp <= 0 {
		fmt.Fprintf(out, "PERF WARNING: tracked serving cell %q missing from %s\n", c.Name, path)
		return nil
	}
	res, err := runServeCell(c)
	if err != nil {
		return err
	}
	ratio := res.NsPerOp / prev.NsPerOp
	fmt.Fprintf(out, "%-52s tracked %6.0f ns/op, now %6.0f ns/op (%.2fx)\n",
		c.Name, prev.NsPerOp, res.NsPerOp, ratio)
	switch {
	case ratio > threshold:
		fmt.Fprintf(out, "PERF WARNING: %s regressed %.0f%% vs %s (threshold %.0f%%)\n",
			c.Name, (ratio-1)*100, path, (threshold-1)*100)
	default:
		fmt.Fprintln(out, "compareserve: tracked cell within threshold")
	}
	if res.AllocsPerOp > 0 {
		fmt.Fprintf(out, "PERF WARNING: %s allocates %d/op; the serving hot path is tracked at 0 allocs/op\n",
			c.Name, res.AllocsPerOp)
	}
	return nil
}

// trackedFaultSpec is the fault plan of the tracked faulty serving cell:
// sparse bin outages with recovery and eviction, 10% probe loss, and a
// 2-probe retry budget — every fault-layer hot path exercised at once.
const trackedFaultSpec = "fail:0.0005,200+loss:0.1+retry:2+evict"

// faultsGrid returns the faulty serving cells: the tracked acceptance
// cell first (the full plan on the histogram store), then the
// degradation ablation — loss alone, loss with retries, heavy loss with
// a deep budget, outage/eviction alone, and the dense-store column.
func faultsGrid(quick bool) []serveCell {
	n := 100000
	if quick {
		n = 4096
	}
	cells := []serveCell{
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist, Faults: trackedFaultSpec},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist, Faults: "loss:0.1"},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist, Faults: "loss:0.1+retry:2"},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist, Faults: "loss:0.3+retry:8"},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist, Faults: "fail:0.0005,200+evict"},
		{N: n, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreDense, Faults: "loss:0.1+retry:2"},
	}
	for i := range cells {
		cells[i].Name = serveCellName(cells[i])
	}
	return cells
}

// runFaults executes the faulty serving grid and writes BENCH_faults.json.
func runFaults(quick bool, outPath string, out io.Writer) error {
	rep := serveReport{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, c := range faultsGrid(quick) {
		res, err := runServeCell(c)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, res)
		fmt.Fprintf(out, "%-76s %10.0f ns/op %14.0f ops/sec %3d allocs\n",
			res.Name, res.NsPerOp, res.OpsPerSec, res.AllocsPerOp)
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// runCompareFaults re-times the tracked faulty serving cell at full size
// against a committed BENCH_faults.json. Time regressions warn without
// failing (the serving-ratchet contract), but any per-op heap allocation
// is an error: the fault layer is tracked at 0 allocs/op, so an
// allocation means a hot-path buffer escaped.
func runCompareFaults(path string, out io.Writer) error {
	const threshold = 1.15
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("comparefaults: %w", err)
	}
	var tracked serveReport
	if err := json.Unmarshal(data, &tracked); err != nil {
		return fmt.Errorf("comparefaults: parsing %s: %w", path, err)
	}
	// The tracked acceptance cell, constructed directly so grid edits can
	// never redirect the ratchet.
	c := serveCell{N: 100000, D: 2, Beta: 1, Churn: 0.4, Store: kdchoice.StoreHist, Faults: trackedFaultSpec}
	c.Name = serveCellName(c)
	var prev *serveResult
	for i := range tracked.Cells {
		if tracked.Cells[i].Name == c.Name {
			prev = &tracked.Cells[i]
			break
		}
	}
	if prev == nil || prev.NsPerOp <= 0 {
		fmt.Fprintf(out, "PERF WARNING: tracked faulty serving cell %q missing from %s\n", c.Name, path)
		return nil
	}
	res, err := runServeCell(c)
	if err != nil {
		return err
	}
	ratio := res.NsPerOp / prev.NsPerOp
	fmt.Fprintf(out, "%-76s tracked %6.0f ns/op, now %6.0f ns/op (%.2fx)\n",
		c.Name, prev.NsPerOp, res.NsPerOp, ratio)
	switch {
	case ratio > threshold:
		fmt.Fprintf(out, "PERF WARNING: %s regressed %.0f%% vs %s (threshold %.0f%%)\n",
			c.Name, (ratio-1)*100, path, (threshold-1)*100)
	default:
		fmt.Fprintln(out, "comparefaults: tracked cell within threshold")
	}
	if res.AllocsPerOp > 0 {
		return fmt.Errorf("comparefaults: %s allocates %d/op; the faulty serving hot path is tracked at 0 allocs/op", c.Name, res.AllocsPerOp)
	}
	return nil
}

// compareCells returns the cells the -compare ratchet re-times — the
// serial and 4-shard acceptance cells (n=1e5, k=2, d=64), whose
// k=2 rounds take the selector's small-k path, plus the k=8, d=16 and
// k=128, d=192 cells, whose rounds take the flat ranker and the counting
// path — constructed directly rather than plucked from grid() by index, so
// reordering or extending the grid can never silently redirect the
// ratchet. The sharded cell is the parallel-engine ratchet: a >15%
// regression there means the superstep machinery itself (gather, pool
// dispatch, positional merge) got slower, independent of any multi-core
// speedup the host may or may not offer.
func compareCells() []cell {
	serial := kdchoice.Config{Bins: 100000, K: 2, D: 64, Seed: 1, Policy: kdchoice.KDChoice}
	sharded := serial
	sharded.Shards = 4
	flat := serial
	flat.K, flat.D = 8, 16
	counting := serial
	counting.K, counting.D = 128, 192
	return []cell{
		{Name: cellName(serial), Cfg: serial},
		{Name: cellName(sharded), Cfg: sharded},
		{Name: cellName(flat), Cfg: flat},
		{Name: cellName(counting), Cfg: counting},
	}
}

// runCompare re-times the tracked acceptance cells at full size and
// compares them against the committed BENCH_kd.json. Regressions beyond
// the threshold print a PERF WARNING but never fail the run — benchmark
// boxes are noisy, so the ratchet informs rather than blocks.
func runCompare(path string, out io.Writer) error {
	const threshold = 1.15
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var tracked report
	if err := json.Unmarshal(data, &tracked); err != nil {
		return fmt.Errorf("compare: parsing %s: %w", path, err)
	}
	warned := false
	compared := 0
	for _, c := range compareCells() {
		var prev *result
		for i := range tracked.Grid {
			if tracked.Grid[i].Name == c.Name {
				prev = &tracked.Grid[i]
				break
			}
		}
		if prev == nil || prev.NsPerRound <= 0 {
			fmt.Fprintf(out, "compare: cell %q not tracked in %s; skipping\n", c.Name, path)
			continue
		}
		res, err := runCell(c)
		if err != nil {
			return err
		}
		compared++
		ratio := res.NsPerRound / prev.NsPerRound
		fmt.Fprintf(out, "%-44s tracked %6.0f ns/round, now %6.0f ns/round (%.2fx)\n",
			c.Name, prev.NsPerRound, res.NsPerRound, ratio)
		if ratio > threshold {
			warned = true
			fmt.Fprintf(out, "PERF WARNING: %s regressed %.0f%% vs %s (threshold %.0f%%)\n",
				c.Name, (ratio-1)*100, path, (threshold-1)*100)
		}
	}
	switch {
	case compared == 0:
		// A dead ratchet must not read as a green one.
		fmt.Fprintf(out, "PERF WARNING: no tracked cells compared — %s does not carry the acceptance cells\n", path)
	case !warned:
		fmt.Fprintln(out, "compare: tracked cells within threshold")
	}
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := fs.String("out", "", "output JSON path (default BENCH_kd.json, BENCH_scale.json with -scale, BENCH_serve.json with -serve, or BENCH_approx.json with -approx; empty: stdout only)")
	quick := fs.Bool("quick", false, "tiny cells for smoke testing (do not commit quick results)")
	scale := fs.Bool("scale", false, "run the large-n scale grid instead of the micro grid")
	serve := fs.Bool("serve", false, "run the online-serving grid (mixed insert/delete streams) instead of the micro grid")
	approx := fs.Bool("approx", false, "run the approximate-store grid (compact vs nibble vs sketch) instead of the micro grid")
	faultsFlag := fs.Bool("faults", false, "run the faulty serving grid (deterministic fault plans on the serving mix) instead of the micro grid")
	block := fs.Int("block", 0, "superstep size in rounds applied to every cell (0 = auto, bit-identical for any value)")
	shardsFlag := fs.Int("shards", 0, "shard count applied to every micro-grid cell (ablation; bit-identical for any count >= 2; requires -out '')")
	storeFlag := fs.String("store", "", "bin store applied to every micro/scale cell (ablation; one of "+strings.Join(kdchoice.StoreNames(), ", ")+"; requires -out '')")
	compare := fs.String("compare", "", "compare the tracked acceptance cells against this BENCH_kd.json and warn (non-fatal) on >15% regression")
	compareServe := fs.String("compareserve", "", "compare the tracked serving cell against this BENCH_serve.json and warn (non-fatal) on >15% regression")
	compareApprox := fs.String("compareapprox", "", "compare the tracked n=1e8 nibble cell against this BENCH_approx.json and warn (non-fatal) on >15% regression or a blown B/bin budget")
	compareFaults := fs.String("comparefaults", "", "compare the tracked faulty serving cell against this BENCH_faults.json: warn (non-fatal) on >15% regression, FAIL on any per-op allocation")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}
	// The tracked-file default applies only when -out is not given at all;
	// an explicit empty -out means stdout only (the smoke-test form).
	path := *outPath
	outSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	ratchets := 0
	for _, r := range []string{*compare, *compareServe, *compareApprox, *compareFaults} {
		if r != "" {
			ratchets++
		}
	}
	if ratchets > 0 {
		// The ratchets always re-time the full-size acceptance cells
		// against the named file; silently dropping grid flags would make
		// `-quick -compare` look like a smoke check it is not.
		if *quick || *scale || *serve || *approx || *faultsFlag || *block != 0 || *shardsFlag != 0 || *storeFlag != "" || outSet {
			return fmt.Errorf("the -compare* ratchets cannot be combined with -quick, -scale, -serve, -approx, -faults, -block, -shards, -store or -out (they always re-time the full-size acceptance cells)")
		}
		if ratchets > 1 {
			return fmt.Errorf("-compare, -compareserve, -compareapprox and -comparefaults are separate ratchets; run them one at a time")
		}
		switch {
		case *compare != "":
			return runCompare(*compare, out)
		case *compareServe != "":
			return runCompareServe(*compareServe, out)
		case *compareFaults != "":
			return runCompareFaults(*compareFaults, out)
		default:
			return runCompareApprox(*compareApprox, out)
		}
	}
	grids := 0
	for _, g := range []bool{*scale, *serve, *approx, *faultsFlag} {
		if g {
			grids++
		}
	}
	if grids > 1 {
		return fmt.Errorf("-scale, -serve, -approx and -faults select different grids; run them one at a time")
	}
	if !outSet {
		switch {
		case *scale:
			path = "BENCH_scale.json"
		case *serve:
			path = "BENCH_serve.json"
		case *approx:
			path = "BENCH_approx.json"
		case *faultsFlag:
			path = "BENCH_faults.json"
		default:
			path = "BENCH_kd.json"
		}
	}
	if (*block != 0 || *shardsFlag != 0 || *storeFlag != "") && path != "" {
		// An overridden run is an ablation, not the tracked trajectory:
		// the canonical speedup fields and the -compare cell names assume
		// the default superstep and the grid's own store columns. Keep the
		// output inspectable but never let it masquerade as a tracked
		// BENCH_*.json.
		return fmt.Errorf("-block/-shards/-store runs are ablations: use -out '' (stdout only) so the override cannot overwrite a tracked trajectory")
	}
	if *serve || *faultsFlag {
		if *block != 0 || *shardsFlag != 0 {
			return fmt.Errorf("-block/-shards apply to the round-based grids, not the serving grids")
		}
		if *storeFlag != "" {
			return fmt.Errorf("-store applies to the micro and scale grids; the serving grids carry their own store column")
		}
		if *faultsFlag {
			return runFaults(*quick, path, out)
		}
		return runServe(*quick, path, out)
	}
	if *approx {
		if *block != 0 || *shardsFlag != 0 || *storeFlag != "" {
			return fmt.Errorf("-block/-shards/-store do not apply to the approx grid (it is itself a store comparison)")
		}
		return runApprox(*quick, path, out)
	}
	if *scale {
		if *shardsFlag != 0 {
			return fmt.Errorf("-shards applies to the micro grid; the scale grid runs serial round-mode")
		}
		return runScale(*quick, *block, *storeFlag, path, out)
	}
	rep := report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	cells := grid(*quick)
	if *storeFlag != "" {
		s, err := kdchoice.ParseStore(*storeFlag)
		if err != nil {
			return err
		}
		// Rewrite every cell onto the override store; the dedup below (also
		// used by -block) drops the rows the collapsed store column merges.
		for i := range cells {
			cells[i].Cfg.Store = s
			cells[i].Name = cellName(cells[i].Cfg)
		}
		seen := make(map[string]bool, len(cells))
		dedup := cells[:0]
		for _, c := range cells {
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			dedup = append(dedup, c)
		}
		cells = dedup
	}
	if *block != 0 {
		// Negative values flow through to Config validation, which names
		// the knob in its error. Cells with an explicit Block (the
		// ablation cell) keep their own size, and any resulting name
		// collision (e.g. -block 1 turning cell 0 into the ablation cell)
		// keeps only the first occurrence, so reports never carry
		// ambiguous duplicate rows.
		for i := range cells {
			if cells[i].Cfg.Block != 0 {
				continue
			}
			cells[i].Cfg.Block = *block
			cells[i].Name = cellName(cells[i].Cfg)
		}
		seen := make(map[string]bool, len(cells))
		dedup := cells[:0]
		for _, c := range cells {
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			dedup = append(dedup, c)
		}
		cells = dedup
	}
	if *shardsFlag != 0 {
		// Same contract as -block: cells with an explicit Shards (the
		// tracked sharded cells) keep their own count, negative values
		// flow through to Config validation, and name collisions keep the
		// first occurrence.
		for i := range cells {
			if cells[i].Cfg.Shards != 0 {
				continue
			}
			cells[i].Cfg.Shards = *shardsFlag
			cells[i].Name = cellName(cells[i].Cfg)
		}
		seen := make(map[string]bool, len(cells))
		dedup := cells[:0]
		for _, c := range cells {
			if seen[c.Name] {
				continue
			}
			seen[c.Name] = true
			dedup = append(dedup, c)
		}
		cells = dedup
	}
	for _, c := range cells {
		res, err := runCell(c)
		if err != nil {
			return err
		}
		rep.Grid = append(rep.Grid, res)
		fmt.Fprintf(out, "%-40s %12.0f ns/round %8.1f balls/round %14.0f balls/sec %3d allocs\n",
			res.Name, res.NsPerRound, res.BallsPerRound, res.BallsPerSec, res.AllocsPerRound)
	}
	if rep.Grid[0].NsPerRound > 0 {
		rep.SpeedupFastVsSort = rep.Grid[1].NsPerRound / rep.Grid[0].NsPerRound
		fmt.Fprintf(out, "fast-vs-sort speedup (%s): %.2fx\n", rep.Grid[0].Name, rep.SpeedupFastVsSort)
	}
	if rep.Grid[2].NsPerRound > 0 {
		rep.SpeedupShardsVsSerial = rep.Grid[0].NsPerRound / rep.Grid[2].NsPerRound
		fmt.Fprintf(out, "shards-vs-serial speedup (%s): %.2fx\n", rep.Grid[2].Name, rep.SpeedupShardsVsSerial)
	}
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
