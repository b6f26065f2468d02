// Package sim is the experiment engine beneath the public kdchoice API: it
// runs allocation processes many times with independent deterministic random
// streams on a bounded shared worker pool, and aggregates the per-run
// results into the summaries the paper's evaluation reports (distinct
// maximum loads à la Table 1, means, gaps, message counts, sorted-load
// profiles for the figure experiments).
//
// The unit of scheduling is a (cell, run) pair: RunAll flattens every run of
// every configuration onto one pool, so a multi-cell sweep keeps all workers
// busy even when individual cells have few runs. Results are written into
// preallocated per-run slots, so the outcome is byte-identical for any
// worker count. Per-run engine knobs (Params.Store, the Params.Block
// superstep size, Params.Shards) flow through untouched, and not all of
// them leave results unchanged: the exact stores and the serial engine's
// Block never change a result, but the sketch store's loads are
// overestimates, and Shards >= 2 changes the law of kd, kd-serialized,
// dchoice and dchoice-coarse at Block > 1 (each round sees its block-start
// loads) and of oneplusbeta (the same law in distribution only). Every
// shard count >= 2 gives the same results.
//
// This package is internal; the sanctioned entry points are
// kdchoice.Experiment, kdchoice.Sweep, and kdchoice.Simulate in the root
// package.
package sim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadvec"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Config describes one experiment cell: a process, a ball count, and a
// number of independent runs.
type Config struct {
	// Policy and Params configure the allocation process.
	Policy core.Policy
	Params core.Params
	// Balls is the number of balls to place per run; 0 means Params.N
	// (the paper's default of n balls into n bins).
	Balls int
	// Runs is the number of independent repetitions; 0 means 1.
	Runs int
	// Seed is the root seed; run i uses the stream (Seed, i). The same
	// Config therefore always produces the same Result.
	Seed uint64
	// Workers bounds the number of concurrent runs when the cell is run on
	// its own via Run; 0 means GOMAXPROCS. RunAll ignores this field — the
	// pool size is shared across cells and passed explicitly.
	Workers int
	// CollectLoads retains each run's final load vector (memory: Runs × N
	// ints); required by RunLoads and the per-run figure experiments.
	CollectLoads bool
	// CollectProfiles streams each finished run's sorted-load profile and
	// occupancy counts into shared integer accumulators instead of
	// retaining the vector: memory stays O(N) for the whole cell rather
	// than O(Runs × N), which is what lets giant heavy-load grids compute
	// MeanSortedProfile/MeanNuY. The sums are integers, so the aggregate is
	// exactly independent of worker count and scheduling order.
	CollectProfiles bool
}

// balls returns the effective ball count.
func (c Config) balls() int {
	if c.Balls > 0 {
		return c.Balls
	}
	return c.Params.N
}

// runs returns the effective run count.
func (c Config) runs() int {
	if c.Runs > 0 {
		return c.Runs
	}
	return 1
}

// Result aggregates the outcome of all runs of one Config. Slices are
// indexed by run.
type Result struct {
	Config   Config
	MaxLoads []int
	Gaps     []float64
	Messages []int64
	// Discarded is only populated for the SAx0 policy.
	Discarded []int
	// Loads is populated when Config.CollectLoads is set.
	Loads []loadvec.Vector
	// Faults is populated (indexed by run) when the config carries an
	// active fault plan.
	Faults []faults.Counters

	// Streaming profile accumulators (Config.CollectProfiles): position-
	// wise sums of the sorted load vectors and of the ν_y occupancy counts
	// over finished runs. Integer sums commute, so the totals are identical
	// for any worker count. Guarded by profMu while runs are in flight.
	profMu     sync.Mutex
	profileSum []int64
	nuSum      []int64
	profRuns   int
}

// accumulateProfile folds one finished run's load vector into the streaming
// accumulators and drops it.
func (r *Result) accumulateProfile(v loadvec.Vector) {
	sorted := v.Sorted()
	nu := v.NuAll()
	r.profMu.Lock()
	defer r.profMu.Unlock()
	if r.profileSum == nil {
		r.profileSum = make([]int64, len(sorted))
	}
	for i, x := range sorted {
		r.profileSum[i] += int64(x)
	}
	for len(r.nuSum) < len(nu) {
		r.nuSum = append(r.nuSum, 0)
	}
	for y, c := range nu {
		r.nuSum[y] += int64(c)
	}
	r.profRuns++
}

// newResult preallocates the per-run slots for one cell.
func newResult(cfg Config) *Result {
	nRuns := cfg.runs()
	res := &Result{
		Config:   cfg,
		MaxLoads: make([]int, nRuns),
		Gaps:     make([]float64, nRuns),
		Messages: make([]int64, nRuns),
	}
	if cfg.Policy == core.SAx0 {
		res.Discarded = make([]int, nRuns)
	}
	if cfg.CollectLoads {
		res.Loads = make([]loadvec.Vector, nRuns)
	}
	if cfg.Params.Faults != nil && !cfg.Params.Faults.Empty() {
		res.Faults = make([]faults.Counters, nRuns)
	}
	return res
}

// task identifies one unit of work: run `run` of cell `cell`.
type task struct {
	cell, run int
}

// newProcess is the construction seam the workers use; tests stub it to
// exercise the stop-on-first-error dispatch path, which is otherwise
// unreachable because RunAll validates every config up front.
var newProcess = core.New

// RunTasks executes counts[i] tasks for every cell i on one shared pool of
// `workers` goroutines (0 means GOMAXPROCS). All (cell, run) pairs are
// flattened onto the pool, so many small cells parallelize as well as one
// cell with many runs. fn is called concurrently from the pool goroutines;
// it must write its outcome into a per-(cell, run) slot of its own so the
// overall result is independent of scheduling order.
//
// The first non-nil error stops dispatching — in-flight tasks finish, the
// remaining ones are never started — and is returned. This generic pool is
// the scheduling substrate shared by the core Experiment/Sweep harness
// (RunAll) and the application-study harness (kdchoice.Study).
func RunTasks(workers int, counts []int, fn func(cell, run int) error) error {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	var (
		wg       sync.WaitGroup
		taskCh   = make(chan task)
		stop     = make(chan struct{})
		stopOnce sync.Once
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				if err := fn(t.cell, t.run); err != nil {
					// Stop the dispatcher: no point running the same
					// failure for every remaining (cell, run) pair.
					stopOnce.Do(func() {
						firstErr = err
						close(stop)
					})
				}
			}
		}()
	}
dispatch:
	for ci := range counts {
		for r := 0; r < counts[ci]; r++ {
			select {
			case taskCh <- task{cell: ci, run: r}:
			case <-stop:
				break dispatch
			}
		}
	}
	close(taskCh)
	wg.Wait()
	return firstErr
}

// RunAll executes every run of every cell on one shared pool of `workers`
// goroutines (0 means GOMAXPROCS). All (cell, run) pairs are scheduled
// together, so a sweep of many small cells parallelizes as well as one cell
// with many runs. Run i of cell c draws from the stream (cfgs[c].Seed, i):
// results are a pure function of the configs, independent of the worker
// count and of scheduling order.
//
// Every config is validated before any work is dispatched; if a process
// construction still fails inside a worker, dispatching stops at the first
// error and RunAll returns it (no partially-zero results are ever returned).
// Each process runs the engine its own config names: Shards 0 and 1 are
// serial, and only an explicit Shards >= 2 starts a per-process worker
// pool under the run pool.
func RunAll(workers int, cfgs []Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: RunAll needs at least one config")
	}
	results := make([]*Result, len(cfgs))
	counts := make([]int, len(cfgs))
	for i, cfg := range cfgs {
		if err := core.Validate(cfg.Policy, cfg.Params); err != nil {
			return nil, fmt.Errorf("sim: invalid config %d: %w", i, err)
		}
		results[i] = newResult(cfg)
		counts[i] = cfg.runs()
	}
	err := RunTasks(workers, counts, func(cell, run int) error {
		cfg := &results[cell].Config
		pr, err := newProcess(cfg.Policy, cfg.Params, xrand.NewStream(cfg.Seed, uint64(run)))
		if err != nil {
			return err
		}
		// Stop the sharded engine's workers (no-op otherwise) even on early
		// exits, so failed batches never leak goroutines.
		defer pr.Close()
		pr.Place(cfg.balls())
		res := results[cell]
		res.MaxLoads[run] = pr.MaxLoad()
		res.Gaps[run] = pr.Gap()
		res.Messages[run] = pr.Messages()
		if res.Discarded != nil {
			res.Discarded[run] = pr.Discarded()
		}
		if res.Faults != nil {
			res.Faults[run] = pr.FaultCounters()
		}
		if cfg.CollectLoads || cfg.CollectProfiles {
			v := pr.Loads()
			if cfg.CollectLoads {
				res.Loads[run] = v
			}
			if cfg.CollectProfiles {
				res.accumulateProfile(v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim: run failed: %w", err)
	}
	return results, nil
}

// Run executes one cell: it is RunAll with a single config, using the
// config's own Workers bound for the pool.
func Run(cfg Config) (*Result, error) {
	results, err := RunAll(cfg.Workers, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// MustRun is Run but panics on error; for tests and examples with constant
// configs.
func MustRun(cfg Config) *Result {
	res, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// DistinctMax returns the sorted distinct maximum loads across runs — the
// exact summary format of the paper's Table 1 cells.
func (r *Result) DistinctMax() []int {
	return stats.DistinctSortedInts(r.MaxLoads)
}

// MaxStats returns an Online accumulator over the per-run maximum loads.
func (r *Result) MaxStats() *stats.Online {
	var o stats.Online
	for _, m := range r.MaxLoads {
		o.Add(float64(m))
	}
	return &o
}

// GapStats returns an Online accumulator over the per-run gaps
// (max − average load).
func (r *Result) GapStats() *stats.Online {
	var o stats.Online
	for _, g := range r.Gaps {
		o.Add(g)
	}
	return &o
}

// MeanMessages returns the average per-run message cost.
func (r *Result) MeanMessages() float64 {
	if len(r.Messages) == 0 {
		return 0
	}
	var sum int64
	for _, m := range r.Messages {
		sum += m
	}
	return float64(sum) / float64(len(r.Messages))
}

// ErrNoLoads is returned by the profile accessors when the runs neither
// retained their load vectors (Config.CollectLoads) nor streamed profile
// sums (Config.CollectProfiles).
var ErrNoLoads = fmt.Errorf("sim: result has no load vectors (set Config.CollectLoads or CollectProfiles)")

// HasProfiles reports whether the profile accessors can serve (either raw
// vectors or streamed sums are present).
func (r *Result) HasProfiles() bool {
	return r.Loads != nil || r.profileSum != nil
}

// MeanSortedProfile returns the position-wise mean of the sorted (desc)
// load vectors over all runs: element x-1 approximates E[B_x], the paper's
// sorted-load curve (Figures 1 and 2). It serves from the retained vectors
// (CollectLoads) or, without them, from the streamed integer sums
// (CollectProfiles); it fails when the runs collected neither.
func (r *Result) MeanSortedProfile() ([]float64, error) {
	if r.Loads == nil {
		if r.profileSum == nil {
			return nil, ErrNoLoads
		}
		acc := make([]float64, len(r.profileSum))
		for i, s := range r.profileSum {
			acc[i] = float64(s) / float64(r.profRuns)
		}
		return acc, nil
	}
	n := r.Config.Params.N
	acc := make([]float64, n)
	for _, v := range r.Loads {
		sorted := v.Sorted()
		for i, x := range sorted {
			acc[i] += float64(x)
		}
	}
	for i := range acc {
		acc[i] /= float64(len(r.Loads))
	}
	return acc, nil
}

// MeanNuY returns the run-averaged ν_y for y in [0, maxload]. Like
// MeanSortedProfile it serves from retained vectors or streamed sums.
func (r *Result) MeanNuY() ([]float64, error) {
	if r.Loads == nil {
		if r.nuSum == nil {
			return nil, ErrNoLoads
		}
		acc := make([]float64, len(r.nuSum))
		for y, s := range r.nuSum {
			acc[y] = float64(s) / float64(r.profRuns)
		}
		return acc, nil
	}
	maxY := 0
	for _, m := range r.MaxLoads {
		if m > maxY {
			maxY = m
		}
	}
	acc := make([]float64, maxY+1)
	for _, v := range r.Loads {
		nu := v.NuAll()
		for y, c := range nu {
			acc[y] += float64(c)
		}
	}
	for i := range acc {
		acc[i] /= float64(len(r.Loads))
	}
	return acc, nil
}
