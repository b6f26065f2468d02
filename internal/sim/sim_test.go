package sim

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 256, K: 2, D: 3},
		Runs:   8,
		Seed:   42,
	}
	a := MustRun(cfg)
	b := MustRun(cfg)
	if !reflect.DeepEqual(a.MaxLoads, b.MaxLoads) {
		t.Fatalf("same config produced different max loads: %v vs %v", a.MaxLoads, b.MaxLoads)
	}
	if !reflect.DeepEqual(a.Messages, b.Messages) {
		t.Fatal("same config produced different message counts")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	base := Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 128, K: 1, D: 2},
		Runs:   16,
		Seed:   7,
	}
	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 8
	a := MustRun(serial)
	b := MustRun(parallel)
	if !reflect.DeepEqual(a.MaxLoads, b.MaxLoads) {
		t.Fatalf("parallelism changed results: %v vs %v", a.MaxLoads, b.MaxLoads)
	}
}

func TestRunDefaults(t *testing.T) {
	res := MustRun(Config{Policy: core.SingleChoice, Params: core.Params{N: 64}, Seed: 1})
	if len(res.MaxLoads) != 1 {
		t.Fatalf("default Runs != 1: %d", len(res.MaxLoads))
	}
	// Balls defaulted to N: messages for single choice == balls == 64.
	if res.Messages[0] != 64 {
		t.Fatalf("default Balls: messages = %d, want 64", res.Messages[0])
	}
}

func TestRunInvalidConfig(t *testing.T) {
	_, err := Run(Config{Policy: core.KDChoice, Params: core.Params{N: 8, K: 3, D: 2}})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDistinctMax(t *testing.T) {
	res := &Result{MaxLoads: []int{4, 3, 4, 5, 3}}
	if got := res.DistinctMax(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("DistinctMax = %v", got)
	}
}

func TestMaxAndGapStats(t *testing.T) {
	cfg := Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 128, K: 2, D: 4},
		Runs:   10,
		Seed:   3,
	}
	res := MustRun(cfg)
	ms := res.MaxStats()
	if ms.N() != 10 {
		t.Fatalf("MaxStats N = %d", ms.N())
	}
	if ms.Min() < 1 {
		t.Fatal("max load below 1 is impossible with n balls")
	}
	gs := res.GapStats()
	// Gap = max - 1 here (n balls in n bins): mean gap = mean max - 1.
	if diff := gs.Mean() - (ms.Mean() - 1); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("gap mean %v inconsistent with max mean %v", gs.Mean(), ms.Mean())
	}
}

func TestMeanMessages(t *testing.T) {
	cfg := Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 64, K: 2, D: 6},
		Runs:   4,
		Seed:   9,
	}
	res := MustRun(cfg)
	// 32 rounds x 6 probes = 192 messages per run, every run.
	if got := res.MeanMessages(); got != 192 {
		t.Fatalf("MeanMessages = %v, want 192", got)
	}
	empty := &Result{}
	if empty.MeanMessages() != 0 {
		t.Fatal("empty MeanMessages should be 0")
	}
}

func TestCollectLoadsAndProfile(t *testing.T) {
	cfg := Config{
		Policy:       core.KDChoice,
		Params:       core.Params{N: 64, K: 1, D: 2},
		Runs:         5,
		Seed:         11,
		CollectLoads: true,
	}
	res := MustRun(cfg)
	if len(res.Loads) != 5 {
		t.Fatalf("Loads collected: %d", len(res.Loads))
	}
	for i, v := range res.Loads {
		if v.Total() != 64 {
			t.Fatalf("run %d: total %d", i, v.Total())
		}
	}
	prof, err := res.MeanSortedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 64 {
		t.Fatalf("profile length %d", len(prof))
	}
	// Profile must be non-increasing and its sum must equal the ball count.
	sum := 0.0
	for i, x := range prof {
		sum += x
		if i > 0 && x > prof[i-1]+1e-9 {
			t.Fatalf("profile not sorted at %d: %v > %v", i, x, prof[i-1])
		}
	}
	if sum < 63.99 || sum > 64.01 {
		t.Fatalf("profile sum %v, want 64", sum)
	}
}

func TestProfileAccessorsErrorWithoutLoads(t *testing.T) {
	res := MustRun(Config{Policy: core.SingleChoice, Params: core.Params{N: 16}, Seed: 1})
	if _, err := res.MeanSortedProfile(); err == nil {
		t.Fatal("MeanSortedProfile without CollectLoads should fail")
	}
	if _, err := res.MeanNuY(); err == nil {
		t.Fatal("MeanNuY without CollectLoads should fail")
	}
}

func TestMeanNuY(t *testing.T) {
	cfg := Config{
		Policy:       core.KDChoice,
		Params:       core.Params{N: 64, K: 1, D: 2},
		Runs:         3,
		Seed:         13,
		CollectLoads: true,
	}
	res := MustRun(cfg)
	nu, err := res.MeanNuY()
	if err != nil {
		t.Fatal(err)
	}
	if nu[0] != 64 {
		t.Fatalf("mean nu_0 = %v, want 64 (all bins have >= 0 balls)", nu[0])
	}
	for y := 1; y < len(nu); y++ {
		if nu[y] > nu[y-1] {
			t.Fatalf("mean nu not non-increasing at y=%d", y)
		}
	}
}

func TestDiscardedOnlyForSAx0(t *testing.T) {
	res := MustRun(Config{
		Policy: core.SAx0,
		Params: core.Params{N: 64, X0: 8},
		Balls:  256,
		Runs:   3,
		Seed:   17,
	})
	if res.Discarded == nil {
		t.Fatal("SAx0 result should have Discarded")
	}
	other := MustRun(Config{Policy: core.SingleChoice, Params: core.Params{N: 64}, Seed: 17})
	if other.Discarded != nil {
		t.Fatal("non-SAx0 result should not have Discarded")
	}
}

func TestHeavyBalls(t *testing.T) {
	res := MustRun(Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 32, K: 2, D: 4},
		Balls:  32 * 16,
		Runs:   2,
		Seed:   19,
	})
	for _, g := range res.Gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
	}
	for _, m := range res.MaxLoads {
		if m < 16 {
			t.Fatalf("max load %d below average 16", m)
		}
	}
}

func runAllConfigs() []Config {
	return []Config{
		{Policy: core.KDChoice, Params: core.Params{N: 128, K: 2, D: 3}, Runs: 5, Seed: 1},
		{Policy: core.KDChoice, Params: core.Params{N: 256, K: 1, D: 2}, Runs: 3, Seed: 2},
		{Policy: core.SingleChoice, Params: core.Params{N: 64}, Runs: 7, Seed: 3},
		{Policy: core.OnePlusBeta, Params: core.Params{N: 64, Beta: 0.5}, Runs: 2, Seed: 4},
	}
}

// TestRunAllMatchesRun: scheduling cells on the shared pool must produce
// exactly the per-cell results of running each config alone.
func TestRunAllMatchesRun(t *testing.T) {
	cfgs := runAllConfigs()
	all, err := RunAll(4, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo := MustRun(cfg)
		if !reflect.DeepEqual(all[i].MaxLoads, solo.MaxLoads) {
			t.Fatalf("cell %d: pooled %v vs solo %v", i, all[i].MaxLoads, solo.MaxLoads)
		}
		if !reflect.DeepEqual(all[i].Messages, solo.Messages) {
			t.Fatalf("cell %d: message counts diverged", i)
		}
	}
}

// TestRunAllWorkerCountInvariance: the pool size must not leak into results.
func TestRunAllWorkerCountInvariance(t *testing.T) {
	a, err := RunAll(1, runAllConfigs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAll(8, runAllConfigs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("worker count changed RunAll results")
	}
}

// TestRunAllValidatesEveryCell: one bad cell anywhere fails the whole batch
// before any work is dispatched.
func TestRunAllValidatesEveryCell(t *testing.T) {
	cfgs := runAllConfigs()
	cfgs = append(cfgs, Config{Policy: core.KDChoice, Params: core.Params{N: 8, K: 3, D: 2}})
	if _, err := RunAll(4, cfgs); err == nil {
		t.Fatal("invalid cell accepted")
	}
	if _, err := RunAll(2, nil); err == nil {
		t.Fatal("empty config list accepted")
	}
}

// TestRunTasksCoversEveryPair: the generic pool must call fn exactly once
// per (cell, run) pair, for any worker count.
func TestRunTasksCoversEveryPair(t *testing.T) {
	counts := []int{3, 0, 5, 1}
	for _, workers := range []int{0, 1, 4, 32} {
		var mu sync.Mutex
		seen := make(map[[2]int]int)
		err := RunTasks(workers, counts, func(cell, run int) error {
			mu.Lock()
			seen[[2]int{cell, run}]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if len(seen) != total {
			t.Fatalf("workers=%d: %d distinct pairs, want %d", workers, len(seen), total)
		}
		for pair, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: pair %v ran %d times", workers, pair, n)
			}
			if pair[0] < 0 || pair[0] >= len(counts) || pair[1] < 0 || pair[1] >= counts[pair[0]] {
				t.Fatalf("workers=%d: out-of-range pair %v", workers, pair)
			}
		}
	}
}

// TestRunTasksEmpty: zero total tasks is a no-op, not a hang.
func TestRunTasksEmpty(t *testing.T) {
	if err := RunTasks(4, []int{0, 0}, func(cell, run int) error {
		t.Fatal("fn called with no tasks")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RunTasks(4, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunTasksStopsOnFirstError: an error from fn stops dispatch and is
// returned.
func TestRunTasksStopsOnFirstError(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	const runs = 64
	err := RunTasks(1, []int{runs}, func(cell, run int) error {
		mu.Lock()
		calls++
		mu.Unlock()
		return fmt.Errorf("boom at run %d", run)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls >= runs {
		t.Fatalf("dispatcher pushed all %d runs through a failing fn (%d calls)", runs, calls)
	}
}

// TestRunAllStopsDispatchOnWorkerError: if process construction fails inside
// a worker, the dispatcher must stop instead of pushing every remaining
// (cell, run) pair through the same failure.
func TestRunAllStopsDispatchOnWorkerError(t *testing.T) {
	var mu sync.Mutex
	constructed := 0
	orig := newProcess
	newProcess = func(p core.Policy, params core.Params, rng *xrand.Rand) (*core.Process, error) {
		mu.Lock()
		constructed++
		mu.Unlock()
		return nil, fmt.Errorf("injected failure")
	}
	defer func() { newProcess = orig }()

	const runs = 64
	_, err := RunAll(1, []Config{{Policy: core.SingleChoice, Params: core.Params{N: 16}, Runs: runs, Seed: 1}})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("err = %v, want injected failure", err)
	}
	// With one worker the dispatcher can enqueue at most a couple of tasks
	// past the failing one before it observes the stop signal.
	if constructed >= runs {
		t.Fatalf("dispatcher pushed all %d runs through a failing worker (constructed %d)", runs, constructed)
	}
}
