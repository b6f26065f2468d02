// Command bench runs the repository's tracked performance grids and writes
// each to BENCH_<grid>.json, the trajectories future changes regress
// against. Every grid is a list of cells, every cell one allocator
// configuration plus the op it times, and every file has one schema:
//
//	{"grid", "host", "cells": [{"name", "config", "cost", "quality"}]}
//
// host records the Go version, GOOS/GOARCH, GOMAXPROCS and the CPU count;
// config the cell's parameters; cost ns/op, allocs/op, B/op and ops/sec
// (plus balls/op and balls/sec for round and place cells and bytes/bin for
// place cells); quality the final ball count, max load and gap of a place
// cell. An op is a round for round and place cells, and one insert or
// delete for serve cells.
//
// The grids:
//
//	kd      per-round micro grid through Allocator.Round: the (k,d)-choice
//	        acceptance cell (n = 1e5, k = 2, d = 64) on the serial and the
//	        4-shard superstep engine, a store and a superstep ablation, the
//	        flat-ranker and counting-path shapes, and one cell per baseline
//	        policy
//	scale   one fixed Place per cell at n = 1e6 and 1e7 (k = 2, d = 64) and
//	        an m = 100n heavy-load cell, one column per exact store
//	serve   mixed insert/delete streams (churn = per-op delete probability,
//	        uniform victims) served by (1+β)-choice on every store
//	approx  the sub-byte stores: compact vs nibble vs sketch at n = 1e7,
//	        compact vs nibble at n = 1e8
//	faults  the serving mix under deterministic fault plans
//
// Every grid starts with the same calibration cell, single/n=100000: its
// code does not change, so comparing it across recordings shows how much of
// a difference is the host's speed. It is recorded, never ratcheted.
//
// Usage:
//
//	bench [-grid kd] [-out BENCH_<grid>.json] [-quick]   # record one grid
//	bench -compare .                                      # ratchet (CI)
//	bench -quick -block 1 -out ''                         # ablation
//	bench -cpuprofile cpu.out -memprofile mem.out -out '' # diagnosis
//
// -quick shrinks the cells for smoke tests; tracked files always come from
// the full grids (`scripts/ci.sh bench`). -compare DIR re-times every
// grid's ratchet cells at full size against DIR/BENCH_<grid>.json and
// prints a non-fatal PERF WARNING when a cell's ns/op regresses more than
// 15%, when a cell with a bytes/bin budget exceeds it, or when a file
// carries none of its grid's ratchet cells; any per-op allocation in a
// ratchet cell is an error. -block and -shards override every round and
// place cell that does not set the knob itself, and -store every cell;
// such runs are ablations and require an explicit empty -out, so they can
// never overwrite a tracked file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	kdchoice "repro"
)

// The ops a cell can time.
const (
	opRound = "round" // Allocator.Round, ops counted per round
	opPlace = "place" // one fixed Place(Balls), ops counted per round
	opServe = "serve" // Insert/Delete, one op per call
)

// gridNames lists the grids in recording order.
var gridNames = []string{"kd", "scale", "serve", "approx", "faults"}

// cell is one grid entry: an allocator configuration, the op it times and
// the workload around that op.
type cell struct {
	Cfg kdchoice.Config
	Op  string
	// Warm is the balls placed (round, place) or inserted (serve) before
	// the timed section.
	Warm int
	// Balls is the ball count of a place cell's timed Place.
	Balls int
	// Churn is a serve cell's per-op delete probability; the other ops are
	// inserts.
	Churn float64
	// MaxWeight > 1 draws each served insert's weight uniformly from
	// [1, MaxWeight].
	MaxWeight int
	// Faults is a fault-plan spec (kdchoice.ParseFaults) attached to the
	// allocator.
	Faults string
	// Ratchet marks the cells -compare re-times.
	Ratchet bool
	// BinBudget > 0 is the bytes/bin -compare allows this cell.
	BinBudget float64
}

// name derives the cell name from its configuration, so names can never
// disagree with the recorded parameters (quick mode shrinks n, and the
// names shrink with it). Grid configs always set Policy explicitly, so no
// defaulting logic is duplicated here.
func (c cell) name() string {
	cfg := c.Cfg
	name := fmt.Sprintf("%v/n=%d", cfg.Policy, cfg.Bins)
	if cfg.Policy == kdchoice.KDChoice {
		// "fast" names the selection kernel the (k,d) cells have always
		// run; the tracked files and the ratchet match cells by name.
		name = fmt.Sprintf("kd/fast/n=%d", cfg.Bins)
	}
	if c.Op != opRound {
		name = c.Op + "/" + name
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
	switch c.Op {
	case opPlace:
		name += fmt.Sprintf(",warm=%d,balls=%d", c.Warm, c.Balls)
	case opServe:
		name += fmt.Sprintf(",churn=%g", c.Churn)
		if c.MaxWeight > 1 {
			name += fmt.Sprintf(",w=%d", c.MaxWeight)
		}
	}
	if c.Faults != "" {
		name += ",faults=" + c.Faults
	}
	return name
}

// weight draws one served insert's weight: uniform on [1, MaxWeight] when
// MaxWeight > 1, else 1 without consulting r.
func (c cell) weight(r *rand.Rand) int {
	if c.MaxWeight > 1 {
		return 1 + r.Intn(c.MaxWeight)
	}
	return 1
}

// grid returns the named grid's cells, calibration cell first, or nil for
// an unknown name.
func grid(name string, quick bool) []cell {
	pick := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	kd := func(n, k, d int, st kdchoice.Store) kdchoice.Config {
		return kdchoice.Config{Bins: n, K: k, D: d, Seed: 1, Policy: kdchoice.KDChoice, Store: st}
	}
	round := func(cfg kdchoice.Config) cell { return cell{Cfg: cfg, Op: opRound, Warm: cfg.Bins} }
	served := pick(100_000, 4096)
	serve := func(beta, churn float64, maxWeight int, st kdchoice.Store, faults string) cell {
		cfg := kdchoice.Config{Bins: served, D: 2, Beta: beta, Seed: 1, Policy: kdchoice.OnePlusBeta, Store: st}
		return cell{Cfg: cfg, Op: opServe, Warm: served, Churn: churn, MaxWeight: maxWeight, Faults: faults}
	}
	ratchet := func(c cell) cell {
		c.Ratchet = true
		return c
	}
	exact := []kdchoice.Store{kdchoice.StoreDense, kdchoice.StoreCompact, kdchoice.StoreHist}
	n := pick(100_000, 2048)
	cells := []cell{round(kdchoice.Config{Bins: n, Seed: 1, Policy: kdchoice.SingleChoice})}
	switch name {
	case "kd":
		acc := kd(n, 2, 64, kdchoice.StoreDense)
		// StaleBatch and d-choice run serial only; Shards: 1 keeps
		// -shards off them.
		stale := func(k int) cell {
			return round(kdchoice.Config{Bins: n, K: k, D: 2, Seed: 1, Policy: kdchoice.StaleBatch, Shards: 1})
		}
		sharded, hist, block1, serialized := acc, acc, acc, acc
		sharded.Shards = 4
		hist.Store = kdchoice.StoreHist
		// Superstep ablation: Block=1 pays every per-round fixed cost the
		// auto-sized superstep amortizes away (results are bit-identical).
		block1.Block = 1
		serialized.Policy = kdchoice.Serialized
		cells = append(cells,
			ratchet(round(acc)), ratchet(round(sharded)), round(hist), round(block1),
			// k=8, d=16 rounds take the flat ranker, k=128, d=192 the
			// counting path.
			ratchet(round(kd(n, 8, 16, kdchoice.StoreDense))),
			ratchet(round(kd(n, 128, 192, kdchoice.StoreDense))),
			round(kd(pick(10_000, 512), 2, 4, kdchoice.StoreDense)),
			round(serialized),
			// The per-ball argmin: d-choice and the one-gather StaleBatch
			// round.
			ratchet(round(kdchoice.Config{Bins: n, D: 2, Seed: 1, Policy: kdchoice.DChoice, Shards: 1})),
			round(kdchoice.Config{Bins: n, Beta: 0.5, Seed: 1, Policy: kdchoice.OnePlusBeta}),
			ratchet(stale(8)),
			stale(256),
		)
	case "scale":
		// The acceptance shape at two sizes, then m = 100n in the Theorem 2
		// regime at the cheaper (8,16) shape; one column per exact store.
		for _, n := range []int{pick(1_000_000, 20_000), pick(10_000_000, 100_000)} {
			for _, st := range exact {
				cells = append(cells, cell{Cfg: kd(n, 2, 64, st), Op: opPlace, Warm: min(n, 2_000_000), Balls: min(n, 4_000_000)})
			}
		}
		heavy := pick(1_000_000, 20_000)
		for _, st := range exact {
			cells = append(cells, cell{Cfg: kd(heavy, 8, 16, st), Op: opPlace, Balls: 100 * heavy})
		}
	case "approx":
		// Light load (timed balls <= n) keeps the sketch's saturating
		// counters in range and the nibble store escape-free, so the
		// memory comparison is the structural one.
		n1, n2 := pick(10_000_000, 20_000), pick(100_000_000, 100_000)
		for _, st := range []kdchoice.Store{kdchoice.StoreCompact, kdchoice.StoreNibble, kdchoice.StoreSketch} {
			cells = append(cells, cell{Cfg: kd(n1, 2, 64, st), Op: opPlace, Balls: n1})
		}
		balls := pick(20_000_000, n2)
		cells = append(cells,
			cell{Cfg: kd(n2, 2, 64, kdchoice.StoreCompact), Op: opPlace, Balls: balls},
			// The packed half byte plus headroom for the escape table and
			// runtime slack.
			ratchet(cell{Cfg: kd(n2, 2, 64, kdchoice.StoreNibble), Op: opPlace, Balls: balls, BinBudget: 0.6}),
		)
	case "serve":
		// The acceptance cell rides the histogram store's O(1) amortized
		// deletes; then the store and β ablations, the insert-only baseline
		// and the weighted-add kernel. The compact cell is the only tracked
		// one that serves on the escape-cell store (its AddN, Sub and
		// rescanMax), so it is ratcheted too.
		cells = append(cells,
			ratchet(serve(1, 0.4, 0, kdchoice.StoreHist, "")),
			serve(1, 0.4, 0, kdchoice.StoreDense, ""),
			ratchet(serve(1, 0.4, 0, kdchoice.StoreCompact, "")),
			serve(0.5, 0.4, 0, kdchoice.StoreHist, ""),
			serve(1, 0, 0, kdchoice.StoreHist, ""),
			serve(1, 0.4, 8, kdchoice.StoreHist, ""),
		)
	case "faults":
		// The full plan (outages with recovery and eviction, 10% probe
		// loss, a 2-probe retry budget) exercises every fault hook at once;
		// then the degradation ablation and the dense column.
		cells = append(cells,
			ratchet(serve(1, 0.4, 0, kdchoice.StoreHist, "fail:0.0005,200+loss:0.1+retry:2+evict")),
			serve(1, 0.4, 0, kdchoice.StoreHist, "loss:0.1"),
			serve(1, 0.4, 0, kdchoice.StoreHist, "loss:0.1+retry:2"),
			serve(1, 0.4, 0, kdchoice.StoreHist, "loss:0.3+retry:8"),
			serve(1, 0.4, 0, kdchoice.StoreHist, "fail:0.0005,200+evict"),
			serve(1, 0.4, 0, kdchoice.StoreDense, "loss:0.1+retry:2"),
		)
	default:
		return nil
	}
	return cells
}

// config is a cell's recorded parameters.
type config struct {
	Op        string  `json:"op"`
	Policy    string  `json:"policy"`
	Store     string  `json:"store"`
	N         int     `json:"n"`
	K         int     `json:"k,omitempty"`
	D         int     `json:"d,omitempty"`
	Beta      float64 `json:"beta,omitempty"`
	Block     int     `json:"block,omitempty"`
	Shards    int     `json:"shards,omitempty"`
	Warm      int     `json:"warm,omitempty"`
	Balls     int     `json:"balls,omitempty"`
	Churn     float64 `json:"churn,omitempty"`
	MaxWeight int     `json:"max_weight,omitempty"`
	Faults    string  `json:"faults,omitempty"`
}

// cost is what a cell's op costs.
type cost struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BallsPerOp  float64 `json:"balls_per_op,omitempty"`
	BallsPerSec float64 `json:"balls_per_sec,omitempty"`
	BytesPerBin float64 `json:"bytes_per_bin,omitempty"`
}

// quality is a place cell's final state.
type quality struct {
	TotalBalls int     `json:"total_balls"`
	MaxLoad    int     `json:"max_load"`
	Gap        float64 `json:"gap"`
}

// result is one measured cell.
type result struct {
	Name    string   `json:"name"`
	Config  config   `json:"config"`
	Cost    cost     `json:"cost"`
	Quality *quality `json:"quality,omitempty"`
}

// host describes the recording machine.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

// report is the schema of every BENCH_*.json file.
type report struct {
	Grid  string   `json:"grid"`
	Host  host     `json:"host"`
	Cells []result `json:"cells"`
}

// measure times one cell. Round and serve cells rerun on a fresh allocator
// with a growing op count until the timed section lasts at least goal (the
// schedule of testing.Benchmark); a place cell times its fixed Place once.
// Allocations come from runtime.MemStats read around the timed section,
// counted in whole allocations per op as testing.Benchmark counts them, and
// a place cell's bytes/bin from the live heap after a GC, against the heap
// before its allocator was built.
func measure(c cell, goal time.Duration) (result, error) {
	name := c.name()
	cfg := c.Cfg
	if c.Faults != "" {
		plan, err := kdchoice.ParseFaults(c.Faults)
		if err != nil {
			return result{}, fmt.Errorf("cell %s: %w", name, err)
		}
		cfg.Faults = &plan
	}
	for n := 1; ; {
		var heap, m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heap)
		a, err := kdchoice.New(cfg)
		if err != nil {
			return result{}, fmt.Errorf("cell %s: %w", name, err)
		}
		var mix *rand.Rand
		var live []kdchoice.Ball
		if c.Op == opServe {
			// The op mix is drawn outside the allocator's deterministic
			// stream; a fixed-seed generator keeps the benchmark
			// reproducible.
			mix = rand.New(rand.NewSource(7))
			// Pre-size for the worst case of n further inserts so no slice
			// grows inside the timed loop.
			a.Reserve(c.Warm + n)
			live = make([]kdchoice.Ball, 0, c.Warm+n)
			// The warm-up draws its weights from the cell's own law on a
			// generator of its own, which leaves the op mix unchanged: a
			// weighted cell's registry then allocates its weight array
			// before the timed loop, not inside it.
			warm := rand.New(rand.NewSource(11))
			for i := 0; i < c.Warm && err == nil; i++ {
				var ball kdchoice.Ball
				ball, err = a.InsertW(c.weight(warm))
				live = append(live, ball)
			}
		} else {
			err = a.Place(c.Warm)
		}
		balls0, rounds0 := a.Balls(), a.Rounds()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		switch c.Op {
		case opRound:
			for i := 0; i < n; i++ {
				a.Round()
			}
		case opPlace:
			if err == nil {
				err = a.Place(c.Balls)
			}
		case opServe:
			for i := 0; i < n && err == nil; i++ {
				if len(live) > 0 && mix.Float64() < c.Churn {
					vi := mix.Intn(len(live))
					err = a.Delete(live[vi])
					live[vi] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				var ball kdchoice.Ball
				ball, err = a.InsertW(c.weight(mix))
				live = append(live, ball)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			a.Close()
			return result{}, fmt.Errorf("cell %s: %w", name, err)
		}
		if c.Op != opPlace && elapsed < goal && n < 1e9 {
			a.Close()
			n = nextN(n, elapsed, goal)
			continue
		}
		ops, balls := n, a.Balls()-balls0
		if c.Op == opPlace {
			ops = a.Rounds() - rounds0
		}
		res := result{Name: name, Config: config{
			Op: c.Op, Policy: a.Config().Policy.String(), Store: cfg.Store.String(),
			N: cfg.Bins, K: cfg.K, D: cfg.D, Beta: cfg.Beta,
			Block: cfg.Block, Shards: cfg.Shards, Warm: c.Warm, Balls: c.Balls,
			Churn: c.Churn, MaxWeight: c.MaxWeight, Faults: c.Faults,
		}}
		if ops > 0 {
			secs := elapsed.Seconds()
			res.Cost = cost{
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
				AllocsPerOp: (m1.Mallocs - m0.Mallocs) / uint64(ops),
				BytesPerOp:  (m1.TotalAlloc - m0.TotalAlloc) / uint64(ops),
				OpsPerSec:   float64(ops) / secs,
			}
			if c.Op != opServe {
				res.Cost.BallsPerOp = float64(balls) / float64(ops)
				res.Cost.BallsPerSec = float64(balls) / secs
			}
		}
		if c.Op == opPlace {
			runtime.GC()
			runtime.ReadMemStats(&m1)
			if m1.HeapAlloc > heap.HeapAlloc {
				res.Cost.BytesPerBin = float64(m1.HeapAlloc-heap.HeapAlloc) / float64(cfg.Bins)
			}
			res.Quality = &quality{TotalBalls: a.Balls(), MaxLoad: a.MaxLoad(), Gap: a.Gap()}
		}
		a.Close()
		return res, nil
	}
}

// nextN is testing.Benchmark's op-count schedule: aim 1.2x past the goal
// at the last run's rate, growing at most 100x and at least by one op.
func nextN(n int, elapsed, goal time.Duration) int {
	next := goal.Nanoseconds() * int64(n) / max(elapsed.Nanoseconds(), 1)
	next += next / 5
	return int(min(max(min(next, 100*int64(n)), int64(n)+1), 1e9))
}

// summary is the one-line form of a result.
func summary(r result) string {
	s := fmt.Sprintf("%-64s %10.0f ns/op %14.0f ops/sec %3d allocs/op", r.Name, r.Cost.NsPerOp, r.Cost.OpsPerSec, r.Cost.AllocsPerOp)
	if r.Cost.BallsPerSec > 0 {
		s += fmt.Sprintf(" %14.0f balls/sec", r.Cost.BallsPerSec)
	}
	if r.Cost.BytesPerBin > 0 {
		s += fmt.Sprintf(" %7.3f B/bin", r.Cost.BytesPerBin)
	}
	if q := r.Quality; q != nil {
		s += fmt.Sprintf("  max=%d gap=%.2f", q.MaxLoad, q.Gap)
	}
	return s
}

// override applies the -block, -shards and -store ablations. A cell that
// sets Block or Shards itself keeps its own value; -store rewrites every
// cell. When rewritten names collide, the first cell is kept. Negative
// values flow through to Config validation, which names the knob.
func override(cells []cell, block, shards int, store string) ([]cell, error) {
	var st kdchoice.Store
	if store != "" {
		var err error
		if st, err = kdchoice.ParseStore(store); err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool, len(cells))
	var kept []cell
	for _, c := range cells {
		if c.Op == opServe && (block != 0 || shards != 0) {
			return nil, fmt.Errorf("-block/-shards apply to round and place cells, not serve cell %s", c.name())
		}
		if c.Cfg.Block == 0 {
			c.Cfg.Block = block
		}
		if c.Cfg.Shards == 0 {
			c.Cfg.Shards = shards
		}
		if store != "" {
			c.Cfg.Store = st
		}
		if name := c.name(); !seen[name] {
			seen[name] = true
			kept = append(kept, c)
		}
	}
	return kept, nil
}

// readReport parses one BENCH_*.json file.
func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// writeReport writes rep as indented JSON to path.
func writeReport(path string, rep report, out io.Writer) error {
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

// compare re-times every grid's ratchet cells at full size against
// dir/BENCH_<grid>.json, matching cells by name. ns/op more than 15% over
// the tracked value, bytes/bin over a cell's budget, and a file carrying
// none of its grid's ratchet cells print a PERF WARNING but never fail the
// run: benchmark boxes are noisy, so the ratchet informs rather than
// blocks. Any per-op allocation in a ratchet cell is an error, since the
// hot paths are tracked at 0 allocs/op.
func compare(dir string, out io.Writer) error {
	const threshold = 1.15
	warned := false
	var allocating []string
	for _, g := range gridNames {
		path := filepath.Join(dir, "BENCH_"+g+".json")
		tracked, err := readReport(path)
		if err != nil {
			return fmt.Errorf("compare: %w", err)
		}
		ratchets, compared := 0, 0
		for _, c := range grid(g, false) {
			if !c.Ratchet {
				continue
			}
			ratchets++
			name := c.name()
			var prev *result
			for i := range tracked.Cells {
				if tracked.Cells[i].Name == name {
					prev = &tracked.Cells[i]
					break
				}
			}
			if prev == nil || prev.Cost.NsPerOp <= 0 {
				fmt.Fprintf(out, "compare: cell %q not tracked in %s; skipping\n", name, path)
				continue
			}
			res, err := measure(c, time.Second)
			if err != nil {
				return err
			}
			compared++
			ratio := res.Cost.NsPerOp / prev.Cost.NsPerOp
			fmt.Fprintf(out, "%-64s tracked %8.0f ns/op, now %8.0f ns/op (%.2fx)\n", name, prev.Cost.NsPerOp, res.Cost.NsPerOp, ratio)
			if ratio > threshold {
				warned = true
				fmt.Fprintf(out, "PERF WARNING: %s regressed %.0f%% vs %s (threshold %.0f%%)\n", name, (ratio-1)*100, path, (threshold-1)*100)
			}
			if c.BinBudget > 0 && res.Cost.BytesPerBin > c.BinBudget {
				warned = true
				fmt.Fprintf(out, "PERF WARNING: %s measured %.3f B/bin, over its %.1f B/bin budget\n", name, res.Cost.BytesPerBin, c.BinBudget)
			}
			if res.Cost.AllocsPerOp > 0 {
				allocating = append(allocating, fmt.Sprintf("%s (%d allocs/op)", name, res.Cost.AllocsPerOp))
			}
		}
		if ratchets > 0 && compared == 0 {
			// A dead ratchet must not read as a green one.
			warned = true
			fmt.Fprintf(out, "PERF WARNING: no tracked cells compared — %s does not carry the %s grid's ratchet cells\n", path, g)
		}
	}
	if len(allocating) > 0 {
		return fmt.Errorf("compare: ratchet cells allocate on the hot path, tracked at 0 allocs/op: %s", strings.Join(allocating, ", "))
	}
	if !warned {
		fmt.Fprintln(out, "compare: ratchet cells within threshold and budget")
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	gridName := fs.String("grid", "kd", "grid to run: "+strings.Join(gridNames, ", "))
	outPath := fs.String("out", "", "output JSON path (default BENCH_<grid>.json; empty: stdout only)")
	quick := fs.Bool("quick", false, "tiny cells for smoke testing (do not commit quick results)")
	block := fs.Int("block", 0, "superstep size in rounds applied to every round and place cell (ablation; 0 = auto, bit-identical for any value; requires -out '')")
	shards := fs.Int("shards", 0, "shard count applied to every round and place cell (ablation; bit-identical for any count >= 2; requires -out '')")
	store := fs.String("store", "", "bin store applied to every cell (ablation; one of "+strings.Join(kdchoice.StoreNames(), ", ")+"; requires -out '')")
	compareDir := fs.String("compare", "", "re-time every grid's ratchet cells against DIR/BENCH_<grid>.json: warn on >15% regression or a blown B/bin budget, fail on any per-op allocation")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
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
	if set["compare"] {
		// The ratchet always re-times the full-size ratchet cells of every
		// grid; silently dropping grid flags would make `-quick -compare`
		// look like a smoke check it is not.
		for _, f := range []string{"grid", "quick", "block", "shards", "store", "out"} {
			if set[f] {
				return fmt.Errorf("-compare cannot be combined with -%s (it always re-times the full-size ratchet cells of every grid)", f)
			}
		}
		return compare(*compareDir, out)
	}
	cells := grid(*gridName, *quick)
	if cells == nil {
		return fmt.Errorf("unknown -grid %q (valid: %s)", *gridName, strings.Join(gridNames, ", "))
	}
	// The tracked-file default applies only when -out is not given at all;
	// an explicit empty -out means stdout only (the smoke-test form).
	path := *outPath
	if !set["out"] {
		path = "BENCH_" + *gridName + ".json"
	}
	if *block != 0 || *shards != 0 || *store != "" {
		// An overridden run is an ablation, not the tracked trajectory:
		// keep the output inspectable but never let it masquerade as a
		// tracked BENCH_*.json.
		if path != "" {
			return fmt.Errorf("-block/-shards/-store runs are ablations: use -out '' (stdout only) so the override cannot overwrite a tracked trajectory")
		}
		var err error
		if cells, err = override(cells, *block, *shards, *store); err != nil {
			return err
		}
	}
	goal := time.Second
	if *quick {
		goal = 10 * time.Millisecond
	}
	rep := report{Grid: *gridName, Host: host{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}}
	for _, c := range cells {
		res, err := measure(c, goal)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, res)
		fmt.Fprintln(out, summary(res))
	}
	if path == "" {
		return nil
	}
	return writeReport(path, rep, out)
}
