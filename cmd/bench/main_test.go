package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	kdchoice "repro"
)

func TestGridShape(t *testing.T) {
	sizes := map[string]int{"kd": 13, "scale": 10, "serve": 7, "approx": 6, "faults": 7}
	for _, quick := range []bool{false, true} {
		for _, g := range gridNames {
			cells := grid(g, quick)
			if len(cells) != sizes[g] {
				t.Fatalf("quick=%v: grid %s has %d cells, want %d", quick, g, len(cells), sizes[g])
			}
			// Every grid opens with the same unratcheted calibration cell.
			want := "single/n=100000"
			if quick {
				want = "single/n=2048"
			}
			if cells[0].name() != want || cells[0].Op != opRound || cells[0].Ratchet {
				t.Fatalf("quick=%v: grid %s opens with %q (ratchet=%v), want the calibration cell %q", quick, g, cells[0].name(), cells[0].Ratchet, want)
			}
			seen := map[string]bool{}
			for _, c := range cells {
				name := c.name()
				if seen[name] {
					t.Fatalf("grid %s: duplicate cell name %q", g, name)
				}
				seen[name] = true
				if err := validConfig(c); err != nil {
					t.Fatalf("cell %s has invalid config: %v", name, err)
				}
				if !strings.Contains(name, fmt.Sprintf("n=%d", c.Cfg.Bins)) {
					t.Fatalf("cell name %q does not reflect its bin count %d", name, c.Cfg.Bins)
				}
				if c.Cfg.Policy == 0 || strings.Contains(name, "policy(") {
					t.Fatalf("cell %q must set Policy explicitly (name does no defaulting)", name)
				}
			}
		}
	}
	if grid("bogus", false) != nil {
		t.Fatal("unknown grid name returned cells")
	}
}

// validConfig checks a cell's allocator configuration the way New does,
// without building an n = 1e8 store.
func validConfig(c cell) error {
	cfg := c.Cfg
	cfg.Bins = min(cfg.Bins, 1<<16)
	if c.Faults != "" {
		plan, err := kdchoice.ParseFaults(c.Faults)
		if err != nil {
			return err
		}
		cfg.Faults = &plan
	}
	a, err := kdchoice.New(cfg)
	if err != nil {
		return err
	}
	a.Close()
	return nil
}

// TestRatchetCells pins the cells -compare re-times: the serial and 4-shard
// acceptance cells (k=2 rounds take the selector's small-k path), the flat
// ranker and counting-path shapes, the per-ball argmin (d-choice and the
// serial StaleBatch round), the serving and faulty serving acceptance
// cells, the compact serving cell (the escape-cell store's AddN, Sub and
// rescanMax), and the n=1e8 nibble cell with its bytes/bin budget.
func TestRatchetCells(t *testing.T) {
	want := []string{
		"kd/fast/n=100000,k=2,d=64",
		"kd/fast/n=100000,k=2,d=64,shards=4",
		"kd/fast/n=100000,k=8,d=16",
		"kd/fast/n=100000,k=128,d=192",
		"dchoice/n=100000,d=2",
		"stale-batch/n=100000,k=8,d=2",
		"serve/oneplusbeta/n=100000,d=2,beta=1,store=hist,churn=0.4",
		"serve/oneplusbeta/n=100000,d=2,beta=1,store=compact,churn=0.4",
		"place/kd/fast/n=100000000,k=2,d=64,store=nibble,warm=0,balls=20000000",
		"serve/oneplusbeta/n=100000,d=2,beta=1,store=hist,churn=0.4,faults=fail:0.0005,200+loss:0.1+retry:2+evict",
	}
	var got []string
	for _, g := range gridNames {
		for _, c := range grid(g, false) {
			if c.Ratchet {
				got = append(got, c.name())
			}
			if c.BinBudget > 0 && (c.BinBudget != 0.6 || c.Cfg.Store != kdchoice.StoreNibble) {
				t.Fatalf("cell %s carries a %v B/bin budget; only the nibble cell is budgeted, at 0.6", c.name(), c.BinBudget)
			}
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("ratchet cells:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTrackedFilesMatchGrids: each tracked BENCH_<grid>.json names exactly
// the cells of its full-size grid, in grid order, so a cell added to or
// removed from a grid must be recorded in or removed from its file too.
func TestTrackedFilesMatchGrids(t *testing.T) {
	for _, g := range gridNames {
		rep, err := readReport(filepath.Join("..", "..", "BENCH_"+g+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tracked, want []string
		for _, c := range rep.Cells {
			tracked = append(tracked, c.Name)
		}
		for _, c := range grid(g, false) {
			want = append(want, c.name())
		}
		if strings.Join(tracked, "\n") != strings.Join(want, "\n") {
			t.Errorf("BENCH_%s.json tracks cells:\n%s\nthe grid has:\n%s", g, strings.Join(tracked, "\n"), strings.Join(want, "\n"))
		}
	}
}

func TestRunCell(t *testing.T) {
	c := cell{Cfg: kdchoice.Config{Bins: 512, K: 2, D: 8, Seed: 1, Policy: kdchoice.KDChoice}, Op: opRound, Warm: 512}
	res, err := measure(c, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.NsPerOp <= 0 || res.Cost.OpsPerSec <= 0 {
		t.Fatalf("ns/op = %v, ops/sec = %v", res.Cost.NsPerOp, res.Cost.OpsPerSec)
	}
	if res.Cost.BallsPerOp != 2 {
		t.Fatalf("balls/round = %v, want 2 (k)", res.Cost.BallsPerOp)
	}
	if res.Cost.AllocsPerOp != 0 {
		t.Fatalf("steady-state rounds allocated: %d allocs/round", res.Cost.AllocsPerOp)
	}
	if res.Cost.BallsPerSec <= 0 {
		t.Fatalf("balls/sec = %v", res.Cost.BallsPerSec)
	}
	if res.Quality != nil {
		t.Fatalf("round cell recorded quality %+v; its final load depends on the calibrated op count", res.Quality)
	}
}

func TestRunScaleCellTiny(t *testing.T) {
	res, err := measure(cell{
		Cfg:   kdchoice.Config{Bins: 4096, K: 2, D: 16, Seed: 1, Policy: kdchoice.KDChoice, Store: kdchoice.StoreCompact},
		Op:    opPlace,
		Warm:  4096,
		Balls: 8192,
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.BallsPerSec <= 0 || res.Cost.NsPerOp <= 0 || res.Cost.BallsPerOp != 2 {
		t.Fatalf("throughput not measured: %+v", res.Cost)
	}
	if res.Quality == nil || res.Quality.TotalBalls != 4096+8192 {
		t.Fatalf("quality = %+v, want TotalBalls = warm + timed", res.Quality)
	}
	if res.Config.Store != "compact" || res.Config.Policy != "kd" {
		t.Fatalf("config = %+v", res.Config)
	}
	if res.Quality.MaxLoad < 2 || res.Quality.Gap <= 0 {
		t.Fatalf("load stats missing: %+v", res.Quality)
	}
}

func TestScaleGridShape(t *testing.T) {
	for _, quick := range []bool{false, true} {
		// Two throughput n values plus one heavy row, three stores each,
		// after the calibration cell.
		cells := grid("scale", quick)[1:]
		if len(cells) != 9 {
			t.Fatalf("quick=%v: scale grid has %d place cells, want 9", quick, len(cells))
		}
		stores := map[string]int{}
		heavy := 0
		for _, c := range cells {
			stores[c.Cfg.Store.String()]++
			if c.Balls == 100*c.Cfg.Bins {
				heavy++
				if c.Cfg.Bins < 10000 {
					t.Fatalf("quick=%v: heavy cell %s too small for a meaningful m=100n run", quick, c.name())
				}
			}
		}
		for _, want := range []string{"dense", "compact", "hist"} {
			if stores[want] != 3 {
				t.Fatalf("quick=%v: store column %q appears %d times, want 3", quick, want, stores[want])
			}
		}
		if heavy != 3 {
			t.Fatalf("quick=%v: %d heavy-load cells, want 3 (one per store)", quick, heavy)
		}
	}
}

// checkQuickReport records grid g in quick mode and checks that the file
// parses into the one report schema with every cell measured: cost on every
// cell, bytes/bin, throughput and total = warm + balls on place cells, zero
// allocations on serve cells.
func checkQuickReport(t *testing.T, g string) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "BENCH_"+g+".json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-grid", g, "-out", outPath}, &buf); err != nil {
		t.Fatalf("grid %s: %v", g, err)
	}
	rep, err := readReport(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid != g || rep.Host.GoVersion == "" || rep.Host.GOMAXPROCS < 1 || rep.Host.NumCPU < 1 {
		t.Fatalf("grid %s: header not recorded: grid=%q host=%+v", g, rep.Grid, rep.Host)
	}
	cells := grid(g, true)
	if len(rep.Cells) != len(cells) {
		t.Fatalf("grid %s: report has %d cells, want %d", g, len(rep.Cells), len(cells))
	}
	for i, res := range rep.Cells {
		if res.Name != cells[i].name() || !strings.Contains(buf.String(), res.Name) {
			t.Fatalf("grid %s: cell %d is %q, want %q in the report and the summary", g, i, res.Name, cells[i].name())
		}
		if strings.Contains(res.Config.Policy, "policy(") {
			t.Fatalf("cell %s recorded unnormalized policy name %q", res.Name, res.Config.Policy)
		}
		if res.Cost.NsPerOp <= 0 || res.Cost.OpsPerSec <= 0 {
			t.Fatalf("cell %s: cost not measured: %+v", res.Name, res.Cost)
		}
		switch res.Config.Op {
		case opPlace:
			if res.Cost.BytesPerBin <= 0 {
				t.Fatalf("cell %s: bytes/bin not measured", res.Name)
			}
			if res.Cost.BallsPerSec <= 0 || res.Quality == nil || res.Quality.TotalBalls != res.Config.Warm+res.Config.Balls {
				t.Fatalf("cell %s: throughput or quality not measured: %+v %+v", res.Name, res.Cost, res.Quality)
			}
		case opServe:
			if res.Cost.AllocsPerOp != 0 {
				t.Fatalf("cell %s: serving allocated %d/op", res.Name, res.Cost.AllocsPerOp)
			}
		}
	}
}

// TestRunQuickWritesReport records every grid but scale in quick mode;
// TestRunScaleQuickWritesReport covers the scale grid.
func TestRunQuickWritesReport(t *testing.T) {
	for _, g := range gridNames {
		if g != "scale" {
			checkQuickReport(t, g)
		}
	}
}

func TestRunScaleQuickWritesReport(t *testing.T) {
	checkQuickReport(t, "scale")
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{{"-bogus"}, {"-grid", "bogus", "-out", ""}} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}

// writeTracked writes one tracked file per grid into a fresh directory:
// cells for grid g, no cells for the others.
func writeTracked(t *testing.T, g string, cells []result) string {
	dir := t.TempDir()
	for _, name := range gridNames {
		rep := report{Grid: name}
		if name == g {
			rep.Cells = cells
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunCompareRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("compare re-times a full-size cell")
	}
	// Files without ratchet cells must warn loudly instead of reading green.
	var ebuf bytes.Buffer
	if err := run([]string{"-compare", writeTracked(t, "", nil)}, &ebuf); err != nil {
		t.Fatalf("empty compare must be non-fatal: %v", err)
	}
	// The scale grid has no ratchet cells, so its file cannot be dead.
	if got := strings.Count(ebuf.String(), "no tracked cells compared"); got != len(gridNames)-1 || strings.Contains(ebuf.String(), "BENCH_scale.json does not carry") {
		t.Fatalf("dead ratchet flagged %d times, want once per file with ratchet cells:\n%s", got, ebuf.String())
	}
	// A missing file is an error, not a pass.
	if err := run([]string{"-compare", t.TempDir()}, &ebuf); err == nil {
		t.Fatal("compare against a directory without tracked files succeeded")
	}
	// Fabricate a kd file carrying only the serial acceptance cell at an
	// impossibly fast time: one compare run then exercises the warning path
	// (guaranteed regression) and the missing-cell skip path while
	// re-timing a single full-size cell.
	var kd []cell
	for _, c := range grid("kd", false) {
		if c.Ratchet {
			kd = append(kd, c)
		}
	}
	dir := writeTracked(t, "kd", []result{{Name: kd[0].name(), Cost: cost{NsPerOp: 1}}})
	var buf bytes.Buffer
	if err := run([]string{"-compare", dir}, &buf); err != nil {
		t.Fatalf("compare must be non-fatal: %v", err)
	}
	out := buf.String()
	// One regression plus a dead-ratchet warning for each other file with
	// ratchet cells.
	if got := strings.Count(out, "PERF WARNING"); got != len(gridNames)-1 {
		t.Fatalf("want %d PERF WARNINGs:\n%s", len(gridNames)-1, out)
	}
	if !strings.Contains(out, "PERF WARNING: "+kd[0].name()+" regressed") {
		t.Fatalf("compare output missing the regression warning for the timed cell:\n%s", out)
	}
	if !strings.Contains(out, "not tracked") || !strings.Contains(out, kd[1].name()) {
		t.Fatalf("compare output missing the skipped-cell notice:\n%s", out)
	}
}

func TestRunProfilesAndBlock(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-block", "3", "-out", "", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "block=3") {
		t.Fatalf("-block 3 not reflected in cell names:\n%s", buf.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	var buf2 bytes.Buffer
	if err := run([]string{"-quick", "-block", "-3", "-out", ""}, &buf2); err == nil {
		t.Fatal("negative -block accepted")
	}
}

func TestOverride(t *testing.T) {
	cells, err := override(grid("kd", true), 1, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	serial := 0
	for _, c := range cells {
		if seen[c.name()] {
			t.Fatalf("duplicate cell %s after override", c.name())
		}
		seen[c.name()] = true
		switch c.Cfg.Policy {
		case kdchoice.StaleBatch, kdchoice.DChoice:
			serial++
			if c.Cfg.Shards != 1 {
				t.Fatalf("-shards reached a serial-only %v cell: %s", c.Cfg.Policy, c.name())
			}
		}
		if c.Cfg.Shards == 0 || c.Cfg.Block == 0 {
			t.Fatalf("cell %s not overridden", c.name())
		}
	}
	if serial != 3 {
		t.Fatalf("override kept %d stale-batch and d-choice cells, want 3", serial)
	}
	// -block 1 turns the acceptance cell into the block=1 ablation cell;
	// the first of the colliding pair is kept.
	if len(cells) != len(grid("kd", true))-1 {
		t.Fatalf("override kept %d cells, want the %d distinct ones", len(cells), len(grid("kd", true))-1)
	}
	if cells, err = override(grid("serve", true), 0, 0, "dense"); err != nil || len(cells) >= len(grid("serve", true)) {
		t.Fatalf("-store dense on the serve grid: %d cells, err %v; want the store column collapsed", len(cells), err)
	}
}

func TestFlagCombinations(t *testing.T) {
	var buf bytes.Buffer
	// -compare is exclusive with the grid flags.
	for _, args := range [][]string{
		{"-quick", "-compare", "."},
		{"-grid", "scale", "-compare", "."},
		{"-block", "2", "-compare", "."},
		{"-store", "hist", "-compare", "."},
		{"-out", "y.json", "-compare", "."},
	} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
	// Ablations must not overwrite a tracked trajectory: without an
	// explicit empty -out the default path would be BENCH_<grid>.json.
	// -block and -shards do not apply to serve cells.
	for _, args := range [][]string{
		{"-quick", "-block", "2"},
		{"-quick", "-shards", "2"},
		{"-quick", "-grid", "scale", "-store", "nibble"},
		{"-quick", "-grid", "serve", "-shards", "2", "-out", ""},
		{"-quick", "-grid", "faults", "-block", "2", "-out", ""},
	} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}
