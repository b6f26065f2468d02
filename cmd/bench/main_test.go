package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	kdchoice "repro"
)

func TestGridShape(t *testing.T) {
	for _, quick := range []bool{false, true} {
		cells := grid(quick)
		if len(cells) < 8 {
			t.Fatalf("quick=%v: grid has %d cells, want >= 8", quick, len(cells))
		}
		// The first two cells must be the kernel-ablation pair the speedup
		// is computed from: same shape, fast vs reference kernel.
		a, b := cells[0].Cfg, cells[1].Cfg
		if a.ReferenceSelect || !b.ReferenceSelect {
			t.Fatalf("quick=%v: cells 0/1 are not the fast/sort pair", quick)
		}
		if a.Bins != b.Bins || a.K != b.K || a.D != b.D {
			t.Fatalf("quick=%v: ablation pair shapes differ: %+v vs %+v", quick, a, b)
		}
		// Cell 2 must be the 4-shard variant of cell 0 (the shards-vs-serial
		// speedup pair).
		s := cells[2].Cfg
		if s.Shards != 4 || s.ReferenceSelect || s.Bins != a.Bins || s.K != a.K || s.D != a.D {
			t.Fatalf("quick=%v: cell 2 is not the 4-shard twin of cell 0: %+v", quick, s)
		}
		for _, c := range cells {
			if _, err := kdchoice.New(c.Cfg); err != nil {
				t.Fatalf("cell %s has invalid config: %v", c.Name, err)
			}
			if !strings.Contains(c.Name, fmt.Sprintf("n=%d", c.Cfg.Bins)) {
				t.Fatalf("cell name %q does not reflect its bin count %d", c.Name, c.Cfg.Bins)
			}
			if c.Cfg.Policy == 0 || strings.Contains(c.Name, "policy(") {
				t.Fatalf("cell %q must set Policy explicitly (cellName does no defaulting)", c.Name)
			}
		}
	}
}

func TestRunCell(t *testing.T) {
	res, err := runCell(cell{"kd/tiny", kdchoice.Config{Bins: 512, K: 2, D: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NsPerRound <= 0 {
		t.Fatalf("ns/round = %v", res.NsPerRound)
	}
	if res.BallsPerRound != 2 {
		t.Fatalf("balls/round = %v, want 2 (k)", res.BallsPerRound)
	}
	if res.AllocsPerRound != 0 {
		t.Fatalf("steady-state rounds allocated: %d allocs/round", res.AllocsPerRound)
	}
	if res.BallsPerSec <= 0 {
		t.Fatalf("balls/sec = %v", res.BallsPerSec)
	}
}

func TestRunQuickWritesReport(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-out", outPath}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatalf("summary missing speedup line:\n%s", buf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Grid) != len(grid(true)) {
		t.Fatalf("report has %d cells, want %d", len(rep.Grid), len(grid(true)))
	}
	if rep.SpeedupFastVsSort <= 0 {
		t.Fatal("speedup not recorded")
	}
	if rep.GoVersion == "" {
		t.Fatal("go version not recorded")
	}
	for _, res := range rep.Grid {
		if strings.Contains(res.Policy, "policy(") {
			t.Fatalf("cell %s recorded unnormalized policy name %q", res.Name, res.Policy)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestScaleGridShape(t *testing.T) {
	for _, quick := range []bool{false, true} {
		cells := scaleGrid(quick)
		// Two throughput n values plus one heavy row, three stores each.
		if len(cells) != 9 {
			t.Fatalf("quick=%v: scale grid has %d cells, want 9", quick, len(cells))
		}
		stores := map[string]int{}
		heavy := 0
		for _, c := range cells {
			a, err := kdchoice.New(c.Cfg)
			if err != nil {
				t.Fatalf("cell %s invalid: %v", c.Name, err)
			}
			a.Close()
			stores[c.Cfg.Store.String()]++
			if c.Balls == 100*c.Cfg.Bins {
				heavy++
				if c.Cfg.Bins < 10000 {
					t.Fatalf("quick=%v: heavy cell %s too small for a meaningful m=100n run", quick, c.Name)
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

func TestRunScaleCellTiny(t *testing.T) {
	res, err := runScaleCell(scaleCell{
		Name:  "tiny",
		Cfg:   kdchoice.Config{Bins: 4096, K: 2, D: 16, Seed: 1, Policy: kdchoice.KDChoice, Store: kdchoice.StoreCompact},
		Warm:  4096,
		Balls: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BallsPerSec <= 0 || res.NsPerRound <= 0 {
		t.Fatalf("throughput not measured: %+v", res)
	}
	if res.TotalBalls != 4096+8192 {
		t.Fatalf("TotalBalls = %d", res.TotalBalls)
	}
	if res.Store != "compact" {
		t.Fatalf("Store = %q", res.Store)
	}
	if res.MaxLoad < 2 || res.Gap <= 0 {
		t.Fatalf("load stats missing: %+v", res)
	}
}

func TestRunScaleQuickWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("quick scale grid still places millions of balls")
	}
	outPath := filepath.Join(t.TempDir(), "scale.json")
	var buf bytes.Buffer
	if err := run([]string{"-scale", "-quick", "-out", outPath}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scaleReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(scaleGrid(true)) {
		t.Fatalf("report has %d cells, want %d", len(rep.Cells), len(scaleGrid(true)))
	}
	for _, c := range rep.Cells {
		if c.BytesPerBin <= 0 {
			t.Fatalf("cell %s: bytes/bin not measured", c.Name)
		}
		if c.BallsPerSec <= 0 {
			t.Fatalf("cell %s: throughput not measured", c.Name)
		}
	}
}

func TestRunCompareRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("compare re-times full-size cells")
	}
	// The ratchet cells must exist in the committed grid under the exact
	// names -compare looks up.
	cmpCells := compareCells()
	for _, c := range cmpCells {
		found := false
		for _, g := range grid(false) {
			if g.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("compare cell %q is not part of the tracked grid", c.Name)
		}
	}
	// An empty tracked report must warn loudly instead of reading green.
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"grid":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var ebuf bytes.Buffer
	if err := run([]string{"-compare", empty}, &ebuf); err != nil {
		t.Fatalf("empty compare must be non-fatal: %v", err)
	}
	if !strings.Contains(ebuf.String(), "no tracked cells compared") {
		t.Fatalf("dead ratchet not flagged:\n%s", ebuf.String())
	}
	// Fabricate a tracked report carrying only the serial cell at an
	// impossibly fast time: one compare run then exercises the warning
	// path (guaranteed regression) AND the missing-cell skip path, while
	// re-timing just a single full-size cell — ci.sh already runs the real
	// ratchet over every compare cell, so the test keeps the duplicate work
	// minimal.
	tracked := report{Grid: []result{
		{Name: cmpCells[0].Name, NsPerRound: 1},
	}}
	data, err := json.Marshal(tracked)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tracked.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-compare", path}, &buf); err != nil {
		t.Fatalf("compare must be non-fatal: %v", err)
	}
	out := buf.String()
	if strings.Count(out, "PERF WARNING") != 1 {
		t.Fatalf("want exactly one PERF WARNING:\n%s", out)
	}
	if !strings.Contains(out, cmpCells[0].Name) {
		t.Fatalf("compare output missing the timed cell line:\n%s", out)
	}
	if !strings.Contains(out, "not tracked") || !strings.Contains(out, cmpCells[1].Name) {
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

func TestFlagCombinations(t *testing.T) {
	var buf bytes.Buffer
	// -compare is exclusive with the grid flags.
	for _, args := range [][]string{
		{"-quick", "-compare", "x.json"},
		{"-scale", "-compare", "x.json"},
		{"-block", "2", "-compare", "x.json"},
		{"-out", "y.json", "-compare", "x.json"},
	} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
	// -block ablations must not overwrite a tracked trajectory: without an
	// explicit empty -out the default path would be BENCH_kd.json.
	if err := run([]string{"-quick", "-block", "2"}, &buf); err == nil {
		t.Fatal("-block without -out '' accepted")
	}
	// Same contract for the -shards ablation, and the grid selectors stay
	// mutually exclusive.
	for _, args := range [][]string{
		{"-quick", "-shards", "2"},
		{"-scale", "-serve"},
		{"-serve", "-shards", "2"},
	} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
}
