package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// tiny shrinks every workload to a fraction of a second per run.
var tiny = []string{"-scale", "0.001", "-seconds", "0.5"}

// benchmarkFile is the part of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// runBench runs the command in-process and returns its output lines
// decoded as JSON objects.
func runBench(t *testing.T, args ...string) []map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	var lines []map[string]json.RawMessage
	for _, l := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("output line %q: %v", l, err)
		}
		lines = append(lines, m)
	}
	return lines
}

// lastResult decodes the final output line, which must be a result.
func lastResult(t *testing.T, lines []map[string]json.RawMessage) result {
	t.Helper()
	last := lines[len(lines)-1]
	if len(last) != 4 {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys(last))
	}
	var res result
	b, _ := json.Marshal(last)
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func keys(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestBenchmarkFileMatchesCommand(t *testing.T) {
	f := loadBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	wls := workloads()
	if len(wls) != len(f.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(f.Workloads), len(wls))
	}
	for i, w := range f.Workloads {
		check(w.Name)
		if w.Name != wls[i].name || w.Why != wls[i].why {
			t.Errorf("workload %d: file has %q (%q), command has %q (%q)", i, w.Name, w.Why, wls[i].name, wls[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d+%d metrics, command prints %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		check(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: file %s [%s], command %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v / better %q out of contract", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be seconds, lower is better")
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
	for i, m := range f.PerLayer {
		check(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: file %s [%s], command %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestEveryWorkloadPrintsEveryMetric runs each workload untraced and
// traced and checks the result line against BENCHMARK.json.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	f := loadBenchmark(t)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range f.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			args := append([]string{"-workload", w.Name, "-seed", "3"}, tiny...)
			path := filepath.Join(t.TempDir(), "spans.json")
			if traced {
				args = append(args, "-trace", path)
			}
			res := lastResult(t, runBench(t, args...))
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := units[traced]
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", w.Name, traced, name, m, unit)
				}
			}
			if traced {
				var spans struct {
					TraceEvents []traceEvent `json:"traceEvents"`
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(b, &spans); err != nil || len(spans.TraceEvents) == 0 {
					t.Errorf("%s: span file unreadable or empty: %v", w.Name, err)
				}
			}
		}
	}
}

// TestQualityIsExactForASeed pins the allocation's quality to the seed:
// the work is fixed, so any change in max load, gap, message cost or fault
// counts means the allocation law moved.
func TestQualityIsExactForASeed(t *testing.T) {
	exact := map[bool][]string{
		false: {"messages_per_ball"},
		true:  {"kdchoice.max_load", "kdchoice.gap", "faults.probes_lost_per_op", "faults.retries_per_op", "faults.evictions_per_outage"},
	}
	for _, w := range []string{"bign-2shard", "heavy", "serve-faults"} {
		for traced, names := range exact {
			var first map[string]metric
			for i := 0; i < 2; i++ {
				args := append([]string{"-workload", w, "-seed", "7"}, tiny...)
				if traced {
					args = append(args, "-trace", filepath.Join(t.TempDir(), "spans.json"))
				}
				res := lastResult(t, runBench(t, args...))
				if first == nil {
					first = res.Metrics
					continue
				}
				for _, name := range names {
					a, b := first[name], res.Metrics[name]
					if a.Unit == "" || a != b {
						t.Errorf("%s: %s = %+v, then %+v for the same seed", w, name, a, b)
					}
				}
			}
		}
	}
}

// samplesObserver records every round's samples.
type samplesObserver struct{ samples []int }

func (o *samplesObserver) RoundPlaced(_ int, samples, _, _ []int) {
	o.samples = append(o.samples, samples...)
}

// TestTwinStreamMatchesEngine checks the replay's premise: a twin
// xrand.New(seed) stream filled in engine-sized blocks draws exactly the
// samples the engine's rounds use, serial and sharded.
func TestTwinStreamMatchesEngine(t *testing.T) {
	const n, k, d, seed = 4096, 2, 64, 11
	for _, shards := range []int{0, 2} {
		p := core.Params{N: n, K: k, D: d, Store: loadvec.StoreCompact, Shards: shards}
		pr, err := core.New(core.KDChoice, p, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		obs := &samplesObserver{}
		pr.SetObserver(obs)
		rounds := engineBlockRounds(d, shards)
		const blocks = 3
		pr.Place(blocks * rounds * k)
		pr.Close()

		twin := xrand.New(seed)
		want := make([]int, blocks*rounds*d)
		twin.FillRounds(want, make([]uint64, blocks*rounds), d, n)
		if len(obs.samples) != len(want) {
			t.Fatalf("shards=%d: engine reported %d samples, twin drew %d", shards, len(obs.samples), len(want))
		}
		for i := range want {
			if obs.samples[i] != want[i] {
				t.Fatalf("shards=%d: sample %d: engine %d, twin %d", shards, i, obs.samples[i], want[i])
			}
		}
	}
}

// TestLayersAddUpToRound checks the traced decomposition keeps its
// residual: the layer self-times plus the residual equal the core rounds'
// self-time within 1%.
func TestLayersAddUpToRound(t *testing.T) {
	for _, name := range []string{"heavy", "serve-faults"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		wl = wl.scaled(0.001)
		tr := newTracer()
		_, res, err := runWorkload(wl, 5, 0.5, tr)
		if err != nil {
			t.Fatal(err)
		}
		sums := tr.selfTimes(0)
		var coreNs, layers float64
		var rounds int64
		for _, s := range []string{spanPlace, spanInsert, spanDelete} {
			coreNs += float64(sums[s].self.Nanoseconds())
			rounds += sums[s].calls
		}
		for _, s := range []string{spanFillRounds, spanFillIntn, spanGather, spanBulkAdd, spanAddN, spanSub} {
			layers += float64(sums[s].self.Nanoseconds())
		}
		residual := res.Metrics["core.residual_ns_per_round"].Value * float64(rounds)
		if rounds == 0 || math.Abs(layers+residual-coreNs) > 0.01*coreNs {
			t.Errorf("%s: layers %.0f + residual %.0f != core %.0f ns over %d rounds", name, layers, residual, coreNs, rounds)
		}
		if got := res.Metrics["core.round_ns"].Value * float64(rounds); math.Abs(got-coreNs) > 0.01*coreNs {
			t.Errorf("%s: core.round_ns × rounds = %.0f, spans say %.0f", name, got, coreNs)
		}
	}
}

// TestRepeatReportsSpread checks the stability mode: one result per run,
// then one spread line per workload with every end-to-end metric.
func TestRepeatReportsSpread(t *testing.T) {
	lines := runBench(t, append([]string{"-workload", "heavy", "-repeat", "3"}, tiny...)...)
	var last struct {
		Workload string
		Runs     int
		Spread   map[string]spread
	}
	b, _ := json.Marshal(lines[len(lines)-1])
	if err := json.Unmarshal(b, &last); err != nil {
		t.Fatal(err)
	}
	if last.Workload != "heavy" || last.Runs != 3 || len(last.Spread) != len(endToEnd) {
		t.Fatalf("spread line = %+v, want heavy over 3 runs with %d metrics", last, len(endToEnd))
	}
	for _, d := range endToEnd {
		s := last.Spread[d.name]
		if s.Unit != d.unit || s.Q1 > s.Median || s.Median > s.Q3 || s.RelIQR < 0 {
			t.Errorf("%s: spread %+v", d.name, s)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-scale", "2"},
		{"-repeat", "0"},
		{"extra"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run %v: no error", args)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(xs, n=4) for each xs.
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		if q1, q2, q3 := quartiles(c.xs); q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	// statistics.quantiles([1..7], n=100)[98]
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7}, 0.99); math.Abs(got-7.92) > 1e-9 {
		t.Errorf("p99 of 1..7 = %v, want 7.92", got)
	}
}
