// Command bench is the repository benchmark. It drives the (k,d)-choice
// allocator through five workloads from one closed-loop client, checks each
// run's output, and prints the run's metrics as the last line of standard
// output: the end-to-end metrics of BENCHMARK.json on an untraced run, the
// per-layer metrics on a traced run.
//
// It is its own module; run it from the repository root through the script
// that builds it (caches and outputs stay under .bench_build):
//
//	bash bench/run.sh -workload heavy -seed 1 -seconds 10
//	bash bench/run.sh -workload bign -trace 1    # spans in .bench_build/trace.json
//	bash bench/run.sh -repeat 5                  # all workloads, spread of every metric
//
// README.md lists the workloads, the metrics with their bounds, and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/loadvec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, what a user of the library sees.
// Throughput counts a ball placement as one operation on the round
// workloads.
var endToEnd = []metricDef{
	{"balls_per_sec", "balls/s"},
	{"ops_per_sec", "ops/s"},
	{"setup_s", "s"},
	{"bytes_per_bin", "B"},
	{"messages_per_ball", "probes"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (no deletes, no outages), except core.shard_speedup,
// which is 1 for a serial engine.
var perLayer = []metricDef{
	{"kdchoice.window_ns_p50", "ns/item"},
	{"kdchoice.window_ns_p99", "ns/item"},
	{"kdchoice.max_load", "balls"},
	{"kdchoice.gap", "balls"},
	{"xrand.fill_ns_per_sample", "ns"},
	{"loadvec.gather_ns_per_probe", "ns"},
	{"loadvec.gather_bytes_per_probe", "B"},
	{"loadvec.apply_ns_per_ball", "ns"},
	{"loadvec.sub_ns_per_op", "ns"},
	{"core.round_ns", "ns"},
	{"core.residual_ns_per_round", "ns"},
	{"core.shard_speedup", "ratio"},
	{"core.insert_ns", "ns"},
	{"core.delete_ns", "ns"},
	{"core.stall_ns_per_outage", "ns"},
	{"kdchoice.bridge_ns_per_op", "ns"},
	{"faults.tick_ns", "ns"},
	{"faults.probes_lost_per_op", "count"},
	{"faults.retries_per_op", "count"},
	{"faults.evictions_per_outage", "count"},
	{"faults.useful_probe_frac", "fraction"},
	{"runtime.sched_latency_p99_ns", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.allocs_per_op", "allocs"},
	{"bench.trace_overhead_frac", "fraction"},
}

type options struct {
	workloads []workload
	seed      uint64
	seconds   float64
	tracePath string // "" for an untraced run
	repeat    int
	scale     float64
}

// maxTracedWindows caps the traced pass's window spans, and maxTickItems
// the items whose injector ticks are timed.
const (
	maxTracedWindows = 8192
	maxTickItems     = 1 << 21
)

// defaultTracePath is where -trace 1 writes its spans.
const defaultTracePath = ".bench_build/trace.json"

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all five)")
	seed := fs.Uint64("seed", 1, "seed of the allocator, the operation stream and every other input")
	seconds := fs.Float64("seconds", 10, "run length on the reference host; fixes the timed work at seconds × the workload's reference rate")
	trace := fs.String("trace", "0", "0: untraced run (end-to-end metrics); 1 or a file name: traced run (per-layer metrics), spans written there (1 means "+defaultTracePath+")")
	repeat := fs.Int("repeat", 1, "run every selected workload this many times with seeds seed, seed+1, ..., alternating the workload order, then print each metric's median, quartiles and relative IQR")
	scale := fs.Float64("scale", 1, "shrink bins and work by this factor in (0, 1] (tests)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o := options{seed: *seed, seconds: *seconds, repeat: *repeat, scale: *scale}
	switch {
	case !(o.seconds > 0):
		return o, fmt.Errorf("-seconds %v must be positive", o.seconds)
	case o.repeat < 1:
		return o, fmt.Errorf("-repeat %d must be at least 1", o.repeat)
	case !(o.scale > 0 && o.scale <= 1):
		return o, fmt.Errorf("-scale %v must be in (0, 1]", o.scale)
	}
	switch *trace {
	case "0", "":
	case "1":
		o.tracePath = defaultTracePath
	default:
		o.tracePath = *trace
	}
	if *name == "" {
		o.workloads = workloads()
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			return o, err
		}
		o.workloads = []workload{wl}
	}
	for i := range o.workloads {
		o.workloads[i] = o.workloads[i].scaled(o.scale)
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line printed before each result: what ran, on what host.
type info struct {
	Workload    string `json:"workload"`
	Why         string `json:"why"`
	Config      string `json:"config"`
	Seed        uint64 `json:"seed"`
	Traced      bool   `json:"traced"`
	Windows     int    `json:"windows"` // samples behind the window metrics
	WindowItems int    `json:"window_items"`
	Setups      int    `json:"setups"`
	Host        host   `json:"host"`
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	var tr *tracer
	if o.tracePath != "" {
		tr = newTracer()
	}
	runs := make(map[string][]map[string]float64)
	var pending []byte // the latest result line, printed once the next step succeeded
	flush := func() {
		if pending != nil {
			fmt.Fprintf(out, "%s\n", pending)
			pending = nil
		}
	}
	for r := 0; r < o.repeat; r++ {
		order := slices.Clone(o.workloads)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, wl := range order {
			steal := stealTicks()
			inf, res, err := runWorkload(wl, o.seed+uint64(r), o.seconds, tr)
			if err != nil {
				return err
			}
			inf.Host = newHost(stealTicks() - steal)
			line, err := json.Marshal(res)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			flush()
			infLine, _ := json.Marshal(inf) // plain strings and numbers only
			fmt.Fprintf(out, "%s\n", infLine)
			pending = line
			values := make(map[string]float64, len(res.Metrics))
			for k, m := range res.Metrics {
				values[k] = m.Value
			}
			runs[wl.name] = append(runs[wl.name], values)
		}
	}
	if tr != nil {
		if err := tr.write(o.tracePath); err != nil {
			return err
		}
	}
	flush()
	if o.repeat > 1 {
		return printSpreads(out, o, runs, tr != nil)
	}
	return nil
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(wl workload, seed uint64, seconds float64, tr *tracer) (info, result, error) {
	inf := info{
		Workload: wl.name, Why: wl.why, Config: describe(wl), Seed: seed,
		Traced: tr != nil, WindowItems: wl.window,
	}
	windows := wl.windows(seconds)
	if tr == nil {
		p, err := runPhase(wl, seed, windows, [2]int{minSetups, maxSetups}, nil, 0)
		if err != nil {
			return inf, result{}, err
		}
		inf.Windows, inf.Setups = len(p.windows), len(p.setupS)
		res, err := report(endToEnd, p.items, p.failed, endToEndMetrics(p, wl))
		return inf, res, err
	}

	// Traced: an untraced reference pass of the run's work, a traced pass
	// of a quarter of it (at most maxTracedWindows window spans), then the
	// layer replay.
	ref, err := runPhase(wl, seed, windows, [2]int{1, 1}, nil, 0)
	if err != nil {
		return inf, result{}, err
	}
	from := len(tr.spans)
	root := tr.begin(spanRun, 0)
	traced, err := runPhase(wl, seed, min((windows+3)/4, maxTracedWindows), [2]int{1, 1}, tr, root)
	if err != nil {
		return inf, result{}, err
	}
	// Tracing adds its span recording to the traced pass's wall time. A
	// wall-time comparison of the two passes would read host noise of ±10%
	// instead, so the recording time is counted: spans × the cost of one.
	overhead := float64(len(tr.spans)-from) * float64(spanCost()) / float64(traced.wall())
	rs := tr.begin(spanReplay, root)
	ops, failed, err := replay(wl, seed, replayBlocks(wl, ref.items), tr, rs)
	tr.end(rs, ops)
	if err != nil {
		return inf, result{}, err
	}
	timeTicks(wl, seed, min(ref.items, maxTickItems)/int64(roundSize(wl)), tr, root)
	tr.end(root, 1)
	inf.Windows, inf.Setups = len(ref.windows), len(ref.setupS)
	res, err := report(perLayer, ref.items+traced.items+ops, ref.failed+traced.failed+failed,
		layerMetrics(wl, ref, traced, tr.selfTimes(from), overhead))
	return inf, res, err
}

// roundSize is the balls one round places (1 per serving operation).
func roundSize(wl workload) int {
	if wl.serve {
		return 1
	}
	return wl.cfg.K
}

// describe renders the workload's configuration for the info line.
func describe(wl workload) string {
	c := wl.cfg
	s := fmt.Sprintf("%s n=%d k=%d d=%d store=%s shards=%d", c.Policy, c.Bins, c.K, c.D, c.Store, c.Shards)
	if wl.serve {
		s += fmt.Sprintf(" beta=%g", c.Beta)
	}
	if c.Faults != nil {
		s += " faults=" + c.Faults.String()
	}
	return s
}

// report checks that values holds exactly the defined metrics, all finite,
// and assembles the result line.
func report(defs []metricDef, attempted, failed int64, values map[string]float64) (result, error) {
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	if len(values) != len(defs) {
		return res, fmt.Errorf("internal: %d metric values for %d metrics", len(values), len(defs))
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("internal: metric %s not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if attempted < 1 {
		return res, errors.New("internal: no operation attempted")
	}
	return res, nil
}

// throughputSlices is how many consecutive slices a run is cut into for
// its throughput reading (half a second each at -seconds 10).
const throughputSlices = 20

// endToEndMetrics derives the untraced run's metrics. Throughput is read
// from the run's least disturbed slice: host noise on the reference host
// comes in bursts of about half a second that slow every window inside
// them, so the fastest slice median is the steadiest reading of the code's
// own speed, and a slower engine slows every slice alike.
func endToEndMetrics(p phase, wl workload) map[string]float64 {
	ns := bestSlice(p.nsPerItem(wl.window), throughputSlices)
	return map[string]float64{
		"balls_per_sec":     1e9 / ns * float64(p.inserted) / float64(p.items),
		"ops_per_sec":       1e9 / ns,
		"setup_s":           quantile(p.setupS, 0.5),
		"bytes_per_bin":     p.bytesPerBin,
		"messages_per_ball": p.msgsPerBall,
	}
}

// bestSlice cuts xs into k consecutive slices (fewer if xs is shorter) and
// returns the lowest slice median.
func bestSlice(xs []float64, k int) float64 {
	k = min(k, len(xs))
	best := math.Inf(1)
	for i := 0; i < k; i++ {
		best = min(best, quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], 0.5))
	}
	return best
}

// layerMetrics derives the per-layer metrics from the replay's span
// self-times, the traced pass's windows, and the reference pass's counters.
func layerMetrics(wl workload, ref, traced phase, sums map[string]layerSum, traceOverhead float64) map[string]float64 {
	get := func(names ...string) layerSum {
		var l layerSum
		for _, n := range names {
			l.self += sums[n].self
			l.calls += sums[n].calls
		}
		return l
	}
	fill := get(spanFillRounds, spanFillIntn)
	gth := get(spanGather)
	apply := get(spanBulkAdd, spanAddN)
	sub := get(spanSub)
	place := get(spanPlace)
	// The core layer's rounds: one per Place round, one per serving op.
	core := get(spanPlace, spanInsert, spanDelete)
	residual := 0.0
	if core.calls > 0 {
		residual = float64((core.self - fill.self - gth.self - apply.self - sub.self).Nanoseconds()) / float64(core.calls)
	}
	speedup := 1.0
	if serial := get(spanPlaceSerial); serial.calls > 0 {
		speedup = serial.perCall() / place.perCall()
	}
	bridge := 0.0
	if core.calls > 0 {
		coreItems := core.calls * int64(roundSize(wl))
		bridge = float64(ref.wall().Nanoseconds())/float64(ref.items) - float64(core.self.Nanoseconds())/float64(coreItems)
	}
	kind, _ := loadvec.ParseStoreKind(wl.cfg.Store.String())
	fc := ref.faults
	ns := ref.nsPerItem(wl.window)
	// Fault counters and messages are cumulative from construction, so
	// they are taken per operation of the whole run, set-up included.
	allOps := float64(int64(wl.warm)/int64(roundSize(wl)) + ref.items/int64(roundSize(wl)))
	return map[string]float64{
		"kdchoice.window_ns_p50":         quantile(ns, 0.50),
		"kdchoice.window_ns_p99":         quantile(ns, 0.99),
		"kdchoice.max_load":              float64(ref.maxLoad),
		"kdchoice.gap":                   ref.gap,
		"xrand.fill_ns_per_sample":       fill.perCall(),
		"loadvec.gather_ns_per_probe":    gth.perCall(),
		"loadvec.gather_bytes_per_probe": float64(elemSize(kind)),
		"loadvec.apply_ns_per_ball":      apply.perCall(),
		"loadvec.sub_ns_per_op":          sub.perCall(),
		"core.round_ns":                  core.perCall(),
		"core.residual_ns_per_round":     residual,
		"core.shard_speedup":             speedup,
		"core.insert_ns":                 get(spanInsert).perCall(),
		"core.delete_ns":                 get(spanDelete).perCall(),
		"core.stall_ns_per_outage":       stallPerOutage(traced, wl.window),
		"kdchoice.bridge_ns_per_op":      bridge,
		"faults.tick_ns":                 get(spanTick).perCall(),
		"faults.probes_lost_per_op":      float64(fc.ProbesLost) / allOps,
		"faults.retries_per_op":          float64(fc.Retries) / allOps,
		"faults.evictions_per_outage":    ratio(fc.Evictions, fc.Outages),
		"faults.useful_probe_frac":       1 - ratio(fc.ProbesLost, ref.messages),
		"runtime.sched_latency_p99_ns":   ref.rt.schedP99Ns,
		"runtime.gc_cycles":              float64(ref.rt.gcs),
		"runtime.allocs_per_op":          float64(ref.rt.mallocs) / float64(ref.items),
		"bench.trace_overhead_frac":      traceOverhead,
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stallPerOutage is the extra time of the windows in which an outage began
// (and its eviction ran) over the median quiet window, per outage.
func stallPerOutage(p phase, window int) float64 {
	ns := p.nsPerItem(window)
	var quiet []float64
	var outages int64
	for i, o := range p.outages {
		if o == 0 {
			quiet = append(quiet, ns[i])
		}
		outages += o
	}
	if outages == 0 || len(quiet) == 0 {
		return 0
	}
	base := quantile(quiet, 0.5)
	var extra float64
	for i, o := range p.outages {
		if o > 0 {
			extra += (ns[i] - base) * float64(window)
		}
	}
	return extra / float64(outages)
}

// spread is one metric's distribution over -repeat runs, with quartiles
// as Python's statistics.quantiles(values, n=4) computes them.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	RelIQR float64 `json:"rel_iqr"`
	Unit   string  `json:"unit"`
}

func printSpreads(out io.Writer, o options, runs map[string][]map[string]float64, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, wl := range o.workloads {
		sp := make(map[string]spread, len(defs))
		for _, d := range defs {
			var xs []float64
			for _, r := range runs[wl.name] {
				xs = append(xs, r[d.name])
			}
			q1, med, q3 := quartiles(xs)
			s := spread{Median: med, Q1: q1, Q3: q3, Unit: d.unit}
			if med != 0 {
				s.RelIQR = (q3 - q1) / med
			}
			sp[d.name] = s
		}
		line, err := json.Marshal(struct {
			Workload string            `json:"workload"`
			Runs     int               `json:"runs"`
			Spread   map[string]spread `json:"spread"`
		}{wl.name, len(runs[wl.name]), sp})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}

// quartiles returns the quartiles statistics.quantiles(xs, n=4) gives.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}
