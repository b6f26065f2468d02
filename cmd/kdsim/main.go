// Command kdsim runs one allocation experiment and prints the resulting
// load statistics next to the paper's theoretical predictions. It is a thin
// front-end over the public kdchoice Experiment API.
//
// Usage:
//
//	kdsim [-n 65536] [-k 2] [-d 3] [-m 0] [-runs 10] [-policy kd] [-beta 0.5]
//	      [-store dense] [-block 0] [-shards 0] [-seed 1]
//	      [-profile 10]
//
// -m 0 places n balls (the paper's canonical experiment); -m > n exercises
// the heavily loaded case of Theorem 2. -d defaults to 3, or to 2 with
// -policy oneplusbeta (the classical two-probe (1+β) process). -policy and
// -store list their valid values (sorted, with one-line memory/accuracy
// notes) in the flag help and in unknown-value errors. -store compact runs
// 10⁷–10⁸ bin experiments in ~2 bytes/bin, -store nibble in ~0.5, and -store
// sketch drops below 0.5 by trading exactness for one-sided overestimates;
// -block overrides the superstep size (bit-identical results for any
// setting).
// -shards >= 2 engages the sharded superstep engine: decisions for each
// block of rounds run in parallel across that many workers, bit-identical
// for ANY worker count (single-choice exactly matches serial; the round
// policies trade a -block-bounded staleness horizon for the parallelism).
// The default 0, like 1, runs serial on every host; stale-batch, dchoice
// and dchoice-coarse run serial only and reject -shards >= 2.
//
// -churn (poisson:R, adversarial:R, diurnal:R,A) or -weights (fixed:W,
// exp:MEAN, uniform:LO,HI, zipf:S,MAX) switch to the online serving mode:
// a churned operation stream of -m operations served by the (1+β) family
// with -d probes and -beta, instead of a one-shot placement.
//
// -faults attaches a deterministic fault plan to either mode: '+'-joined
// clauses fail:R[,T] (bin outages), loss:P (probe loss), noise:B (stale
// reads), retry:R (probe retry budget), evict (re-place balls out of
// failing bins). Faulty runs are bit-reproducible for any -shards value
// and report the fault counters alongside the load statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	kdchoice "repro"
	"repro/internal/stats"
	"repro/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kdsim", flag.ContinueOnError)
	n := fs.Int("n", 1<<16, "number of bins")
	k := fs.Int("k", 2, "balls per round")
	d := fs.Int("d", 3, "probes per round (2 for -policy oneplusbeta unless set: the classical two-probe process)")
	m := fs.Int("m", 0, "balls to place (0 = n)")
	runs := fs.Int("runs", 10, "independent runs")
	policyName := fs.String("policy", "kd", "allocation policy, one of:\n"+strings.Join(kdchoice.PolicyHelp(), "\n"))
	beta := fs.Float64("beta", 0.5, "beta for oneplusbeta")
	storeName := fs.String("store", "dense", "bin-load store, one of:\n"+strings.Join(kdchoice.StoreHelp(), "\n"))
	block := fs.Int("block", 0, "superstep size in rounds for the round policies (0 = auto, bit-identical for any value)")
	shards := fs.Int("shards", 0, "parallel decision workers (0 or 1 = serial; >=2 shards kd, fixed-σ kd-serialized, single and oneplusbeta, bit-identical for any worker count; staleness horizon = -block for the round policies)")
	seed := fs.Uint64("seed", 1, "root seed")
	profile := fs.Int("profile", 10, "print the top P mean sorted loads (0 to disable)")
	churnName := fs.String("churn", "none", "serving churn model: "+strings.Join(kdchoice.ChurnNames(), ", ")+" (non-none serves an online stream)")
	weightsName := fs.String("weights", "", "serving ball weights: "+strings.Join(kdchoice.WeightNames(), ", ")+" (empty = unit)")
	faultsSpec := fs.String("faults", "none", "deterministic fault plan: '+'-joined fail:R[,T], loss:P, noise:B, retry:R, evict (e.g. fail:0.001,200+loss:0.1+retry:2)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := kdchoice.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	if policy == kdchoice.OnePlusBeta && !flagSet(fs, "d") {
		*d = 2
	}
	store, err := kdchoice.ParseStore(*storeName)
	if err != nil {
		return err
	}
	var faultPlan *kdchoice.FaultPlan
	if *faultsSpec != "none" {
		plan, err := kdchoice.ParseFaults(*faultsSpec)
		if err != nil {
			return err
		}
		if !plan.Empty() {
			faultPlan = &plan
		}
	}
	if *churnName != "none" || *weightsName != "" {
		return runServe(out, *n, *d, *m, *runs, *beta, *seed, store, *churnName, *weightsName, faultPlan)
	}
	rep, err := kdchoice.Experiment{
		Cells: []kdchoice.Cell{{Config: kdchoice.Config{
			Bins:   *n,
			K:      *k,
			D:      *d,
			Policy: policy,
			Beta:   *beta,
			Store:  store,
			Block:  *block,
			Shards: *shards,
			Faults: faultPlan,
			Seed:   *seed,
		}}},
		Balls:        *m,
		Runs:         *runs,
		Seed:         *seed,
		CollectLoads: *profile > 0,
	}.Run()
	if err != nil {
		return err
	}
	res := &rep.Cells[0]

	balls := *m
	if balls == 0 {
		balls = *n
	}
	fmt.Fprintf(out, "policy=%s n=%d k=%d d=%d balls=%d runs=%d seed=%d\n\n",
		policy, *n, *k, *d, balls, *runs, *seed)

	var maxStats stats.Online
	for _, m := range res.MaxLoads {
		maxStats.Add(float64(m))
	}
	t := table.New("metric", "value")
	t.AddRow("max load (distinct)", table.IntsCell(res.DistinctMax))
	t.AddRowf("max load (mean ± sd)", fmt.Sprintf("%.3f ± %.3f", res.MeanMax, maxStats.StdDev()))
	t.AddRowf("gap max-avg (mean)", fmt.Sprintf("%.3f", res.MeanGap))
	t.AddRowf("messages (mean)", fmt.Sprintf("%.0f", res.MeanMessages))
	t.AddRowf("messages per ball", fmt.Sprintf("%.3f", res.MeanMessages/float64(balls)))
	if faultPlan != nil {
		f := res.TotalFaults
		t.AddRowf("faults: plan", faultPlan.String())
		t.AddRowf("faults: outages / recoveries", fmt.Sprintf("%d / %d", f.Outages, f.Recoveries))
		t.AddRowf("faults: probes lost / retries", fmt.Sprintf("%d / %d", f.ProbesLost, f.Retries))
		t.AddRowf("faults: degraded / fallbacks", fmt.Sprintf("%d / %d", f.Degraded, f.Fallbacks))
		t.AddRowf("faults: evictions / replacements", fmt.Sprintf("%d / %d", f.Evictions, f.Replacements))
	}
	if policy == kdchoice.KDChoice && *k >= 1 && *d > *k {
		t.AddRowf("theory: d_k", fmt.Sprintf("%.3f", kdchoice.Dk(*k, *d)))
		t.AddRowf("theory: gap term", fmt.Sprintf("%.3f", kdchoice.PredictGapTerm(*k, *d, *n)))
		t.AddRowf("theory: crowd term", fmt.Sprintf("%.3f", kdchoice.PredictCrowdTerm(*k, *d)))
		t.AddRowf("theory: regime", kdchoice.Regime(*k, *d, *n))
	}
	fmt.Fprint(out, t.Text())

	if *profile > 0 {
		prof, err := res.MeanSortedProfile()
		if err != nil {
			return err
		}
		limit := *profile
		if limit > len(prof) {
			limit = len(prof)
		}
		fmt.Fprintf(out, "\nmean sorted loads B_1..B_%d:", limit)
		for _, v := range prof[:limit] {
			fmt.Fprintf(out, " %.2f", v)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// flagSet reports whether the command line set the named flag.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runServe runs the online serving mode: a churned operation stream served
// by the (1+β)-capable family, reported on the gap/message axes.
func runServe(out io.Writer, n, d, ops, runs int, beta float64, seed uint64, store kdchoice.Store, churnName, weightsName string, faultPlan *kdchoice.FaultPlan) error {
	spec, err := kdchoice.ParseChurn(churnName)
	if err != nil {
		return err
	}
	if weightsName != "" {
		w, err := kdchoice.ParseWeights(weightsName)
		if err != nil {
			return err
		}
		spec.Weights = w
	}
	cell := kdchoice.ChurnCell{
		Bins:   n,
		D:      d,
		Beta:   beta,
		Ops:    ops,
		Churn:  spec,
		Store:  store,
		Faults: faultPlan,
	}
	rep, err := kdchoice.Study{
		Cells: []kdchoice.AppCell{cell},
		Runs:  runs,
		Seed:  seed,
	}.Run()
	if err != nil {
		return err
	}
	res := &rep.Cells[0]
	if ops == 0 {
		ops = 10 * n
	}
	fmt.Fprintf(out, "serve n=%d d=%d beta=%g ops=%d churn=%s runs=%d seed=%d\n\n",
		n, d, beta, ops, churnName, runs, seed)
	t := table.New("metric", "value")
	t.AddRowf("gap max-mean (mean)", fmt.Sprintf("%.3f", res.MeanGap))
	t.AddRowf("max load (mean)", fmt.Sprintf("%.3f", res.MeanMaxLoad))
	t.AddRowf("messages (mean)", fmt.Sprintf("%.0f", res.MeanMessages))
	t.AddRowf("messages per op", fmt.Sprintf("%.3f", res.MessagesPerUnit))
	if faultPlan != nil {
		f := res.TotalFaults
		t.AddRowf("faults: plan", faultPlan.String())
		t.AddRowf("faults: outages / recoveries", fmt.Sprintf("%d / %d", f.Outages, f.Recoveries))
		t.AddRowf("faults: probes lost / retries", fmt.Sprintf("%d / %d", f.ProbesLost, f.Retries))
		t.AddRowf("faults: degraded / fallbacks", fmt.Sprintf("%d / %d", f.Degraded, f.Fallbacks))
		t.AddRowf("faults: evictions / replacements", fmt.Sprintf("%d / %d", f.Evictions, f.Replacements))
	}
	fmt.Fprint(out, t.Text())
	return nil
}
