// Tradeoff: pick (k, d) for your cluster using the paper's Theorem 1.
//
// The paper's punchline is that (k,d)-choice spans the whole spectrum
// between single choice (1 probe/ball, ~ln n/ln ln n max load) and d-choice
// (d probes/ball, ~ln ln n/ln d max load), with two sweet spots:
//
//   - d = 2k, k = polylog n  -> constant max load at 2 probes per ball;
//   - d = k + ln n, k = ln²n -> o(ln ln n) max load at ~1 probe per ball.
//
// This example runs the whole frontier as ONE Experiment — every strategy's
// runs share a bounded worker pool — and prints the Report's cross-cell
// tradeoff curve so you can pick your operating point.
//
// Run with:
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"log"
	"math"

	kdchoice "repro"
)

func main() {
	const n = 1 << 16
	const runs = 10
	logn := int(math.Log(n)) // ~11

	cells := []kdchoice.Cell{
		{Label: "single choice (1 probe/ball)",
			Config: kdchoice.Config{Bins: n, Policy: kdchoice.SingleChoice, Seed: 10}},
		{Label: "(1+β)-choice, β=0.5",
			Config: kdchoice.Config{Bins: n, Policy: kdchoice.OnePlusBeta, Beta: 0.5, Seed: 11}},
		{Label: "two-choice (2 probes/ball)",
			Config: kdchoice.Config{Bins: n, K: 1, D: 2, Seed: 12}},
		{Label: fmt.Sprintf("(k,k+ln n) = (%d,%d)", logn*logn, logn*logn+logn),
			Config: kdchoice.Config{Bins: n, K: logn * logn, D: logn*logn + logn, Seed: 13}},
		{Label: fmt.Sprintf("(k,2k) = (%d,%d)", logn*logn/2, logn*logn),
			Config: kdchoice.Config{Bins: n, K: logn * logn / 2, D: logn * logn, Seed: 14}},
		{Label: "8-choice (8 probes/ball)",
			Config: kdchoice.Config{Bins: n, K: 1, D: 8, Seed: 15}},
	}

	report, err := kdchoice.Experiment{Cells: cells, Runs: runs, Seed: 1}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("n = %d, %d runs per point, %d cells on one shared pool\n\n", n, runs, len(cells))
	fmt.Printf("%-32s  %-12s  %-12s  %s\n", "strategy (by rising msg cost)", "mean max", "probes/ball", "regime")
	byLabel := map[string]kdchoice.TradeoffPoint{}
	for _, p := range report.TradeoffCurve() {
		regime := ""
		if p.Policy == kdchoice.KDChoice && p.K > 0 && p.D > p.K {
			regime = kdchoice.Regime(p.K, p.D, n)
		}
		fmt.Printf("%-32s  %-12.2f  %-12.3f  %s\n", p.Label, p.MeanMaxLoad, p.MessagesPerBall, regime)
		byLabel[p.Label] = p
	}

	// The verdict is read off the rows above, as printed (two decimals).
	two, thin, wide := byLabel[cells[2].Label], byLabel[cells[3].Label], byLabel[cells[4].Label]
	verdict := "beats"
	switch a, b := fmt.Sprintf("%.2f", thin.MeanMaxLoad), fmt.Sprintf("%.2f", two.MeanMaxLoad); {
	case a == b:
		verdict = "ties"
	case thin.MeanMaxLoad > two.MeanMaxLoad:
		verdict = "does not beat"
	}
	fmt.Printf("\nReading the curve: the (k,2k) row reaches a mean max load of %.2f at\n", wide.MeanMaxLoad)
	fmt.Printf("%.3f probes/ball, and the (k,k+ln n) row %s two-choice's max load\n", wide.MessagesPerBall, verdict)
	fmt.Printf("(%.2f vs %.2f) at %.3f probes/ball. The paper's claim that it beats\n", thin.MeanMaxLoad, two.MeanMaxLoad, thin.MessagesPerBall)
	fmt.Println("two-choice with (1+o(1))n messages is asymptotic; the row shows whether")
	fmt.Println("it holds at this n.")
}
