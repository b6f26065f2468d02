package kdchoice_test

// The benchmark harness regenerates every table and figure of the paper at
// laptop scale, one benchmark per experiment (the list below is the
// experiment index; `go run ./cmd/experiments` prints the same experiments
// as a paper-versus-measured report). Benchmarks report the headline
// quantity of their experiment through b.ReportMetric, so
// `go test -bench . -benchmem` doubles as a shape check of the
// reproduction:
//
//	BenchmarkTable1/...        — T1   (max load per (k,d) cell)
//	BenchmarkFigure1Profile    — F1   (B1 − B_β0 decomposition)
//	BenchmarkFigure2Profile    — F2   (B_γ* lower bound)
//	BenchmarkThm1Scaling/...   — E1   (ln ln n growth, d_k = O(1))
//	BenchmarkCorollary1/...    — E2   (d = k+1 plateau)
//	BenchmarkThm2Heavy/...     — E3   (heavy-case gap)
//	BenchmarkMajorization      — E4   (Section 3 properties)
//	BenchmarkTradeoff          — E5   (frontier sweet spots)
//	BenchmarkRemarks           — E6   (Section 1.2 remarks)
//	BenchmarkScheduler/...     — A1   (batch vs per-task response time)
//	BenchmarkStorage/...       — A2   (replica placement balance/cost)
//	BenchmarkAdaptivePolicy    — AB1  (Section 7 water-filling ablation)
//
// Set KD_FULL=1 to run Table 1 at the paper's n = 196608 (minutes of CPU);
// the default uses n = 3·2¹² so the full suite stays fast.

import (
	"fmt"
	"os"
	"testing"

	kdchoice "repro"
	"repro/internal/experiments"
)

// benchN returns the bin count for bench-scale experiments, honoring
// KD_FULL for paper-scale Table 1 runs.
func benchN() int {
	if os.Getenv("KD_FULL") != "" {
		return experiments.PaperN
	}
	return 3 * (1 << 12) // 12288
}

func BenchmarkTable1(b *testing.B) {
	// Representative cells spanning the table's regimes: single choice,
	// two-choice, small-k, d=k+1, and the wide-d column.
	cells := []struct{ k, d int }{
		{1, 1}, {1, 2}, {2, 3}, {8, 9}, {8, 17}, {16, 17}, {128, 193}, {192, 193},
	}
	n := benchN()
	for _, c := range cells {
		name := fmt.Sprintf("k=%d,d=%d", c.k, c.d)
		b.Run(name, func(b *testing.B) {
			var lastMax float64
			for i := 0; i < b.N; i++ {
				cfg := kdchoice.Config{Bins: n, K: c.k, D: c.d, Seed: uint64(i + 1)}
				if c.k == 1 && c.d == 1 {
					cfg = kdchoice.Config{Bins: n, Policy: kdchoice.SingleChoice, Seed: uint64(i + 1)}
				}
				res, err := kdchoice.Simulate(cfg, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				lastMax = float64(res.MaxLoads[0])
			}
			b.ReportMetric(lastMax, "maxload")
			b.ReportMetric(float64(n), "n")
		})
	}
}

func BenchmarkFigure1Profile(b *testing.B) {
	n := benchN()
	var gap, crowd float64
	for i := 0; i < b.N; i++ {
		p, err := experiments.LoadVectorProfile(8, 9, n, 1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		gap = p.MeasuredGap
		crowd = p.BBeta0
	}
	b.ReportMetric(gap, "B1-Bbeta0")
	b.ReportMetric(crowd, "Bbeta0")
}

func BenchmarkFigure2Profile(b *testing.B) {
	n := benchN()
	var bGammaStar float64
	for i := 0; i < b.N; i++ {
		// d_k -> large: the single-choice-like regime of Figure 2.
		p, err := experiments.LoadVectorProfile(192, 193, n, 1, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		bGammaStar = p.BGammaStar
	}
	b.ReportMetric(bGammaStar, "Bgammastar")
}

func BenchmarkThm1Scaling(b *testing.B) {
	for _, kd := range [][2]int{{1, 2}, {2, 4}, {4, 8}} {
		b.Run(fmt.Sprintf("k=%d,d=%d", kd[0], kd[1]), func(b *testing.B) {
			var growth float64
			for i := 0; i < b.N; i++ {
				pts, err := experiments.ScalingSeries(kd[0], kd[1],
					[]int{1 << 10, 1 << 14}, 2, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				growth = pts[1].MeanMax - pts[0].MeanMax
			}
			// The ln ln n signature: tiny growth across a 16x n increase.
			b.ReportMetric(growth, "maxload-growth")
		})
	}
}

func BenchmarkCorollary1(b *testing.B) {
	for _, k := range []int{4, 64} {
		b.Run(fmt.Sprintf("k=%d,d=%d", k, k+1), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := kdchoice.Simulate(kdchoice.Config{Bins: 1 << 14, K: k, D: k + 1, Seed: uint64(i + 1)}, 0, 2)
				if err != nil {
					b.Fatal(err)
				}
				mean = res.MeanMax
			}
			b.ReportMetric(mean, "maxload")
			b.ReportMetric(kdchoice.PredictCrowdTerm(k, k+1), "crowdterm")
		})
	}
}

func BenchmarkThm2Heavy(b *testing.B) {
	for _, mult := range []int{4, 16} {
		b.Run(fmt.Sprintf("m=%dn", mult), func(b *testing.B) {
			const n = 1 << 12
			var gap float64
			for i := 0; i < b.N; i++ {
				res, err := kdchoice.Simulate(kdchoice.Config{Bins: n, K: 2, D: 4, Seed: uint64(i + 1)}, mult*n, 2)
				if err != nil {
					b.Fatal(err)
				}
				gap = res.MeanGap
			}
			b.ReportMetric(gap, "gap")
		})
	}
}

func BenchmarkMajorization(b *testing.B) {
	var holds float64
	for i := 0; i < b.N; i++ {
		checks, err := experiments.MajorizationChecks(1<<10, 60, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		holds = 0
		for _, c := range checks {
			if c.Holds {
				holds++
			}
		}
	}
	b.ReportMetric(holds, "properties-holding(of4)")
}

func BenchmarkTradeoff(b *testing.B) {
	var sweetMax, sweetMsgs float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.TradeoffFrontier(1<<14, 2, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.K > 0 && p.D == 2*p.K {
				sweetMax = p.MeanMax
				sweetMsgs = p.MessagesPerBall
			}
		}
	}
	b.ReportMetric(sweetMax, "d2k-maxload")
	b.ReportMetric(sweetMsgs, "d2k-msgs/ball")
}

func BenchmarkRemarks(b *testing.B) {
	var rows []experiments.RemarkRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Remarks(1<<14, 2, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 3 {
		b.ReportMetric(experiments.MeanOfInts(rows[0].LeftMax), "(8_9)-maxload")
		b.ReportMetric(experiments.MeanOfInts(rows[0].RightMax), "two-choice-maxload")
	}
}

func BenchmarkScheduler(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var batchP95, perTaskP95 float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.SchedulerComparison(experiments.SchedulerOpts{
					Workers: 100, Jobs: 800, Rho: 0.85, Seed: uint64(i + 1), Ks: []int{k},
				})
				if err != nil {
					b.Fatal(err)
				}
				batchP95 = rows[0].BatchP95
				perTaskP95 = rows[0].PerTaskP95
			}
			b.ReportMetric(batchP95, "batch-p95")
			b.ReportMetric(perTaskP95, "pertask-p95")
		})
	}
}

func BenchmarkStorage(b *testing.B) {
	for _, k := range []int{3, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var kdMax, twoMax, kdMsgs float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.StorageComparison(experiments.StorageOpts{
					Servers: 128, Files: 4000, Seed: uint64(i + 1), Ks: []int{k},
				})
				if err != nil {
					b.Fatal(err)
				}
				kdMax = rows[0].KDMax
				twoMax = rows[0].TwoMax
				kdMsgs = rows[0].KDMsgsPerFile
			}
			b.ReportMetric(kdMax, "kd-maxload")
			b.ReportMetric(twoMax, "two-maxload")
			b.ReportMetric(kdMsgs, "kd-msgs/file")
		})
	}
}

func BenchmarkAdaptivePolicy(b *testing.B) {
	var strict, adapt float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AdaptiveAblation(1<<13, 2, uint64(i+1), [][2]int{{192, 193}})
		if err != nil {
			b.Fatal(err)
		}
		strict = pts[0].StrictMax
		adapt = pts[0].AdaptMax
	}
	b.ReportMetric(strict, "strict-maxload")
	b.ReportMetric(adapt, "adaptive-maxload")
}

// BenchmarkAllocatorThroughput measures raw placement speed through the
// public API (balls per second across policies).
func BenchmarkAllocatorThroughput(b *testing.B) {
	cases := []struct {
		name string
		cfg  kdchoice.Config
	}{
		{"kd-2-3", kdchoice.Config{Bins: 1 << 16, K: 2, D: 3, Seed: 1}},
		{"kd-8-17", kdchoice.Config{Bins: 1 << 16, K: 8, D: 17, Seed: 1}},
		{"two-choice", kdchoice.Config{Bins: 1 << 16, K: 1, D: 2, Seed: 1}},
		{"single", kdchoice.Config{Bins: 1 << 16, Policy: kdchoice.SingleChoice, Seed: 1}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			alloc, err := kdchoice.New(tc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			const batch = 4096
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := alloc.Place(batch); err != nil {
					b.Fatal(err)
				}
				if alloc.Balls() > 1<<22 {
					b.StopTimer()
					alloc.Reset()
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(batch), "balls/op")
		})
	}
}

// BenchmarkSharingAblation contrasts the paper's shared-batch model with
// the stale parallel model at equal probe budget (AB2).
func BenchmarkSharingAblation(b *testing.B) {
	var shared, stale float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.SharingAblation(1<<13, 2, uint64(i+1), []int{8})
		if err != nil {
			b.Fatal(err)
		}
		shared = pts[0].SharedMax
		stale = pts[0].StaleMax
	}
	b.ReportMetric(shared, "shared-maxload")
	b.ReportMetric(stale, "stale-maxload")
}

// BenchmarkPipelineStaleness measures the distributed protocol (netsim):
// balance and makespan at increasing dispatcher concurrency (AB3).
func BenchmarkPipelineStaleness(b *testing.B) {
	for _, depth := range []int{1, 16} {
		b.Run(fmt.Sprintf("pipeline=%d", depth), func(b *testing.B) {
			var maxLoad, makespan float64
			for i := 0; i < b.N; i++ {
				pts, err := experiments.PipelineAblation(512, 2, 4, 256, 2, uint64(i+1), []int{depth})
				if err != nil {
					b.Fatal(err)
				}
				maxLoad = pts[0].MeanMax
				makespan = pts[0].MeanMakespan
			}
			b.ReportMetric(maxLoad, "maxload")
			b.ReportMetric(makespan, "makespan")
		})
	}
}
