package core

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// Throughput benchmarks: balls placed per second for each policy. These are
// ablation-grade microbenchmarks; the paper-reproduction benchmarks live in
// the repository root.

func benchPlace(b *testing.B, policy Policy, p Params) {
	b.Helper()
	pr, err := New(policy, p, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Place(batch)
		if pr.Balls() > 1<<22 {
			b.StopTimer()
			pr.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(batch), "balls/op")
}

// BenchmarkRound times one (k,d)-choice round per op on the acceptance
// cell (n = 1e5, k = 2, d = 64), which must stay allocation-free (tracked
// in BENCH_kd.json via cmd/bench).
func BenchmarkRound(b *testing.B) {
	b.Run("fast/n=100000,k=2,d=64", func(b *testing.B) {
		pr, err := New(KDChoice, Params{N: 100000, K: 2, D: 64}, xrand.New(1))
		if err != nil {
			b.Fatal(err)
		}
		pr.Place(100000) // steady state: every bin has load ~1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr.Round()
		}
		b.ReportMetric(float64(pr.p.K), "balls/op")
	})
}

func BenchmarkPlaceKD(b *testing.B) {
	for _, tc := range []struct{ k, d int }{{1, 2}, {2, 3}, {8, 17}, {128, 193}} {
		b.Run(fmt.Sprintf("k=%d,d=%d", tc.k, tc.d), func(b *testing.B) {
			benchPlace(b, KDChoice, Params{N: 1 << 16, K: tc.k, D: tc.d})
		})
	}
}

func BenchmarkPlaceSingle(b *testing.B) {
	benchPlace(b, SingleChoice, Params{N: 1 << 16})
}

func BenchmarkPlaceDChoice(b *testing.B) {
	benchPlace(b, DChoice, Params{N: 1 << 16, D: 2})
}

func BenchmarkPlaceOnePlusBeta(b *testing.B) {
	benchPlace(b, OnePlusBeta, Params{N: 1 << 16, Beta: 0.5})
}

func BenchmarkPlaceAlwaysGoLeft(b *testing.B) {
	benchPlace(b, AlwaysGoLeft, Params{N: 1 << 16, D: 2})
}

func BenchmarkPlaceAdaptiveKD(b *testing.B) {
	benchPlace(b, AdaptiveKD, Params{N: 1 << 16, K: 2, D: 3})
}

func BenchmarkPlaceSAx0(b *testing.B) {
	benchPlace(b, SAx0, Params{N: 1 << 16, X0: 64})
}

// BenchmarkRoundHeavy times one (k,d)-choice round per op in the heavily
// loaded regime the paper's Theorem 2 covers (d = 2k, m ≫ n), after a
// warm-up of 50n balls on n = 1e5 dense bins. Shapes on both sides of the
// flat ranker's d cutoff.
func BenchmarkRoundHeavy(b *testing.B) {
	const n = 100000
	for _, tc := range []struct{ k, d int }{{5, 8}, {8, 16}, {12, 24}, {16, 32}, {24, 48}, {32, 64}} {
		b.Run(fmt.Sprintf("k=%d,d=%d", tc.k, tc.d), func(b *testing.B) {
			pr, err := New(KDChoice, Params{N: n, K: tc.k, D: tc.d}, xrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			pr.Place(50 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr.Round()
			}
		})
	}
}
