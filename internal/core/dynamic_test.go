package core

import (
	"fmt"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestDynamicKDValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := New(DynamicKD, Params{N: 8, D: 1}, rng); err == nil {
		t.Fatal("D=1 accepted")
	}
	if _, err := New(DynamicKD, Params{N: 8, D: 9}, rng); err == nil {
		t.Fatal("D>N accepted")
	}
	if _, err := New(DynamicKD, Params{N: 8, D: 4}, rng); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestDynamicKDConservation(t *testing.T) {
	pr := MustNew(DynamicKD, Params{N: 128, D: 8}, xrand.New(3))
	pr.Place(1000)
	if pr.Balls() != 1000 || pr.Loads().Total() != 1000 {
		t.Fatalf("conservation broken: balls=%d total=%d", pr.Balls(), pr.Loads().Total())
	}
	if pr.Rounds() < 1000/8 {
		t.Fatalf("rounds %d implausibly low", pr.Rounds())
	}
	// Messages = d per round.
	if pr.Messages() != int64(pr.Rounds()*8) {
		t.Fatalf("messages %d != rounds*d %d", pr.Messages(), pr.Rounds()*8)
	}
}

// TestDynamicKDCeiling: the defining property of the dynamic policy — the
// max load stays within one of the running ceiling floor(m/n)+1, even in
// the heavily loaded case, because balls only land at or below it (plus
// the progress fallback).
func TestDynamicKDCeiling(t *testing.T) {
	const n = 256
	pr := MustNew(DynamicKD, Params{N: n, D: 8}, xrand.New(5))
	for _, m := range []int{n, 2 * n, 8 * n} {
		pr.Reset()
		pr.Place(m)
		ceiling := m/n + 1
		if pr.MaxLoad() > ceiling+1 {
			t.Fatalf("m=%d: max load %d exceeds ceiling %d + 1", m, pr.MaxLoad(), ceiling)
		}
	}
}

// TestDynamicKDBeatsStrictAtSameProbeCost: at comparable message budgets
// the dynamic policy should match or beat strict (k,d)-choice on max load,
// the paper's stated motivation for dynamic k.
func TestDynamicKDBeatsStrictAtSameProbeCost(t *testing.T) {
	const n, runs = 1024, 150
	var dyn, strict stats.Online
	var dynMsgs, strictMsgs stats.Online
	for i := 0; i < runs; i++ {
		a := MustNew(DynamicKD, Params{N: n, D: 4}, xrand.NewStream(91, uint64(i)))
		a.Place(n)
		dyn.Add(float64(a.MaxLoad()))
		dynMsgs.Add(float64(a.Messages()))
		b := MustNew(KDChoice, Params{N: n, K: 2, D: 4}, xrand.NewStream(92, uint64(i)))
		b.Place(n)
		strict.Add(float64(b.MaxLoad()))
		strictMsgs.Add(float64(b.Messages()))
	}
	if dyn.Mean() > strict.Mean()+0.15 {
		t.Fatalf("dynamic mean max %.3f worse than strict (2,4) %.3f", dyn.Mean(), strict.Mean())
	}
	t.Logf("dynamic: max %.2f msgs %.0f; strict (2,4): max %.2f msgs %.0f",
		dyn.Mean(), dynMsgs.Mean(), strict.Mean(), strictMsgs.Mean())
}

func TestDynamicKDObserver(t *testing.T) {
	pr := MustNew(DynamicKD, Params{N: 64, D: 4}, xrand.New(7))
	obs := &countObserver{}
	pr.SetObserver(obs)
	pr.Place(200)
	if obs.ballsSeen != 200 {
		t.Fatalf("observer saw %d balls", obs.ballsSeen)
	}
	if obs.roundsSeen != pr.Rounds() {
		t.Fatalf("observer rounds %d != %d", obs.roundsSeen, pr.Rounds())
	}
}

func TestDynamicKDRound(t *testing.T) {
	pr := MustNew(DynamicKD, Params{N: 32, D: 4}, xrand.New(9))
	pr.Round()
	if pr.Balls() < 1 || pr.Balls() > 4 {
		t.Fatalf("one round placed %d balls, want 1..4", pr.Balls())
	}
	if pr.Rounds() != 1 {
		t.Fatalf("Rounds = %d", pr.Rounds())
	}
}

func TestDynamicKDPolicyName(t *testing.T) {
	if DynamicKD.String() != "kd-dynamic" {
		t.Fatalf("name %q", DynamicKD.String())
	}
	p, err := ParsePolicy("kd-dynamic")
	if err != nil || p != DynamicKD {
		t.Fatalf("round trip: %v %v", p, err)
	}
}

// TestDynamicKDRuleViaObserver: every ball lands at height <= ceiling+...
// — specifically at most one ball per round exceeds the ceiling (the
// progress fallback), and all other balls respect it.
func TestDynamicKDRuleViaObserver(t *testing.T) {
	const n = 64
	pr := MustNew(DynamicKD, Params{N: n, D: 6}, xrand.New(11))
	ballsSoFar := 0
	pr.SetObserver(observerFunc(func(round int, samples, placed, heights []int) {
		target := ballsSoFar/n + 1
		over := 0
		for _, h := range heights {
			if h > target {
				over++
			}
		}
		// Either all placements respect the ceiling, or the round was the
		// single-ball fallback.
		if over > 0 && len(placed) != 1 {
			t.Fatalf("round %d: %d balls above ceiling %d in a %d-ball round",
				round, over, target, len(placed))
		}
		ballsSoFar += len(placed)
	}))
	pr.Place(512)
}

// TestDynamicKDMatchesOracle compares DynamicKD with blockOracle round by
// round: the receiving bins and their heights in rank order, and the final
// loads. The rounds rank all d slots, or every slot a final round may
// still place, on each ranking path: the streaming ranker at d <= 4, the
// flat ranker up to d = 48 and the counting path past it, with the
// fall-through of repeated bins at n = 8. Two Place calls per run end in
// partial rounds, on every exact store, at the auto-sized superstep and at
// Block = 1.
func TestDynamicKDMatchesOracle(t *testing.T) {
	for _, tc := range []struct{ n, d int }{{8, 2}, {8, 6}, {100, 3}, {100, 4}, {512, 5}, {512, 16}, {4096, 48}, {4096, 49}, {4096, 64}} {
		for _, st := range walkStores {
			for _, block := range []int{0, 1} {
				name := fmt.Sprintf("n=%d,d=%d/%v/block=%d", tc.n, tc.d, st.kind, block)
				p := Params{N: tc.n, D: tc.d, Store: st.kind, Block: block}
				const seed = 41
				pr := MustNew(DynamicKD, p, xrand.New(seed))
				o := newOracle(DynamicKD, p, seed, nil)
				for _, m := range []int{tc.n/2 + tc.d - 1, 6*tc.n + 1} {
					if err := matchOracle(pr, o, m); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}
