package kdchoice

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNewDefaultsToKDChoice(t *testing.T) {
	a, err := New(Config{Bins: 64, K: 2, D: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config().Policy != KDChoice {
		t.Fatalf("default policy = %v", a.Config().Policy)
	}
}

func TestNewKD(t *testing.T) {
	a, err := NewKD(128, 2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	a.PlaceAll()
	if a.Balls() != 128 {
		t.Fatalf("Balls = %d", a.Balls())
	}
	if got := int64(128 / 2 * 5); a.Messages() != got {
		t.Fatalf("Messages = %d, want %d", a.Messages(), got)
	}
}

func TestNewErrors(t *testing.T) {
	cases := []Config{
		{Bins: 0, K: 1, D: 2},                     // bad n
		{Bins: 8, K: 2, D: 2},                     // k >= d
		{Bins: 8, K: 1, D: 2, Policy: Policy(99)}, // unknown policy
		{Bins: 8, Policy: OnePlusBeta, Beta: 2},   // bad beta
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestAllPoliciesConstructAndRun(t *testing.T) {
	cases := []Config{
		{Bins: 64, K: 2, D: 3, Policy: KDChoice},
		{Bins: 64, K: 2, D: 3, Policy: Serialized},
		{Bins: 64, K: 2, D: 3, Policy: Serialized, RandomSigma: true},
		{Bins: 64, K: 2, D: 3, Policy: Serialized, Sigma: []int{1, 0}},
		{Bins: 64, D: 2, Policy: DChoice},
		{Bins: 64, Policy: SingleChoice},
		{Bins: 64, Beta: 0.5, Policy: OnePlusBeta},
		{Bins: 64, D: 4, Policy: AlwaysGoLeft},
		{Bins: 64, K: 2, D: 3, Policy: AdaptiveKD},
		{Bins: 64, K: 4, D: 2, Policy: StaleBatch},
		{Bins: 64, D: 4, Policy: DynamicKD},
	}
	for _, cfg := range cases {
		t.Run(cfg.Policy.String(), func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a.PlaceAll()
			if a.Balls() != 64 {
				t.Fatalf("Balls = %d", a.Balls())
			}
			sum := 0
			for _, l := range a.Loads() {
				sum += l
			}
			if sum != 64 {
				t.Fatalf("loads sum %d", sum)
			}
		})
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{
		KDChoice:     "kd",
		Serialized:   "kd-serialized",
		DChoice:      "dchoice",
		SingleChoice: "single",
		OnePlusBeta:  "oneplusbeta",
		AlwaysGoLeft: "alwaysgoleft",
		AdaptiveKD:   "kd-adaptive",
		StaleBatch:   "stale-batch",
		DynamicKD:    "kd-dynamic",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if !strings.Contains(Policy(42).String(), "42") {
		t.Fatal("unknown policy String")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{KDChoice, Serialized, DChoice, SingleChoice,
		OnePlusBeta, AlwaysGoLeft, AdaptiveKD, StaleBatch, DynamicKD} {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParsePolicy(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParsePolicy("zzz"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	// sax0 exists in the engine but is not part of the public surface.
	if _, err := ParsePolicy("sax0"); err == nil {
		t.Fatal("sax0 should not parse at the public layer")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []int {
		a, err := NewKD(256, 3, 7, 99)
		if err != nil {
			t.Fatal(err)
		}
		a.PlaceAll()
		return a.Loads()
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("same seed produced different allocations")
	}
}

func TestPlaceErrors(t *testing.T) {
	a, _ := NewKD(16, 1, 2, 1)
	if err := a.Place(-1); err == nil {
		t.Fatal("Place(-1) accepted")
	}
	if err := a.Place(0); err != nil {
		t.Fatalf("Place(0): %v", err)
	}
	if err := a.Place(5); err != nil {
		t.Fatalf("Place(5): %v", err)
	}
	if a.Balls() != 5 {
		t.Fatalf("Balls = %d", a.Balls())
	}
}

func TestAccessors(t *testing.T) {
	a, _ := NewKD(32, 2, 4, 5)
	a.PlaceAll()
	if a.N() != 32 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Rounds() != 16 {
		t.Fatalf("Rounds = %d", a.Rounds())
	}
	sorted := a.SortedLoads()
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] > sorted[j] }) {
		t.Fatal("SortedLoads not decreasing")
	}
	if sorted[0] != a.MaxLoad() {
		t.Fatal("SortedLoads[0] != MaxLoad")
	}
	if a.BinsWithAtLeast(0) != 32 {
		t.Fatal("BinsWithAtLeast(0) != n")
	}
	if a.BinsWithAtLeast(a.MaxLoad()+1) != 0 {
		t.Fatal("BinsWithAtLeast above max != 0")
	}
	for _, bin := range []int{-1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Load(%d) should panic for out-of-range bin", bin)
				}
			}()
			a.Load(bin)
		}()
	}
	wantGap := float64(a.MaxLoad()) - 1
	if a.Gap() != wantGap {
		t.Fatalf("Gap = %v want %v", a.Gap(), wantGap)
	}
	// Loads is a copy.
	l := a.Loads()
	l[0] = 1 << 30
	if a.Load(0) == 1<<30 {
		t.Fatal("Loads aliases internals")
	}
}

func TestResetAndRound(t *testing.T) {
	a, _ := NewKD(16, 2, 4, 3)
	a.Round()
	if a.Balls() != 2 {
		t.Fatalf("after one round Balls = %d", a.Balls())
	}
	a.Reset()
	if a.Balls() != 0 || a.MaxLoad() != 0 || a.Messages() != 0 {
		t.Fatal("Reset incomplete")
	}
	a.PlaceAll()
	if a.Balls() != 16 {
		t.Fatal("allocator unusable after Reset")
	}
}

func TestTheoryHelpers(t *testing.T) {
	if Dk(1, 2) != 2 {
		t.Fatalf("Dk(1,2) = %v", Dk(1, 2))
	}
	n := 1 << 16
	if PredictMaxLoad(1, 2, n) <= 0 {
		t.Fatal("PredictMaxLoad should be positive")
	}
	if PredictGapTerm(1, 2, n) != PredictMaxLoad(1, 2, n) {
		t.Fatal("for (1,2), gap term should equal full prediction (crowd term 0)")
	}
	if PredictCrowdTerm(192, 193) <= 0 {
		t.Fatal("crowd term for k=192,d=193 should be positive")
	}
	if PredictSingleChoice(n) <= 0 {
		t.Fatal("single-choice prediction should be positive")
	}
	if MessageCost(2, 4, 100) != 200 {
		t.Fatalf("MessageCost = %d", MessageCost(2, 4, 100))
	}
	if Regime(1, 2, n) != "d-choice-like" {
		t.Fatalf("Regime(1,2) = %q", Regime(1, 2, n))
	}
	if Regime(192, 193, n) == "d-choice-like" {
		t.Fatal("Regime(192,193) misclassified")
	}
}

func TestSimulate(t *testing.T) {
	res, err := Simulate(Config{Bins: 256, K: 2, D: 4, Seed: 10}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MaxLoads) != 8 {
		t.Fatalf("MaxLoads len %d", len(res.MaxLoads))
	}
	if len(res.DistinctMax) == 0 || res.MeanMax <= 0 {
		t.Fatal("summary fields empty")
	}
	// DistinctMax must be the sorted distinct values of MaxLoads.
	seen := map[int]bool{}
	for _, m := range res.MaxLoads {
		seen[m] = true
	}
	if len(seen) != len(res.DistinctMax) {
		t.Fatal("DistinctMax inconsistent")
	}
	// Deterministic.
	res2, err := Simulate(Config{Bins: 256, K: 2, D: 4, Seed: 10}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.MaxLoads, res2.MaxLoads) {
		t.Fatal("Simulate not deterministic")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(Config{Bins: 8, K: 1, D: 2}, 0, 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
	if _, err := Simulate(Config{Bins: 8, K: 1, D: 2}, -1, 1); err == nil {
		t.Fatal("balls=-1 accepted")
	}
	if _, err := Simulate(Config{Bins: 8, K: 5, D: 2}, 0, 1); err == nil {
		t.Fatal("bad k/d accepted")
	}
	if _, err := Simulate(Config{Bins: 8, K: 1, D: 2, Policy: Policy(77)}, 0, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSimulateHeavyCase(t *testing.T) {
	res, err := Simulate(Config{Bins: 64, K: 2, D: 4, Seed: 1}, 64*8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.MaxLoads {
		if m < 8 {
			t.Fatalf("heavy-case max load %d below average 8", m)
		}
	}
	if res.MeanGap < 0 {
		t.Fatalf("MeanGap = %v", res.MeanGap)
	}
}

// TestTheorem1Shape: the measured max load should track the predicted
// leading term within a small additive constant across regimes.
func TestTheorem1Shape(t *testing.T) {
	n := 1 << 14
	for _, tc := range []struct{ k, d int }{{1, 2}, {2, 3}, {1, 8}, {4, 8}} {
		res, err := Simulate(Config{Bins: n, K: tc.k, D: tc.d, Seed: 42}, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		pred := PredictMaxLoad(tc.k, tc.d, n)
		if res.MeanMax < pred-3 || res.MeanMax > pred+4 {
			t.Fatalf("(%d,%d): mean max %.2f too far from predicted leading term %.2f",
				tc.k, tc.d, res.MeanMax, pred)
		}
	}
}

func TestStaleBatchPublicAPI(t *testing.T) {
	a, err := New(Config{Bins: 128, K: 4, D: 2, Policy: StaleBatch, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a.PlaceAll()
	if a.Balls() != 128 {
		t.Fatalf("Balls = %d", a.Balls())
	}
	// 32 rounds x 4 balls x 2 probes each.
	if a.Messages() != 256 {
		t.Fatalf("Messages = %d, want 256", a.Messages())
	}
	if a.Config().Policy.String() != "stale-batch" {
		t.Fatalf("policy name %q", a.Config().Policy.String())
	}
}

func TestDynamicKDPublicAPI(t *testing.T) {
	a, err := New(Config{Bins: 256, D: 8, Policy: DynamicKD, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a.PlaceAll()
	if a.Balls() != 256 {
		t.Fatalf("Balls = %d", a.Balls())
	}
	// The ceiling property: max load stays within 1 of floor(m/n)+1 = 2.
	if a.MaxLoad() > 3 {
		t.Fatalf("dynamic max load %d above ceiling+1", a.MaxLoad())
	}
	if a.Config().Policy.String() != "kd-dynamic" {
		t.Fatalf("policy name %q", a.Config().Policy.String())
	}
}

// TestNegativeKDRejected: negative K or D must be rejected with a clear
// message at the kdchoice layer, by both New and Simulate, before they can
// reach core and surface as confusing policy-specific errors.
func TestNegativeKDRejected(t *testing.T) {
	bad := []Config{
		{Bins: 8, K: -1, D: 2},
		{Bins: 8, K: 1, D: -2},
		{Bins: 8, K: -3, D: -1, Policy: SingleChoice},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Fatalf("New(K=%d,D=%d): err = %v, want non-negative complaint", cfg.K, cfg.D, err)
		}
		if _, err := Simulate(cfg, 0, 1); err == nil || !strings.Contains(err.Error(), "non-negative") {
			t.Fatalf("Simulate(K=%d,D=%d): err = %v, want non-negative complaint", cfg.K, cfg.D, err)
		}
	}
}

// TestSimulateZeroPolicyMatchesExplicit: Simulate's zero-value Policy
// default must agree with New's (both mean KDChoice, as the Config docs
// promise).
func TestSimulateZeroPolicyMatchesExplicit(t *testing.T) {
	base := Config{Bins: 128, K: 2, D: 4, Seed: 11}
	explicit := base
	explicit.Policy = KDChoice
	a, err := Simulate(base, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(explicit, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.MaxLoads, b.MaxLoads) {
		t.Fatalf("zero policy %v != explicit KDChoice %v", a.MaxLoads, b.MaxLoads)
	}
}

// TestReferenceSelectPublicCoupling: through the public API, the counting
// kernel and the reference sort kernel must produce identical results for
// the same seed (the select.go coupling, end to end).
func TestReferenceSelectPublicCoupling(t *testing.T) {
	fast, err := New(Config{Bins: 512, K: 4, D: 9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{Bins: 512, K: 4, D: 9, Seed: 21, ReferenceSelect: true})
	if err != nil {
		t.Fatal(err)
	}
	fast.PlaceAll()
	ref.PlaceAll()
	if !reflect.DeepEqual(fast.Loads(), ref.Loads()) {
		t.Fatal("public-API kernels diverged for equal seeds")
	}
	if fast.MaxLoad() != ref.MaxLoad() || fast.Messages() != ref.Messages() {
		t.Fatal("public-API kernel summaries diverged")
	}
}

// TestReferenceSelectRejectsShards: the sharded engine ranks with the
// counting kernel only, so ReferenceSelect with Shards > 1 must fail at
// New, naming both knobs, instead of silently running the fast kernel.
func TestReferenceSelectRejectsShards(t *testing.T) {
	for _, p := range []Policy{KDChoice, Serialized} {
		_, err := New(Config{Bins: 512, K: 2, D: 8, Seed: 1, Policy: p, ReferenceSelect: true, Shards: 2})
		if err == nil || !strings.Contains(err.Error(), "ReferenceSelect") || !strings.Contains(err.Error(), "Shards") {
			t.Fatalf("%v: ReferenceSelect with Shards = 2: err = %v, want a rejection naming both knobs", p, err)
		}
		a, err := New(Config{Bins: 512, K: 2, D: 8, Seed: 1, Policy: p, ReferenceSelect: true, Shards: 1})
		if err != nil {
			t.Fatalf("%v: ReferenceSelect with Shards = 1 rejected: %v", p, err)
		}
		a.Close()
	}
}
