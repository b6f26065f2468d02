package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// This file pins the fault layer's contracts (faults.go):
//
//   - zero cost when inactive: a nil or empty plan is bit-identical to a
//     process built with no Faults field at all, at 0 extra allocs/round;
//   - engine independence when active: faulty runs are bit-identical for
//     ANY Shards/Block setting (fault decisions are serial by design —
//     effectiveShards forces the serial engine);
//   - conservation: the EvictRecover path moves balls without creating
//     or destroying weight, and handles stay valid across evictions;
//   - graceful degradation: even under total probe loss every ball still
//     lands in an up bin, with the fallback counter recording the loss.

// faultPolicyCases enumerates the (policy, params) pairs with a degraded
// path, spanning both round dispatch branches (kd multiset vs per-ball).
var faultPolicyCases = []struct {
	name   string
	policy Policy
	p      Params
}{
	{"kd", KDChoice, Params{N: 96, K: 4, D: 12}},
	{"kd-serialized", SerializedKD, Params{N: 96, K: 3, D: 8, Sigma: []int{2, 0, 1}}},
	{"dchoice", DChoice, Params{N: 96, D: 3}},
	{"dchoice-coarse", CoarseDChoice, Params{N: 96, D: 4, Quantum: 2}},
	{"single", SingleChoice, Params{N: 96}},
	{"oneplusbeta", OnePlusBeta, Params{N: 96, Beta: 0.7}},
	{"threshold", ThresholdChoice, Params{N: 96, D: 4}},
}

// testPlan is a plan exercising every fault mechanism at once.
var testPlan = faults.Plan{FailRate: 0.02, DownFor: 16, LossProb: 0.25, NoiseBound: 1, Retry: 2}

// TestNoPlanBitIdentical: attaching a nil or empty plan must leave the
// process bit-identical to one that never saw the Faults field — across
// policies, stores, and engine configurations.
func TestNoPlanBitIdentical(t *testing.T) {
	const seed, m = 1313, 257
	for _, tc := range faultPolicyCases {
		for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact} {
			for _, plan := range []*faults.Plan{nil, {}} {
				ref := MustNew(tc.policy, withStore(tc.p, store), xrand.New(seed))
				p := withStore(tc.p, store)
				p.Faults = plan
				got := MustNew(tc.policy, p, xrand.New(seed))
				ref.Place(m)
				got.Place(m)
				stateEqual(t, fmt.Sprintf("%s/%s/plan=%v", tc.name, store, plan), ref, got)
				if c := got.FaultCounters(); c.Any() {
					t.Fatalf("%s: inactive plan accumulated counters %+v", tc.name, c)
				}
				ref.Close()
				got.Close()
			}
		}
	}
}

// TestNoPlanZeroAllocs: the nil-guarded hooks must not cost a single
// allocation per round, with and without an (empty) plan attached.
func TestNoPlanZeroAllocs(t *testing.T) {
	for _, plan := range []*faults.Plan{nil, {}} {
		p := Params{N: 256, K: 2, D: 8, Faults: plan}
		pr := MustNew(KDChoice, p, xrand.New(1))
		pr.Round() // warm buffers
		if avg := testing.AllocsPerRun(200, pr.Round); avg != 0 {
			t.Fatalf("plan=%v: %v allocs/round on the unobserved hot path, want 0", plan, avg)
		}
		pr.Close()
	}
}

// TestFaultyRoundZeroAllocs: the degraded round itself must run
// alloc-free once its buffers are warm — the contract -comparefaults
// enforces on the serving path, pinned here on the round path.
func TestFaultyRoundZeroAllocs(t *testing.T) {
	plan := testPlan
	p := Params{N: 256, K: 2, D: 8, Faults: &plan}
	pr := MustNew(KDChoice, p, xrand.New(1))
	for i := 0; i < 64; i++ {
		pr.Round() // warm buffers and the outage queue
	}
	if avg := testing.AllocsPerRun(200, pr.Round); avg != 0 {
		t.Fatalf("%v allocs/round on the degraded round path, want 0", avg)
	}
	pr.Close()
}

// TestFaultyBitIdenticalAnyEngine: with a plan attached, every engine
// configuration must reproduce the serial run bit for bit — the
// determinism half of the fault contract.
func TestFaultyBitIdenticalAnyEngine(t *testing.T) {
	const seed, m = 909, 4*32 + 5
	plan := testPlan
	for _, tc := range faultPolicyCases {
		base := tc.p
		base.Faults = &plan
		ref := MustNew(tc.policy, base, xrand.New(seed))
		ref.Place(m)
		refC := ref.FaultCounters()
		if !refC.Any() {
			t.Fatalf("%s: plan injected nothing over %d balls", tc.name, m)
		}
		for _, engine := range []struct {
			name string
			mut  func(*Params)
		}{
			{"shards=2", func(p *Params) { p.Shards = 2 }},
			{"shards=8", func(p *Params) { p.Shards = 8 }},
			{"block=1", func(p *Params) { p.Block = 1 }},
			{"shards=4,block=7", func(p *Params) { p.Shards = 4; p.Block = 7 }},
		} {
			p := base
			engine.mut(&p)
			if err := Validate(tc.policy, p); err != nil {
				// Engine knob undefined for this policy (e.g. threshold
				// rounds cannot be pre-drawn) — with or without faults.
				continue
			}
			got := MustNew(tc.policy, p, xrand.New(seed))
			got.Place(m)
			stateEqual(t, fmt.Sprintf("%s/%s", tc.name, engine.name), ref, got)
			if gotC := got.FaultCounters(); gotC != refC {
				t.Fatalf("%s/%s: fault counters diverged: %+v vs %+v", tc.name, engine.name, gotC, refC)
			}
			got.Close()
		}
		ref.Close()
	}
}

// TestTotalLossFallback: under loss:1 with no retries every probe is
// lost, yet every ball must still land (in an up bin) via the uniform
// fallback, and the counters must say so.
func TestTotalLossFallback(t *testing.T) {
	plan := faults.Plan{LossProb: 1}
	for _, tc := range faultPolicyCases {
		p := tc.p
		p.Faults = &plan
		pr := MustNew(tc.policy, p, xrand.New(7))
		pr.Place(200)
		if pr.Balls() != 200 {
			t.Fatalf("%s: placed %d of 200 balls under total loss", tc.name, pr.Balls())
		}
		c := pr.FaultCounters()
		if c.Fallbacks == 0 || c.ProbesLost == 0 {
			t.Fatalf("%s: total loss but counters %+v", tc.name, c)
		}
		if c.Retries != 0 {
			t.Fatalf("%s: retries spent with no budget: %+v", tc.name, c)
		}
		pr.Close()
	}
}

// TestRetryRestoresProbes: with a generous retry budget under pure probe
// loss, the decision quality must recover — the retried run's gap stays
// at the fault-free level while the unretried run degrades toward
// fewer-choice behavior. Pinned via the retry counters and the conserved
// ball count rather than a flaky gap comparison.
func TestRetryRestoresProbes(t *testing.T) {
	noRetry := faults.Plan{LossProb: 0.5}
	retry := faults.Plan{LossProb: 0.5, Retry: 8}
	p0 := Params{N: 128, K: 2, D: 8, Faults: &noRetry}
	p1 := Params{N: 128, K: 2, D: 8, Faults: &retry}
	a := MustNew(KDChoice, p0, xrand.New(11))
	b := MustNew(KDChoice, p1, xrand.New(11))
	a.Place(512)
	b.Place(512)
	ca, cb := a.FaultCounters(), b.FaultCounters()
	if ca.Retries != 0 || cb.Retries == 0 {
		t.Fatalf("retry budgets not exercised: %+v vs %+v", ca, cb)
	}
	// Retries are extra probes, so the retried run pays more messages.
	if b.Messages() <= a.Messages() {
		t.Fatalf("retried run sent %d messages, unretried %d — retries are not free", b.Messages(), a.Messages())
	}
	// Degraded rounds must be rarer with the budget than without.
	if cb.Degraded >= ca.Degraded {
		t.Fatalf("retry budget did not reduce degraded rounds: %d (retry) vs %d (none)", cb.Degraded, ca.Degraded)
	}
	a.Close()
	b.Close()
}

// TestEvictRecoverConservation: a churned serving run under outages with
// eviction must conserve live weight exactly — every ball is always in
// exactly one up-or-down bin, evictions move weight atomically, and the
// final scan total matches the live-ball ledger.
func TestEvictRecoverConservation(t *testing.T) {
	plan := faults.Plan{FailRate: 0.05, DownFor: 8, LossProb: 0.2, Retry: 1, Evict: true}
	for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreHist} {
		p := Params{N: 32, Beta: 0.8, D: 2, Store: store, Faults: &plan}
		pr := MustNew(OnePlusBeta, p, xrand.New(99))
		wrng := xrand.NewStream(99, 555)
		type liveBall struct {
			h Ball
			w int
		}
		var live []liveBall
		wantTotal := 0
		for op := 0; op < 3000; op++ {
			if len(live) > 0 && wrng.Bernoulli(0.4) {
				vi := wrng.Intn(len(live))
				if err := pr.Delete(live[vi].h); err != nil {
					t.Fatalf("op %d: Delete: %v", op, err)
				}
				wantTotal -= live[vi].w
				live[vi] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			w := 1 + wrng.Intn(4)
			h, err := pr.InsertW(w)
			if err != nil {
				t.Fatalf("op %d: InsertW: %v", op, err)
			}
			live = append(live, liveBall{h, w})
			wantTotal += w
		}
		if pr.Balls() != len(live) {
			t.Fatalf("store=%v: Balls() = %d, ledger says %d live", store, pr.Balls(), len(live))
		}
		scan := 0
		for _, l := range pr.Loads() {
			scan += l
		}
		if scan != wantTotal {
			t.Fatalf("store=%v: scanned load total %d, ledger says %d", store, scan, wantTotal)
		}
		c := pr.FaultCounters()
		if c.Evictions == 0 || c.Replacements != c.Evictions {
			t.Fatalf("store=%v: eviction counters inconsistent: %+v", store, c)
		}
		// Every surviving handle still resolves, and its weight is intact.
		for i, lb := range live {
			w, err := pr.BallWeight(lb.h)
			if err != nil {
				t.Fatalf("store=%v: live handle %d died: %v", store, i, err)
			}
			if w != lb.w {
				t.Fatalf("store=%v: handle %d weight %d, want %d", store, i, w, lb.w)
			}
		}
		pr.Close()
	}
}

// TestFaultyReset: Reset must clear the injector's schedule state so a
// replayed process starts from a clean (but not rewound) fault stream.
func TestFaultyReset(t *testing.T) {
	plan := faults.Plan{FailRate: 0.1, DownFor: 4, LossProb: 0.3}
	p := Params{N: 64, K: 2, D: 6, Faults: &plan}
	pr := MustNew(KDChoice, p, xrand.New(3))
	pr.Place(300)
	if !pr.FaultCounters().Any() {
		t.Fatal("plan injected nothing before Reset")
	}
	pr.Reset()
	if c := pr.FaultCounters(); c.Any() {
		t.Fatalf("Reset left fault counters %+v", c)
	}
	pr.Place(300)
	if !pr.FaultCounters().Any() {
		t.Fatal("injector dead after Reset")
	}
	pr.Close()
}

// TestFaultValidate: the plan gate must reject the combinations the
// degraded paths do not define.
func TestFaultValidate(t *testing.T) {
	plan := faults.Plan{LossProb: 0.1}
	evict := faults.Plan{LossProb: 0.1, Evict: true}
	bad := []struct {
		name   string
		policy Policy
		p      Params
	}{
		{"stale-batch", StaleBatch, Params{N: 16, K: 4, D: 2, Faults: &plan}},
		{"adaptive", AdaptiveKD, Params{N: 16, K: 2, D: 4, Faults: &plan}},
		{"vector-mode", DChoice, Params{N: 16, D: 2, VecDims: 2, Faults: &plan}},
		{"random-sigma", SerializedKD, Params{N: 16, K: 2, D: 4, RandomSigma: true, Faults: &plan}},
		{"evict-round-only", KDChoice, Params{N: 16, K: 2, D: 4, Faults: &evict}},
		{"invalid-plan", DChoice, Params{N: 16, D: 2, Faults: &faults.Plan{LossProb: 2}}},
	}
	for _, tc := range bad {
		if err := Validate(tc.policy, tc.p); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
	if err := Validate(OnePlusBeta, Params{N: 16, Beta: 0.5, Faults: &evict}); err != nil {
		t.Errorf("oneplusbeta+evict rejected: %v", err)
	}
}
