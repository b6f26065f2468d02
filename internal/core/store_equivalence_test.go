package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// allPolicyCases is the directed policy matrix: every supported policy with
// representative parameters, including the dynamic and stale paths whose
// max-load/occupancy bookkeeping the new stores must keep consistent.
func allPolicyCases() []struct {
	policy Policy
	p      Params
} {
	return []struct {
		policy Policy
		p      Params
	}{
		{KDChoice, Params{N: 64, K: 2, D: 7}},
		{KDChoice, Params{N: 64, K: 8, D: 17}},
		{SerializedKD, Params{N: 64, K: 3, D: 5, Sigma: []int{2, 0, 1}}},
		{SerializedKD, Params{N: 64, K: 3, D: 5, RandomSigma: true}},
		{AdaptiveKD, Params{N: 64, K: 2, D: 5}},
		{DChoice, Params{N: 64, D: 3}},
		{SingleChoice, Params{N: 64}},
		{OnePlusBeta, Params{N: 64, Beta: 0.4}},
		{AlwaysGoLeft, Params{N: 64, D: 4}},
		{SAx0, Params{N: 64, X0: 9}},
		{StaleBatch, Params{N: 64, K: 6, D: 3}},
		{DynamicKD, Params{N: 64, D: 6}},
		{ThresholdChoice, Params{N: 64, D: 4}},
		{CoarseDChoice, Params{N: 64, D: 3, Quantum: 2}},
		{CoarseDChoice, Params{N: 64, D: 5}}, // default quantum
	}
}

// stateEqual compares every observable of two processes.
func stateEqual(t *testing.T, stage string, ref, got *Process) {
	t.Helper()
	if !reflect.DeepEqual(ref.Loads(), got.Loads()) {
		t.Fatalf("%s: load vectors differ:\nref %v\ngot %v", stage, ref.Loads(), got.Loads())
	}
	if ref.MaxLoad() != got.MaxLoad() {
		t.Fatalf("%s: MaxLoad %d != %d", stage, ref.MaxLoad(), got.MaxLoad())
	}
	if ref.Balls() != got.Balls() {
		t.Fatalf("%s: Balls %d != %d", stage, ref.Balls(), got.Balls())
	}
	if ref.Messages() != got.Messages() {
		t.Fatalf("%s: Messages %d != %d", stage, ref.Messages(), got.Messages())
	}
	if ref.Rounds() != got.Rounds() {
		t.Fatalf("%s: Rounds %d != %d", stage, ref.Rounds(), got.Rounds())
	}
	if ref.Discarded() != got.Discarded() {
		t.Fatalf("%s: Discarded %d != %d", stage, ref.Discarded(), got.Discarded())
	}
	if ref.Gap() != got.Gap() {
		t.Fatalf("%s: Gap %v != %v", stage, ref.Gap(), got.Gap())
	}
	// The store's own bookkeeping must agree with a fresh scan. On the
	// sketch store the running max tracks post-Add estimates, and later
	// colliding keys can raise a bin's estimate without touching it again —
	// so the running max may lag the scanned estimate max (never exceed it
	// in insert-only runs); it still dominates the TRUE max, which
	// TestSketchProcessOneSided pins separately.
	if _, sketch := got.store.(*loadvec.SketchStore); sketch {
		if got.MaxLoad() > got.Loads().Max() {
			t.Fatalf("%s: sketch MaxLoad %d above scanned estimate max %d", stage, got.MaxLoad(), got.Loads().Max())
		}
	} else if got.MaxLoad() != got.Loads().Max() {
		t.Fatalf("%s: store MaxLoad %d != scanned max %d", stage, got.MaxLoad(), got.Loads().Max())
	}
	for _, y := range []int{0, 1, ref.MaxLoad(), ref.MaxLoad() + 1} {
		if ref.NuY(y) != got.NuY(y) {
			t.Fatalf("%s: NuY(%d) %d != %d", stage, y, ref.NuY(y), got.NuY(y))
		}
	}
}

// TestStorePolicyBitIdentity is the cross-store acceptance property: every
// policy produces bit-identical loads, max load and message counters on the
// compact, histogram and nibble stores for equal seeds, including across a
// mid-run Reset (which must rebuild the stores' max-load/histogram
// bookkeeping from scratch).
func TestStorePolicyBitIdentity(t *testing.T) {
	stores := []loadvec.StoreKind{loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble}
	for _, tc := range allPolicyCases() {
		t.Run(tc.policy.String(), func(t *testing.T) {
			const seed, m = 12345, 333 // m deliberately not a multiple of any k above
			ref := MustNew(tc.policy, tc.p, xrand.New(seed))
			ref.Place(m)
			for _, store := range stores {
				p := tc.p
				p.Store = store
				got := MustNew(tc.policy, p, xrand.New(seed))
				got.Place(m)
				stateEqual(t, store.String(), ref, got)

				// Reset and re-place: the second run continues the random
				// stream, so it must stay coupled to the reference too.
				got.Reset()
				refReset := MustNew(tc.policy, tc.p, xrand.New(seed))
				refReset.Place(m)
				refReset.Reset()
				refReset.Place(m / 2)
				got.Place(m / 2)
				stateEqual(t, store.String()+"/post-reset", refReset, got)
				got.Close()
				refReset.Close()
			}
		})
	}
}

// TestStorePolicyBitIdentityProperty fuzzes (policy, k, d, seed, m) over
// the compact, histogram and nibble stores.
func TestStorePolicyBitIdentityProperty(t *testing.T) {
	policies := []Policy{KDChoice, SerializedKD, AdaptiveKD, StaleBatch, DChoice, DynamicKD}
	exactStores := []loadvec.StoreKind{loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble}
	if err := quick.Check(func(seed uint64, pRaw, kRaw, dRaw, mRaw, storeRaw uint8) bool {
		policy := policies[int(pRaw)%len(policies)]
		k := int(kRaw%6) + 1
		d := k + 1 + int(dRaw%7)
		if policy == StaleBatch || policy == DChoice {
			d = 1 + int(dRaw%5)
		}
		m := int(mRaw) * 3
		p := Params{N: 48, K: k, D: d}
		ref := MustNew(policy, p, xrand.New(seed))
		ref.Place(m)
		p.Store = exactStores[int(storeRaw)%len(exactStores)]
		got := MustNew(policy, p, xrand.New(seed))
		got.Place(m)
		return reflect.DeepEqual(ref.Loads(), got.Loads()) &&
			ref.MaxLoad() == got.MaxLoad() &&
			ref.Messages() == got.Messages() &&
			got.MaxLoad() == got.Loads().Max()
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleBatchShardedMatchesSerial pins the one StaleBatch round, which
// draws every ball's samples with one fill and gathers all k·D loads at
// once, against blockOracle, which draws and decides per ball from the
// definitions. On every exact store: 10 full rounds plus a partial one,
// then a mid-run Reset and the same again. (The name predates the removal
// of the sharded StaleBatch round; the serial round is now the only one.)
func TestStaleBatchShardedMatchesSerial(t *testing.T) {
	const seed, k, m = 777, 32, 32*10 + 7 // m is not a multiple of k
	for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble} {
		p := Params{N: 96, K: k, D: 3, Store: store}
		got := MustNew(StaleBatch, p, xrand.New(seed))
		o := newOracle(StaleBatch, p, seed, nil)
		for leg := 0; leg < 2; leg++ {
			if leg > 0 {
				got.Reset()
				o.reset()
			}
			got.Place(m)
			o.place(m)
			loads := got.Loads()
			for b, want := range o.loads {
				if loads[b] != want {
					t.Fatalf("%s/leg=%d: bin %d load %d, oracle %d", store, leg, b, loads[b], want)
				}
			}
			if got.Balls() != m || got.Messages() != int64(m)*3 || got.Rounds() != 11 {
				t.Fatalf("%s/leg=%d: balls %d, messages %d, rounds %d; want %d, %d, 11", store, leg, got.Balls(), got.Messages(), got.Rounds(), m, m*3)
			}
		}
	}
}

// TestStaleBatchShardedCompactMatchesSerial: StaleBatch runs on the serial
// engine only. Shards 2, 3 and 8 are rejected on every store with an
// error naming Shards and stale-batch, and Shards 0 and 1 build the same
// serial process. (The name predates the removal of the sharded
// StaleBatch round.)
func TestStaleBatchShardedCompactMatchesSerial(t *testing.T) {
	const seed, m = 4242, 515
	for _, store := range shardStores {
		p := Params{N: 128, K: 50, D: 4, Store: store}
		for _, shards := range []int{2, 3, 8} {
			p.Shards = shards
			_, err := New(StaleBatch, p, xrand.New(seed))
			if err == nil {
				t.Fatalf("%s: stale-batch accepted Shards = %d", store, shards)
			}
			if msg := err.Error(); !strings.Contains(msg, "Shards") || !strings.Contains(msg, "stale-batch") {
				t.Fatalf("%s: Shards = %d error does not name Shards and stale-batch: %v", store, shards, err)
			}
		}
		p.Shards = 0
		ref := MustNew(StaleBatch, p, xrand.New(seed))
		p.Shards = 1
		got := MustNew(StaleBatch, p, xrand.New(seed))
		if ref.shard != nil || got.shard != nil {
			t.Fatalf("%s: stale-batch built a sharded engine", store)
		}
		ref.Place(m)
		got.Place(m)
		stateEqual(t, store.String(), ref, got)
	}
}

// TestBlockEngineObserverSeesSamples: the pre-drawn rounds must hand the
// observer the round's true raw samples (aliasing the engine's block).
func TestBlockEngineObserverSeesSamples(t *testing.T) {
	pr := MustNew(KDChoice, Params{N: 128, K: 2, D: 9}, xrand.New(44))
	rc := &ruleChecker{t: t}
	pr.SetObserver(rc)
	pr.Place(512)
	if rc.rounds != pr.Rounds() {
		t.Fatalf("observer saw %d rounds, process ran %d", rc.rounds, pr.Rounds())
	}
	if rc.maxSeen != pr.MaxLoad() {
		t.Fatalf("max height seen %d != max load %d", rc.maxSeen, pr.MaxLoad())
	}
}

// TestShardsValidation: kd, fixed-σ kd-serialized, single and oneplusbeta
// may shard; StaleBatch, the d-choice pair and the data-dependent policies
// must reject Shards > 1.
func TestShardsValidation(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		p      Params
	}{
		{KDChoice, Params{N: 8, K: 1, D: 2, Shards: 2}},
		{SerializedKD, Params{N: 8, K: 1, D: 2, Shards: 2}},
		{DChoice, Params{N: 8, D: 2, Shards: 1}},
		{SingleChoice, Params{N: 8, Shards: 8}},
		{OnePlusBeta, Params{N: 8, Beta: 0.5, Shards: 2}},
		{OnePlusBeta, Params{N: 8, Beta: 0.5, D: 2, Shards: 2}},
		{StaleBatch, Params{N: 8, K: 2, D: 2, Shards: 1}},
	} {
		if err := Validate(tc.policy, tc.p); err != nil {
			t.Fatalf("%v rejected Shards = %d: %v", tc.policy, tc.p.Shards, err)
		}
	}
	for _, tc := range []struct {
		policy Policy
		p      Params
	}{
		{SerializedKD, Params{N: 8, K: 1, D: 2, RandomSigma: true, Shards: 2}},
		{AdaptiveKD, Params{N: 8, K: 1, D: 2, Shards: 2}},
		{DynamicKD, Params{N: 8, D: 2, Shards: 2}},
		{AlwaysGoLeft, Params{N: 8, D: 2, Shards: 2}},
		{ThresholdChoice, Params{N: 8, D: 2, Shards: 2}},
		{SAx0, Params{N: 8, X0: 1, Shards: 2}},
		{SingleChoice, Params{N: 8, Shards: 2, VecDims: 2}},
		{StaleBatch, Params{N: 8, K: 2, D: 2, Shards: 4}},
	} {
		if err := Validate(tc.policy, tc.p); err == nil {
			t.Fatalf("%v accepted Shards = %d", tc.policy, tc.p.Shards)
		}
	}
	// StaleBatch's serial round already gathers the whole round at once,
	// and two workers never ran d-choice faster than serial: an explicit
	// shard count is an error naming Shards and the policy, not a silent
	// serial run.
	for _, tc := range []struct {
		policy Policy
		p      Params
	}{
		{StaleBatch, Params{N: 8, K: 2, D: 2, Shards: 4}},
		{DChoice, Params{N: 8, D: 2, Shards: 3}},
		{CoarseDChoice, Params{N: 8, D: 2, Shards: 2}},
	} {
		if err := Validate(tc.policy, tc.p); err == nil {
			t.Fatalf("sharded %v accepted", tc.policy)
		} else if msg := err.Error(); !strings.Contains(msg, "Shards") || !strings.Contains(msg, tc.policy.String()) {
			t.Fatalf("sharded %v error does not name Shards and the policy: %v", tc.policy, err)
		}
	}
	if err := Validate(StaleBatch, Params{N: 8, K: 2, D: 2, Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
	// The sharded (1+β) prologue probes two bins, which matches neither
	// law at D > 2: the error must name both fields.
	if err := Validate(OnePlusBeta, Params{N: 8, Beta: 0.5, D: 3, Shards: 2}); err == nil {
		t.Fatal("sharded oneplusbeta with D = 3 accepted")
	} else if msg := err.Error(); !strings.Contains(msg, "Shards") || !strings.Contains(msg, "D = 3") {
		t.Fatalf("sharded oneplusbeta D = 3 error does not name Shards and D: %v", err)
	}
	if err := Validate(KDChoice, Params{N: 8, K: 1, D: 2, Store: loadvec.StoreKind(9)}); err == nil {
		t.Fatal("unknown store accepted")
	}
}

// TestSAx0LoadCountConsistentAcrossStores: the SAx0 rank histogram (process
// bookkeeping) must stay consistent with the store's occupancy counts on
// every store.
func TestSAx0LoadCountConsistentAcrossStores(t *testing.T) {
	for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble} {
		pr := MustNew(SAx0, Params{N: 64, X0: 8, Store: store}, xrand.New(3))
		pr.Place(500)
		for y := 0; y <= pr.MaxLoad(); y++ {
			want := pr.NuY(y) - pr.NuY(y+1) // bins with load exactly y
			if pr.loadCount[y] != want {
				t.Fatalf("%s: loadCount[%d] = %d, want %d", store, y, pr.loadCount[y], want)
			}
		}
	}
}

// TestRoundAllocationFreeEngines extends the zero-allocs-per-round pin to
// the compact and histogram stores and to the one-gather StaleBatch round
// (k·D samples drawn, gathered and decided in the process's own buffers)
// on the dense and nibble stores, at k = 3, and on a compact array past
// loadvec's huge-page threshold, and to the serial d-choice round (the
// only d-choice engine) on the dense store and, quantized, on the sketch.
func TestRoundAllocationFreeEngines(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		p      Params
	}{
		{"kd/compact", KDChoice, Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreCompact}},
		{"kd/hist", KDChoice, Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreHist}},
		{"stale-batch/k=32,d=3", StaleBatch, Params{N: 4096, K: 32, D: 3}},
		{"stale-batch/k=32,d=3/nibble", StaleBatch, Params{N: 4096, K: 32, D: 3, Store: loadvec.StoreNibble}},
		{"stale-batch/k=3", StaleBatch, Params{N: 4096, K: 3, D: 3}},
		{"stale-batch/k=32,d=3/compact/huge", StaleBatch, Params{N: 1 << 22, K: 32, D: 3, Store: loadvec.StoreCompact}},
		{"dchoice", DChoice, Params{N: 4096, D: 3}},
		{"dchoice-coarse/sketch", CoarseDChoice, Params{N: 4096, D: 4, Store: loadvec.StoreSketch}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := MustNew(tc.policy, tc.p, xrand.New(9))
			defer pr.Close()
			pr.Place(4096) // warm the scratch buffers and engine blocks
			if avg := testing.AllocsPerRun(200, pr.Round); avg != 0 {
				t.Fatalf("%v allocs per round, want 0", avg)
			}
		})
	}
}

// TestCompactStoreEscapeUnderProcess drives a tiny-bin single-choice
// process far past the uint16 range so the escape path runs inside a real
// process, coupled against the dense reference.
func TestCompactStoreEscapeUnderProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("long escape run")
	}
	const seed = 11
	const m = 3 * 70000 // ~70k balls per bin across 3 bins
	ref := MustNew(SingleChoice, Params{N: 3}, xrand.New(seed))
	got := MustNew(SingleChoice, Params{N: 3, Store: loadvec.StoreCompact}, xrand.New(seed))
	ref.Place(m)
	got.Place(m)
	stateEqual(t, "escape", ref, got)
	if got.MaxLoad() <= 65535 {
		t.Fatalf("test did not cross the escape threshold (max %d)", got.MaxLoad())
	}
}

// TestSpecializedKernelMatchesInterface pins the round engine against a
// plain reference for every policy, every store, and every superstep size
// (auto, B = 1, 2, the non-divisors 3 and 5, and 64): the reference runs
// serially, draws each round's randomness as the round runs (its round
// engine is cleared) and never prefetches (its prefetch view is cleared),
// so the (policy × store × block) matrix pins superstep batching and the
// next-round prefetch against one oracle at once. Run under -race in CI.
func TestSpecializedKernelMatchesInterface(t *testing.T) {
	stores := []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble, loadvec.StoreSketch}
	blocks := []int{0, 1, 2, 3, 5, 64}
	const seed, m = 90210, 331
	for _, tc := range allPolicyCases() {
		t.Run(tc.policy.String(), func(t *testing.T) {
			for _, store := range stores {
				rp := tc.p
				rp.Store = store
				rp.Shards = 1
				if Validate(tc.policy, rp) != nil {
					continue // e.g. SAx0 requires an exact store
				}
				ref := MustNew(tc.policy, rp, xrand.New(seed))
				ref.eng = nil
				noPrefetch(ref)
				ref.Place(m)
				for _, block := range blocks {
					p := tc.p
					p.Store = store
					p.Block = block
					got := MustNew(tc.policy, p, xrand.New(seed))
					got.Place(m)
					stateEqual(t, fmt.Sprintf("%v/block=%d", store, block), ref, got)
					got.Close()
				}
			}
		})
	}
}

// noPrefetch clears the prefetch view of pr and of its shard engine, so pr
// gathers every round without the next-round prefetch.
func noPrefetch(pr *Process) {
	pr.pfBase, pr.pfBits = nil, 0
	if pr.shard != nil {
		pr.shard.pfBase, pr.shard.pfBits = nil, 0
	}
}

// TestPrefetchChangesNoResult: on load arrays of at least prefetchMinBytes
// the engine prefetches the next round's load lines during the selection,
// serial and sharded (kd only). The results must stay bit-identical to the
// same process with its prefetch view cleared. D = 13 leaves a partial
// 8-sample prefetch group; Block 3 puts a block boundary (no next round to
// prefetch) every third round.
func TestPrefetchChangesNoResult(t *testing.T) {
	const seed, m = 4242, 3001
	for _, st := range []struct {
		kind loadvec.StoreKind
		n    int
	}{
		{loadvec.StoreDense, prefetchMinBytes / int(unsafe.Sizeof(int(0)))},
		{loadvec.StoreCompact, prefetchMinBytes / 2},
		{loadvec.StoreHist, prefetchMinBytes / 4},
		{loadvec.StoreNibble, 2 * prefetchMinBytes},
	} {
		for _, policy := range []Policy{KDChoice, DChoice, DynamicKD} {
			for _, shards := range []int{0, 2} {
				if shards > 0 && policy != KDChoice {
					continue
				}
				for _, block := range []int{0, 3} {
					p := Params{N: st.n, K: 3, D: 13, Store: st.kind, Shards: shards, Block: block}
					if policy != KDChoice {
						p.K = 0
					}
					stage := fmt.Sprintf("%v/%v/shards=%d/block=%d", st.kind, policy, shards, block)
					ref := MustNew(policy, p, xrand.New(seed))
					noPrefetch(ref)
					got := MustNew(policy, p, xrand.New(seed))
					if got.pfBase == nil || (got.shard != nil && got.shard.pfBase == nil) {
						t.Fatalf("%s: engine does not prefetch a %d-bin store", stage, st.n)
					}
					ref.Place(m)
					got.Place(m)
					if !slices.Equal(ref.Loads(), got.Loads()) || ref.Messages() != got.Messages() || ref.MaxLoad() != got.MaxLoad() {
						t.Fatalf("%s: prefetching engine diverged from the unprefetched one", stage)
					}
					ref.Close()
					got.Close()
				}
			}
		}
	}
}

// TestBlockValidation: negative supersteps are rejected with a clear
// error; zero (auto) and explicit sizes are accepted, and non-prologue
// policies ignore the knob.
func TestBlockValidation(t *testing.T) {
	if err := Validate(KDChoice, Params{N: 8, K: 1, D: 2, Block: -1}); err == nil {
		t.Fatal("negative Block accepted")
	} else if !strings.Contains(err.Error(), "Block") {
		t.Fatalf("negative Block error does not name the field: %v", err)
	}
	for _, block := range []int{0, 1, 7, 4096, maxBlockSamples / 2} {
		if err := Validate(KDChoice, Params{N: 8, K: 1, D: 2, Block: block}); err != nil {
			t.Fatalf("Block=%d rejected: %v", block, err)
		}
	}
	// The cap bounds the Block*D product, so it scales down with D.
	if err := Validate(KDChoice, Params{N: 8, K: 1, D: 2, Block: maxBlockSamples/2 + 1}); err == nil {
		t.Fatal("absurd Block accepted (would allocate Block*D samples)")
	}
	if err := Validate(KDChoice, Params{N: 4096, K: 1, D: 4096, Block: maxBlockSamples / 8}); err == nil {
		t.Fatal("absurd Block*D accepted at large D")
	}
	if err := Validate(SingleChoice, Params{N: 8, Block: 3}); err != nil {
		t.Fatalf("non-prologue policy rejected Block: %v", err)
	}
	// Non-prologue policies never allocate a superstep, so the size cap
	// does not apply to them either.
	if err := Validate(SingleChoice, Params{N: 8, Block: maxBlockSamples + 1}); err != nil {
		t.Fatalf("non-prologue policy hit the superstep cap: %v", err)
	}
}

// TestRoundAllocationFreeKernels extends the zero-allocs-per-round pin to
// the round engine across stores and superstep sizes, including
// B=1 (a refill every round), a non-divisor B, and huge-page-sized stores.
func TestRoundAllocationFreeKernels(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"dense/auto", Params{N: 4096, K: 2, D: 64}},
		{"dense/block=1", Params{N: 4096, K: 2, D: 64, Block: 1}},
		{"dense/block=5", Params{N: 4096, K: 2, D: 64, Block: 5}},
		{"compact/block=3", Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreCompact, Block: 3}},
		{"hist/block=1", Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreHist, Block: 1}},
		{"nibble/auto", Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreNibble}},
		{"nibble/block=3", Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreNibble, Block: 3}},
		{"sketch/auto", Params{N: 4096, K: 2, D: 64, Store: loadvec.StoreSketch}},
		{"large-k/auto", Params{N: 4096, K: 16, D: 48}},
		// The heavy-load shape the flat ranker takes (d = 2k <= flatMaxD).
		{"k=8,d=16/dense", Params{N: 4096, K: 8, D: 16}},
		{"k=8,d=16/hist/block=1", Params{N: 4096, K: 8, D: 16, Store: loadvec.StoreHist, Block: 1}},
		{"k=8,d=16/nibble", Params{N: 4096, K: 8, D: 16, Store: loadvec.StoreNibble}},
		// Bin arrays past loadvec's huge-page threshold (4 MB): the
		// advised stores and the next-round prefetch stay allocation-free.
		{"compact/huge", Params{N: 1 << 22, K: 2, D: 64, Store: loadvec.StoreCompact}},
		{"nibble/huge", Params{N: 1 << 23, K: 2, D: 64, Store: loadvec.StoreNibble}},
		{"k=8,d=16/compact/huge", Params{N: 1 << 22, K: 8, D: 16, Store: loadvec.StoreCompact}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := MustNew(KDChoice, tc.p, xrand.New(9))
			defer pr.Close()
			pr.Place(4096) // warm the scratch buffers and superstep blocks
			if allocs, rounds := allocsAcrossBlocks(pr); allocs != 0 {
				t.Fatalf("%v allocs per round over %d rounds, want 0", allocs, rounds)
			}
		})
	}
}
