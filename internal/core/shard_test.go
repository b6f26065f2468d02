package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// This file pins the sharded superstep engine's contracts (shard.go):
//
//   - P-independence: for ANY shard count >= 2 (and any GOMAXPROCS) the
//     Report is byte-identical — each worker gathers and decides the
//     rounds it claims into positional snapshot cells, the store is
//     read-only during the phase, and rounds share no state. The
//     round-only policies' drawn-ahead block is drawn in stream order, so
//     split Place calls, Reset and Close cannot reach a result either
//     (TestShardedDrawAheadMatchesOnePlace).
//   - serial exactness where semantics allow: SingleChoice at any block
//     size; the load-coupled round policies at Block = 1
//     (one-round blocks see fresh loads, and the pre-drawn stream is the
//     serial stream by FillRounds' replay guarantee).
//   - the wide-block law itself: every round is decided against the loads
//     as of its block start, checked against an oracle written from the
//     definitions (TestShardedMatchesBlockSnapshotOracle).
//   - bounded divergence where exactness is impossible: wide-block
//     sharding changes only the staleness of the loads a round sees, so
//     gap statistics must stay within coupling distance of serial.
//
// CI runs this file under -race; the pool's channel edges make every
// cross-worker access ordered, so any missing happens-before is caught
// even on a single-CPU host (GOMAXPROCS is forced up where needed).

// shardStores is the store sweep of the bit-identity properties: all five
// stores, so every store's Gather (the array index, the nibble unpack, the
// sketch estimate) is pinned on every layout.
var shardStores = []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble, loadvec.StoreSketch}

// shardExactCases enumerates (policy, params) pairs whose sharded rounds
// promise serial bit-identity at Block = 1.
var shardExactCases = []struct {
	name   string
	policy Policy
	p      Params
}{
	{"kd", KDChoice, Params{N: 96, K: 4, D: 12}},
	{"kd-serialized", SerializedKD, Params{N: 96, K: 3, D: 8, Sigma: []int{2, 0, 1}}},
	{"single", SingleChoice, Params{N: 96}},
}

// TestShardedBlock1MatchesSerial: at Block = 1 every round is decided
// against fresh loads, so the sharded engine must reproduce the serial
// process bit-for-bit — for every eligible policy, store, and shard count.
func TestShardedBlock1MatchesSerial(t *testing.T) {
	const seed, m = 777, 4*32 + 7 // partial final round included
	for _, tc := range shardExactCases {
		for _, store := range shardStores {
			for _, shards := range []int{2, 3, 8} {
				ref := MustNew(tc.policy, withStore(tc.p, store), xrand.New(seed))
				p := withStore(tc.p, store)
				p.Shards = shards
				p.Block = 1
				got := MustNew(tc.policy, p, xrand.New(seed))
				ref.Place(m)
				got.Place(m)
				stateEqual(t, fmt.Sprintf("%s/%s/shards=%d", tc.name, store, shards), ref, got)
				got.Close()
			}
		}
	}
}

func withStore(p Params, store loadvec.StoreKind) Params {
	p.Store = store
	return p
}

// TestShardedReportIndependentOfShardCount: with the block size fixed, the
// Report must be byte-identical for every shard count — which worker
// claims a round is the only P-dependent quantity and must not leak into
// results. OnePlusBeta (serial-divergent by design) is covered here too:
// its sharded law must still be P-independent. Blocks 1 and 3 leave some
// workers without a claim.
func TestShardedReportIndependentOfShardCount(t *testing.T) {
	const seed, m = 424242, 901
	cases := append(shardExactCases[:len(shardExactCases):len(shardExactCases)],
		struct {
			name   string
			policy Policy
			p      Params
		}{"oneplusbeta", OnePlusBeta, Params{N: 96, Beta: 0.7}})
	for _, tc := range cases {
		for _, store := range shardStores {
			for _, block := range []int{1, 3, 7, 64} {
				var ref *Process
				for _, shards := range []int{2, 3, 4, 8} {
					p := withStore(tc.p, store)
					p.Shards = shards
					p.Block = block
					got := MustNew(tc.policy, p, xrand.New(seed))
					got.Place(m)
					if ref == nil {
						ref = got
						continue
					}
					stateEqual(t, fmt.Sprintf("%s/%s/block=%d/shards=%d", tc.name, store, block, shards), ref, got)
					got.Close()
				}
				ref.Close()
			}
		}
	}
}

// TestShardedSingleMatchesSerialAnyBlock pins both halves of sharded
// SingleChoice's contract. Its destinations never read loads, so a stream
// of Place calls alone is exact at EVERY block size, not just 1. A refill
// pre-draws its whole block, so an Insert between Place calls draws after
// that block: interleaved Place and Insert calls match serial at Block = 1,
// where a refill draws only the ball it places.
func TestShardedSingleMatchesSerialAnyBlock(t *testing.T) {
	const seed, m = 5150, 1234
	for _, block := range []int{0, 1, 13, 256} {
		ref := MustNew(SingleChoice, Params{N: 64}, xrand.New(seed))
		got := MustNew(SingleChoice, Params{N: 64, Shards: 4, Block: block}, xrand.New(seed))
		ref.Place(m)
		got.Place(m)
		stateEqual(t, fmt.Sprintf("single/block=%d", block), ref, got)
		got.Close()
	}
	// The bins the interleaved Inserts went to, in order.
	inserted := func(pr *Process) []int {
		var bins []int
		for i := 0; i < 20; i++ {
			pr.Place(3)
			ball, err := pr.Insert()
			if err != nil {
				t.Fatal(err)
			}
			bin, err := pr.BallBin(ball)
			if err != nil {
				t.Fatal(err)
			}
			bins = append(bins, bin)
		}
		return bins
	}
	ref := MustNew(SingleChoice, Params{N: 64}, xrand.New(7))
	got := MustNew(SingleChoice, Params{N: 64, Shards: 4, Block: 1}, xrand.New(7))
	if want, bins := inserted(ref), inserted(got); !slices.Equal(bins, want) {
		t.Fatalf("single/block=1/insert: inserted balls went to bins %v, serial %v", bins, want)
	}
	stateEqual(t, "single/block=1/insert", ref, got)
	got.Close()
}

// TestShardedPlaceAfterClose: Close stops the worker pool but leaves the
// process usable — later supersteps run every worker's share on the
// caller, bit-identical to a twin that was never closed — and the pool's
// goroutines are gone once both processes are closed.
func TestShardedPlaceAfterClose(t *testing.T) {
	const seed = 31
	for _, tc := range []struct {
		name   string
		policy Policy
		p      Params
	}{
		{"kd", KDChoice, Params{N: 1000, K: 2, D: 4}},
		{"single", SingleChoice, Params{N: 1000}},
	} {
		for shards := 2; shards <= 4; shards++ {
			name := fmt.Sprintf("%s/shards=%d", tc.name, shards)
			p := tc.p
			p.Shards = shards
			baseline := runtime.NumGoroutine()
			ref := MustNew(tc.policy, p, xrand.New(seed))
			got := MustNew(tc.policy, p, xrand.New(seed))
			ref.Place(100)
			got.Place(100)
			got.Close()
			got.Close() // idempotent
			done := make(chan struct{})
			go func() {
				defer close(done)
				got.Place(200000)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: Place after Close did not return", name)
			}
			ref.Place(200000)
			stateEqual(t, name, ref, got)
			ref.Close()
			// A stopped worker may still be unwinding when Close returns.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after Close, baseline %d", name, runtime.NumGoroutine(), baseline)
				}
				runtime.Gosched()
			}
		}
	}
}

// TestShardedObserverContract: the sharded kd rounds must honor the full
// observer contract — raw samples in draw order, the multiplicity rule,
// consistent heights — which the ruleChecker enforces per round.
func TestShardedObserverContract(t *testing.T) {
	pr := MustNew(KDChoice, Params{N: 128, K: 2, D: 9, Shards: 3}, xrand.New(44))
	defer pr.Close()
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

// TestShardedConservation: balls, rounds, and message accounting must obey
// the policy's invariants under sharding, including partial final rounds
// (the ranked-prefix apply) and ball counts far from block multiples.
func TestShardedConservation(t *testing.T) {
	for _, m := range []int{1, 5, 4*100 + 3, 4 * 64} {
		pr := MustNew(KDChoice, Params{N: 64, K: 4, D: 9, Shards: 4, Block: 16}, xrand.New(7))
		pr.Place(m)
		if pr.Balls() != m {
			t.Fatalf("m=%d: placed %d balls", m, pr.Balls())
		}
		wantRounds := (m + 3) / 4
		if pr.Rounds() != wantRounds {
			t.Fatalf("m=%d: %d rounds, want %d", m, pr.Rounds(), wantRounds)
		}
		if pr.Messages() != int64(wantRounds)*9 {
			t.Fatalf("m=%d: %d messages, want %d", m, pr.Messages(), int64(wantRounds)*9)
		}
		sum := 0
		for _, v := range pr.Loads() {
			sum += v
		}
		if sum != m {
			t.Fatalf("m=%d: loads sum to %d", m, sum)
		}
		pr.Close()
	}
}

// TestShardedResetInvalidatesDecisions: Reset mid-block must drop buffered
// decisions (they were made against the old loads) while keeping the
// stream un-rewound, and the process must stay deterministic: two
// identically driven processes agree after interleaved Resets, and the
// post-Reset ball count starts from zero.
func TestShardedResetInvalidatesDecisions(t *testing.T) {
	drive := func() *Process {
		pr := MustNew(KDChoice, Params{N: 64, K: 2, D: 8, Shards: 3, Block: 32}, xrand.New(99))
		pr.Place(37) // mid-block: 18 of 32 rounds applied
		pr.Reset()
		pr.Place(50)
		return pr
	}
	a, b := drive(), drive()
	defer a.Close()
	defer b.Close()
	stateEqual(t, "reset-determinism", a, b)
	if a.Balls() != 50 {
		t.Fatalf("post-Reset balls = %d, want 50", a.Balls())
	}
	// The re-decided tail must see the EMPTY bins: max load after 50 balls
	// in 64 bins under (2,8)-choice is far below what stale pre-Reset
	// decisions (loads near 37/64 higher) could produce; 2 is the
	// theoretical floor's neighborhood.
	if a.MaxLoad() > 3 {
		t.Fatalf("post-Reset max load %d: stale decisions applied?", a.MaxLoad())
	}
}

// TestShardedMatchesBlockSnapshotOracle pins the wide-block sharded law
// against blockOracle, a plain-slice process written from the definitions
// rather than from any engine path, so a window bug shared by every shard
// count cannot hide behind the P-vs-P sweeps. The mid-block Reset makes the
// engine re-decide a window that starts past round 0 of its block. The
// d-choice case checks the serial engine at Block = 1, d-choice's only
// engine: its per-ball argmin is the oracle's too.
func TestShardedMatchesBlockSnapshotOracle(t *testing.T) {
	const seed = 2718
	type oracleCase struct {
		name   string
		policy Policy
		p      Params
		walk   bool // force the empty-leader walk, which is exact at any k, past its gate
	}
	cases := []oracleCase{
		{"kd", KDChoice, Params{N: 61, K: 3, D: 9}, false},
		{"dchoice", DChoice, Params{N: 61, D: 3}, false},
	}
	// Light-load rounds on every exact store, which the decide phase ranks
	// by the empty-leader walk: 250 balls fill at most 1/8 of the bins.
	for _, st := range walkStores {
		cases = append(cases,
			oracleCase{fmt.Sprintf("kd-light/%v/k=2,d=64", st.kind), KDChoice, Params{N: 2048, K: 2, D: 64, Store: st.kind}, false},
			oracleCase{fmt.Sprintf("kd-light/%v/k=4,d=130", st.kind), KDChoice, Params{N: 12000, K: 4, D: 130, Store: st.kind}, true})
	}
	for _, tc := range cases {
		blocks, shards := []int{7, 64}, 2
		if tc.policy == DChoice {
			blocks, shards = []int{1}, 0
		}
		for _, block := range blocks {
			p := tc.p
			p.Shards = shards
			p.Block = block
			got := MustNew(tc.policy, p, xrand.New(seed))
			if tc.walk {
				got.shard.walkMax = math.MaxInt
			}
			o := newOracle(tc.policy, p, seed, nil)
			for leg, m := range []int{100, 250} {
				if leg > 0 { // 34 (kd) rounds in: mid-block; 100 serial d-choice rounds
					got.Reset()
					o.reset()
				}
				if err := matchOracle(got, o, m); err != nil {
					t.Fatalf("%s/block=%d/leg=%d: %v", tc.name, block, leg, err)
				}
			}
			got.Close()
		}
	}
}

// meanGapOver runs r independent seeds of (policy, params) to m balls and
// returns the mean final gap.
func meanGapOver(t *testing.T, policy Policy, p Params, m, runs int) float64 {
	t.Helper()
	sum := 0.0
	for r := 0; r < runs; r++ {
		pr := MustNew(policy, p, xrand.NewStream(0xdead, uint64(r)))
		pr.Place(m)
		sum += pr.Gap()
		pr.Close()
	}
	return sum / float64(runs)
}

// TestShardedStalenessDivergenceBounded: sharded kd sees
// within-block-stale loads, so per-seed divergence from serial is expected
// — but the staleness horizon is the BLOCK, so with blocks small relative
// to the run the allocation LAW barely moves: the mean gap over many seeds
// must stay within coupling distance of the serial mean. (At the opposite
// extreme — one block swallowing the whole run — every decision sees empty
// bins and the gap legitimately approaches single-choice; that frontier is
// measured, not bounded, by the internal/experiments staleness study.) The
// tolerance mirrors the distributional pins elsewhere in the suite
// (majorization_test.go): a broken merge or a load-reading race shifts the
// mean by whole units, an order of magnitude past the bound.
func TestShardedStalenessDivergenceBounded(t *testing.T) {
	const runs = 40
	for _, tc := range []struct {
		name   string
		policy Policy
		p      Params
		m      int
	}{
		// Block = 4 rounds: 8 balls of staleness per block against 256
		// bins — a few hundredths of a load unit of drift per horizon
		// (measured kd frontier: 1.00 serial, 1.15 at Block=4, 1.90 at
		// Block=16, 3.75 at Block=64).
		{"kd", KDChoice, Params{N: 256, K: 2, D: 8, Block: 4}, 4 * 256},
	} {
		serial := meanGapOver(t, tc.policy, withBlockCleared(tc.p), tc.m, runs)
		p := tc.p
		p.Shards = 4
		sharded := meanGapOver(t, tc.policy, p, tc.m, runs)
		if diff := sharded - serial; diff < -0.35 || diff > 0.35 {
			t.Fatalf("%s: mean gap serial %.3f vs sharded %.3f (diff %.3f) exceeds coupling bound", tc.name, serial, sharded, diff)
		}
		// The frontier must be monotone in the horizon: quadrupling the
		// block cannot help, and a much wider horizon must cost strictly
		// more than the near-serial small block (a flat frontier would
		// mean staleness is not actually bounded by the block).
		p.Block = 64
		wide := meanGapOver(t, tc.policy, p, tc.m, runs)
		if wide < sharded-0.15 {
			t.Fatalf("%s: wide-block mean gap %.3f below small-block %.3f: staleness not governed by Block", tc.name, wide, sharded)
		}
	}
}

// withBlockCleared strips the Block knob for the serial reference (serial
// results are block-invariant, but keep the baseline at the default).
func withBlockCleared(p Params) Params {
	p.Block = 0
	return p
}

// TestShardedOnePlusBetaDistribution: the recast (1+β) law (nonce-derived
// coin and tie) must match the serial law in distribution: mean gap within
// tolerance, and the message rate must reflect the β mix (1+β probes per
// ball on average).
func TestShardedOnePlusBetaDistribution(t *testing.T) {
	const runs, m = 40, 4 * 256
	p := Params{N: 256, Beta: 0.5}
	serial := meanGapOver(t, OnePlusBeta, p, m, runs)
	ps := p
	ps.Shards = 4
	ps.Block = 32 // staleness horizon: 32 balls against 256 bins
	sharded := meanGapOver(t, OnePlusBeta, ps, m, runs)
	if diff := sharded - serial; diff < -0.5 || diff > 0.5 {
		t.Fatalf("mean gap serial %.3f vs sharded %.3f: recast law diverges", serial, sharded)
	}
	pr := MustNew(OnePlusBeta, ps, xrand.New(5))
	pr.Place(m)
	rate := float64(pr.Messages()) / float64(m)
	if rate < 1.40 || rate > 1.60 {
		t.Fatalf("message rate %.3f per ball, want ~1.5 (β=0.5)", rate)
	}
	pr.Close()
}

// TestShardedAllocationFree: every sharded path must place balls with
// ZERO allocations in steady state — the superstep refill (draw,
// dispatch, gather, decide) included: each case times a span that crosses
// at least two block boundaries (allocsAcrossBlocks). The persistent pool
// launches no goroutine per superstep.
func TestShardedAllocationFree(t *testing.T) {
	cases := []struct {
		name   string
		policy Policy
		p      Params
	}{
		{"kd/shards=2", KDChoice, Params{N: 4096, K: 2, D: 64, Shards: 2}},
		{"kd/shards=4/compact", KDChoice, Params{N: 4096, K: 2, D: 64, Shards: 4, Store: loadvec.StoreCompact}},
		{"kd/shards=4/block=8", KDChoice, Params{N: 4096, K: 2, D: 64, Shards: 4, Block: 8}},
		{"kd-serialized/shards=4", SerializedKD, Params{N: 4096, K: 3, D: 8, Shards: 4}},
		{"kd/shards=2/k=8,d=16", KDChoice, Params{N: 4096, K: 8, D: 16, Shards: 2}},
		{"kd-serialized/shards=4/k=8,d=16", SerializedKD, Params{N: 4096, K: 8, D: 16, Shards: 4, Sigma: reversed(8)}},
		{"single/shards=4", SingleChoice, Params{N: 4096, Shards: 4}},
		{"oneplusbeta/shards=4", OnePlusBeta, Params{N: 4096, Beta: 0.5, Shards: 4}},
		// More workers than rounds per block: the trailing workers claim
		// nothing.
		{"kd/shards=8/block=3", KDChoice, Params{N: 4096, K: 2, D: 64, Shards: 8, Block: 3}},
		// Bin arrays past loadvec's huge-page threshold (4 MB), through the
		// prefetching decide phase.
		{"kd/shards=2/compact/huge", KDChoice, Params{N: 1 << 22, K: 2, D: 64, Shards: 2, Store: loadvec.StoreCompact}},
		{"kd/shards=2/nibble/huge", KDChoice, Params{N: 1 << 23, K: 2, D: 64, Shards: 2, Store: loadvec.StoreNibble}},
		{"kd/shards=2/k=8,d=16/compact/huge", KDChoice, Params{N: 1 << 22, K: 8, D: 16, Shards: 2, Store: loadvec.StoreCompact}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := MustNew(tc.policy, tc.p, xrand.New(9))
			defer pr.Close()
			pr.Place(4096) // warm scratch buffers across a block boundary
			if allocs, rounds := allocsAcrossBlocks(pr); allocs != 0 {
				t.Fatalf("%v allocs per round over %d rounds, want 0", allocs, rounds)
			}
		})
	}
}

// allocsAcrossBlocks returns AllocsPerRun of Round over a span that
// crosses at least two superstep boundaries: a whole number of blocks, at
// least two and at least 200 rounds. A span shorter than a block can miss
// the draw and decide phases entirely; this one decides exactly as many
// rounds as it times, so an allocation per decided round reads 1 per
// round.
func allocsAcrossBlocks(pr *Process) (allocs float64, rounds int) {
	block := 1
	switch {
	case pr.shard != nil && pr.shard.block > 0:
		block = pr.shard.block // shardBlockRounds
	case pr.eng != nil:
		block = pr.eng.rounds // blockRounds
	}
	rounds = block * max(2, (200+block-1)/block)
	return testing.AllocsPerRun(rounds, pr.Round), rounds
}

// TestShardedGOMAXPROCSInvariance: the engine must produce the same
// Report whether the workers truly run in parallel or are interleaved on
// one P — scheduling must not be able to reach results.
func TestShardedGOMAXPROCSInvariance(t *testing.T) {
	const seed, m = 1213, 777
	p := Params{N: 128, K: 2, D: 16, Shards: 4}
	run := func(procs int) *Process {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		pr := MustNew(KDChoice, p, xrand.New(seed))
		pr.Place(m)
		return pr
	}
	a, b := run(1), run(4)
	defer a.Close()
	defer b.Close()
	stateEqual(t, "gomaxprocs-1-vs-4", a, b)
}

// TestShardedDrawAheadMatchesOnePlace: the round-only policies draw the next
// block on worker 0 while the window is decided, and every worker claims
// rounds from a shared cursor. Neither may reach a result: for kd and
// kd-serialized at P = 2, 3 and 8, Place(m) split into odd-sized calls, a
// Reset while a drawn-ahead block is pending, and a Close between calls
// each end in the state of one Place(m) (of the same Reset sequence) and
// of blockOracle.
func TestShardedDrawAheadMatchesOnePlace(t *testing.T) {
	const seed, k = 1618, 3
	for _, tc := range []struct {
		name   string
		policy Policy
		p      Params
	}{
		{"kd", KDChoice, Params{N: 61, K: k, D: 9}},
		{"kd-serialized", SerializedKD, Params{N: 61, K: k, D: 9, Sigma: reversed(k)}},
	} {
		for _, block := range []int{7, 64} {
			for _, shards := range []int{2, 3, 8} {
				name := fmt.Sprintf("%s/block=%d/shards=%d", tc.name, block, shards)
				p := tc.p
				p.Shards = shards
				p.Block = block
				matchOracle := func(stage string, pr *Process, o *blockOracle) {
					t.Helper()
					if err := o.sameLoads(pr); err != nil {
						t.Fatalf("%s/%s: %v", name, stage, err)
					}
				}

				// Odd-sized calls: 1, 3, 5, ... rounds each, then the rest
				// (a partial final round included).
				m := 3*k*block + 2
				one := MustNew(tc.policy, p, xrand.New(seed))
				one.Place(m)
				split := MustNew(tc.policy, p, xrand.New(seed))
				left := m
				for rounds := 1; left > 0; rounds += 2 {
					c := min(rounds*k, left)
					split.Place(c)
					left -= c
				}
				stateEqual(t, name+"/split", one, split)
				o := newOracle(tc.policy, p, seed, nil)
				o.place(m)
				matchOracle("split", split, o)
				split.Close()

				// Reset with the next block drawn ahead and the current one
				// half applied: the rest of the block is re-decided against
				// empty bins, and the drawn-ahead block is used next.
				before := 2*k*block + k*(block/2)
				reset := MustNew(tc.policy, p, xrand.New(seed))
				reset.Place(before)
				if !reset.shard.eng.drawn {
					t.Fatalf("%s: no drawn-ahead block pending at the Reset", name)
				}
				reset.Reset()
				reset.Place(m)
				twin := MustNew(tc.policy, p, xrand.New(seed))
				twin.Place(before)
				twin.Reset()
				for left := m; left > 0; left -= 5 * k {
					twin.Place(min(5*k, left))
				}
				stateEqual(t, name+"/reset", reset, twin)
				o = newOracle(tc.policy, p, seed, nil)
				o.place(before)
				o.reset()
				o.place(m)
				matchOracle("reset", reset, o)
				reset.Close()
				twin.Close()

				// Close between calls: the rest runs every share on the
				// caller, worker 0's draw included.
				closed := MustNew(tc.policy, p, xrand.New(seed))
				closed.Place(before)
				closed.Close()
				closed.Place(m - before)
				stateEqual(t, name+"/close", one, closed)
				one.Close()
			}
		}
	}
}

// TestShardedPerBallServeKeepsStream pins that the sharded per-ball
// policies do not draw ahead. Insert and Delete between Place calls draw
// from the main stream right after the current block, so drawing the next
// block early would move those draws and every decision after them. The
// digests were recorded before the round-only policies began to draw
// ahead; each hashes the final loads, the counters and the stream's next
// word.
func TestShardedPerBallServeKeepsStream(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
		p      Params
		want   uint64
	}{
		{"oneplusbeta", OnePlusBeta, Params{N: 96, Beta: 0.7, Shards: 3, Block: 7}, 0xe966ca5a7f4cb470},
	} {
		pr := MustNew(tc.policy, tc.p, xrand.New(4242))
		pr.Place(100) // 14 blocks and 2 rounds: the 15th block is drawn and decided
		live := make([]Ball, 0, 40)
		for i := 0; i < 40; i++ {
			b, err := pr.Insert()
			if err != nil {
				t.Fatalf("%s: Insert: %v", tc.name, err)
			}
			live = append(live, b)
		}
		for _, b := range live[:15] {
			if err := pr.Delete(b); err != nil {
				t.Fatalf("%s: Delete: %v", tc.name, err)
			}
		}
		pr.Place(30)
		if got := stateDigest(pr); got != tc.want {
			t.Errorf("%s: state digest %#x, want %#x", tc.name, got, tc.want)
		}
		pr.Close()
	}
}

// stateDigest hashes a process's loads, its ball, message and round
// counters and the next word of its random stream (FNV-1a over words).
func stateDigest(pr *Process) uint64 {
	d := uint64(14695981039346656037)
	add := func(v uint64) { d = (d ^ v) * 1099511628211 }
	for _, v := range pr.Loads() {
		add(uint64(v))
	}
	add(uint64(pr.Balls()))
	add(uint64(pr.Messages()))
	add(uint64(pr.Rounds()))
	add(pr.rng.Uint64())
	return d
}
