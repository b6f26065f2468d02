package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// This file pins the online ball registry (registry.go): its invariants
// under a random operation stream, its rejection of handles to dead or
// missing slots, the eviction results it must reproduce, and its
// allocation-free steady state.

// evictPlan outages a bin every 20 operations on average, for 8
// operations, under probe loss with one retry, and evicts its balls.
var evictPlan = faults.Plan{FailRate: 0.05, DownFor: 8, LossProb: 0.2, Retry: 1, Evict: true}

// checkRegistry verifies the registry's structure against the process:
// live slots count Live(), live and free slots partition the slot array,
// the weight array is absent until weighted is set, and the eviction
// index exists only under evict, with every live slot on its own bin's
// chain exactly once and no dead slot on any chain.
func checkRegistry(t *testing.T, step int, pr *Process, evict, weighted bool) {
	t.Helper()
	r := &pr.reg
	live := 0
	for _, s := range r.slots {
		if s.bin >= 0 {
			live++
		}
	}
	if live != pr.Live() {
		t.Fatalf("step %d: %d live slots, Live() = %d", step, live, pr.Live())
	}
	free := 0
	for i := r.free; i >= 0; i = freeLink(r.slots[i].bin) {
		if r.slots[i].bin >= 0 {
			t.Fatalf("step %d: live slot %d on the free list", step, i)
		}
		if free++; free > len(r.slots) {
			t.Fatalf("step %d: free list longer than the %d slots", step, len(r.slots))
		}
	}
	if live+free != len(r.slots) {
		t.Fatalf("step %d: %d live + %d free slots, registry has %d", step, live, free, len(r.slots))
	}
	switch {
	case !weighted && r.wt != nil:
		t.Fatalf("step %d: weight array exists before the first non-unit weight", step)
	case r.wt != nil && len(r.wt) != len(r.slots):
		t.Fatalf("step %d: %d weights for %d slots", step, len(r.wt), len(r.slots))
	}
	if !evict {
		if r.head != nil || r.next != nil {
			t.Fatalf("step %d: eviction index without an evict plan", step)
		}
		return
	}
	if len(r.head) != pr.N() || len(r.next) != len(r.slots) {
		t.Fatalf("step %d: index has %d heads and %d links for %d bins and %d slots", step, len(r.head), len(r.next), pr.N(), len(r.slots))
	}
	seen := make([]int, len(r.slots))
	for b, h := range r.head {
		for i := h; i >= 0; i = r.next[i] {
			if got := r.slots[i].bin; got != int32(b) {
				t.Fatalf("step %d: slot %d (bin field %d) on bin %d's chain", step, i, got, b)
			}
			if seen[i]++; seen[i] > 1 {
				t.Fatalf("step %d: slot %d twice on the chains", step, i)
			}
		}
	}
	for i, s := range r.slots {
		if on := seen[i] == 1; on != (s.bin >= 0) {
			t.Fatalf("step %d: slot %d live=%v but on a chain=%v", step, i, s.bin >= 0, on)
		}
	}
}

// TestRegistryInvariants drives a random stream of weighted inserts,
// deletes, rebalances, mid-stream Reserves and Resets, with no plan, a
// plan without evict and an evicting plan, checking the registry's
// structure after every step and each live ball's bin and weight against
// a ledger.
func TestRegistryInvariants(t *testing.T) {
	noEvict := evictPlan
	noEvict.Evict = false
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{{"no-plan", nil}, {"fail-no-evict", &noEvict}, {"evict", &evictPlan}} {
		for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreHist} {
			evict := tc.plan != nil && tc.plan.Evict
			pr := MustNew(OnePlusBeta, Params{N: 32, Beta: 0.8, D: 2, Store: store, Faults: tc.plan}, xrand.New(17))
			ops := xrand.NewStream(17, 3)
			type liveBall struct {
				h Ball
				w int
			}
			var live []liveBall
			weighted := false
			for step := 0; step < 3000; step++ {
				switch r := ops.Intn(100); {
				case r < 1:
					pr.Reset()
					live = live[:0]
				case r < 3:
					pr.Reserve(pr.Live() + ops.Intn(200))
				case r < 30 && len(live) > 0:
					i := ops.Intn(len(live))
					if err := pr.Delete(live[i].h); err != nil {
						t.Fatalf("%s/%v step %d: Delete: %v", tc.name, store, step, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case r < 45 && len(live) > 0:
					if _, err := pr.Rebalance(live[ops.Intn(len(live))].h); err != nil {
						t.Fatalf("%s/%v step %d: Rebalance: %v", tc.name, store, step, err)
					}
				default:
					// Unit weights until step 500, so the weight array's
					// absence is checked over a stretch of inserts.
					w := 1
					if step > 500 && ops.Intn(4) == 0 {
						w = 2 + ops.Intn(5)
						weighted = true
					}
					h, err := pr.InsertW(w)
					if err != nil {
						t.Fatalf("%s/%v step %d: InsertW: %v", tc.name, store, step, err)
					}
					live = append(live, liveBall{h, w})
				}
				checkRegistry(t, step, pr, evict, weighted)
				if pr.Live() != len(live) {
					t.Fatalf("%s/%v step %d: Live() = %d, ledger %d", tc.name, store, step, pr.Live(), len(live))
				}
			}
			loads := make([]int, pr.N())
			for _, lb := range live {
				bin, err := pr.BallBin(lb.h)
				if err != nil {
					t.Fatalf("%s/%v: live handle: %v", tc.name, store, err)
				}
				w, err := pr.BallWeight(lb.h)
				if err != nil || w != lb.w {
					t.Fatalf("%s/%v: BallWeight = %d, %v; ledger %d", tc.name, store, w, err, lb.w)
				}
				loads[bin] += w
			}
			for b, l := range pr.Loads() {
				if l != loads[b] {
					t.Fatalf("%s/%v: bin %d load %d, its registered balls weigh %d", tc.name, store, b, l, loads[b])
				}
			}
			if evict && pr.FaultCounters().Evictions == 0 {
				t.Fatalf("%s/%v: the evicting plan evicted nothing", tc.name, store)
			}
			pr.Close()
		}
	}
}

// TestReserveSizesEveryArray: arrays grown by append reach different
// capacities (8-byte slots, 4-byte weights and links), so Reserve must
// size each array that exists, not stop at the slot array's capacity.
func TestReserveSizesEveryArray(t *testing.T) {
	var r registry
	r.init(4, 0, true)
	r.add(0, 3) // creates the weight array and a link
	r.slots = append(make([]ballSlot, 0, 64), r.slots...)
	r.reserve(64)
	if cap(r.slots) < 64 || cap(r.wt) < 64 || cap(r.next) < 64 {
		t.Fatalf("Reserve(64) left capacities %d slots, %d weights, %d links", cap(r.slots), cap(r.wt), cap(r.next))
	}
}

// TestForeignHandlesRejected: a handle that names a dead slot must not
// resolve, even when it carries the generation the slot's next ball will
// get, and neither may a handle whose slot index is past the registry or
// negative as an int32. Accepting the first would let Delete free a dead
// slot a second time (Live() and Balls() go to -1 and the free list holds
// the slot twice); the second would index out of range.
func TestForeignHandlesRejected(t *testing.T) {
	for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreHist} {
		pr := MustNew(OnePlusBeta, Params{N: 16, Beta: 1, D: 2, Store: store}, xrand.New(8))
		keep, err := pr.Insert()
		if err != nil {
			t.Fatal(err)
		}
		b, err := pr.Insert()
		if err != nil {
			t.Fatal(err)
		}
		if err := pr.Delete(b); err != nil {
			t.Fatal(err)
		}
		for _, h := range []Ball{makeBall(b.slot(), b.gen()+1), makeBall(int32(len(pr.reg.slots)), 0), Ball(0x80000000), NoBall} {
			if _, err := pr.BallBin(h); err == nil {
				t.Errorf("store=%v: BallBin(%#x) accepted", store, int64(h))
			}
			if _, err := pr.BallWeight(h); err == nil {
				t.Errorf("store=%v: BallWeight(%#x) accepted", store, int64(h))
			}
			if _, err := pr.Rebalance(h); err == nil {
				t.Errorf("store=%v: Rebalance(%#x) accepted", store, int64(h))
			}
			if err := pr.Delete(h); err == nil {
				t.Errorf("store=%v: Delete(%#x) accepted", store, int64(h))
			}
		}
		if pr.Live() != 1 || pr.Balls() != 1 {
			t.Fatalf("store=%v: Live() = %d, Balls() = %d after rejected handles, want 1 and 1", store, pr.Live(), pr.Balls())
		}
		// The freed slot is on the free list once: two inserts take two
		// different slots, and the first ball survives both.
		h1, _ := pr.Insert()
		h2, _ := pr.Insert()
		if h1.slot() == h2.slot() {
			t.Fatalf("store=%v: two inserts share slot %d", store, h1.slot())
		}
		if _, err := pr.BallBin(keep); err != nil {
			t.Fatalf("store=%v: first ball lost: %v", store, err)
		}
		checkRegistry(t, 0, pr, false, false)
		pr.Close()
	}
}

// TestEvictServingDigest pins a weighted oneplusbeta serving run with
// Rebalance under fail:0.05,8+loss:0.2+retry:1+evict (918 evictions over
// 171 outages): the digest covers every handle issued, every rebalance
// outcome, each surviving ball's bin, the final loads, the message count
// and the fault counters. It was recorded with the eviction hook scanning
// every registry slot in slot order; the per-bin eviction index must
// visit the same balls in the same order.
func TestEvictServingDigest(t *testing.T) {
	const want = 0xba617454306268f4
	for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreHist} {
		pr := MustNew(OnePlusBeta, Params{N: 64, Beta: 0.8, D: 2, Store: store, Faults: &evictPlan}, xrand.New(2311))
		ops := xrand.NewStream(2311, 23)
		d := uint64(14695981039346656037)
		add := func(v uint64) { d = (d ^ v) * 1099511628211 }
		var live []Ball
		for op := 0; op < 4000; op++ {
			switch r := ops.Intn(10); {
			case r < 3 && len(live) > 0:
				i := ops.Intn(len(live))
				if err := pr.Delete(live[i]); err != nil {
					t.Fatalf("op %d: Delete: %v", op, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case r < 5 && len(live) > 0:
				moved, err := pr.Rebalance(live[ops.Intn(len(live))])
				if err != nil {
					t.Fatalf("op %d: Rebalance: %v", op, err)
				}
				if moved {
					add(1)
				} else {
					add(0)
				}
			default:
				h, err := pr.InsertW(1 + ops.Intn(4))
				if err != nil {
					t.Fatalf("op %d: InsertW: %v", op, err)
				}
				add(uint64(h))
				live = append(live, h)
			}
		}
		for _, b := range live {
			bin, err := pr.BallBin(b)
			if err != nil {
				t.Fatalf("live handle: %v", err)
			}
			add(uint64(bin))
		}
		for _, v := range pr.Loads() {
			add(uint64(v))
		}
		add(uint64(pr.Messages()))
		c := pr.FaultCounters()
		for _, v := range []int64{c.Outages, c.Recoveries, c.ProbesLost, c.Retries, c.Degraded, c.Fallbacks, c.Evictions, c.Replacements} {
			add(uint64(v))
		}
		if d != want {
			t.Errorf("store=%v: digest %#x, want %#x (evictions %d, outages %d)", store, d, uint64(want), c.Evictions, c.Outages)
		}
		pr.Close()
	}
}

// TestServingAllocationFree: after Reserve, a churned serving loop with
// weights, rebalances and, under evict, outages allocates nothing per
// operation, including once the weight array and the eviction links
// exist.
func TestServingAllocationFree(t *testing.T) {
	const n = 1024
	plan := faults.Plan{FailRate: 0.01, DownFor: 50, LossProb: 0.1, Retry: 2, Evict: true}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{{"no-plan", nil}, {"evict", &plan}} {
		pr := MustNew(OnePlusBeta, Params{N: n, Beta: 1, D: 2, Store: loadvec.StoreHist, Faults: tc.plan}, xrand.New(5))
		pr.Reserve(2 * n)
		live := make([]Ball, 0, 2*n)
		ops := xrand.NewStream(5, 1)
		step := func() {
			switch r := ops.Intn(8); {
			case r < 3 && len(live) > 0:
				i := ops.Intn(len(live))
				if err := pr.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case r < 4 && len(live) > 0:
				if _, err := pr.Rebalance(live[ops.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			case len(live) < cap(live):
				h, err := pr.InsertW(1 + ops.Intn(3))
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, h)
			}
		}
		for len(live) < n {
			step()
		}
		if pr.reg.wt == nil || (tc.plan != nil && pr.reg.next == nil) {
			t.Fatalf("%s: warm-up built no weight array or eviction links", tc.name)
		}
		if avg := testing.AllocsPerRun(5000, step); avg != 0 {
			t.Fatalf("%s: %v allocs per serving operation after Reserve", tc.name, avg)
		}
		if tc.plan != nil && pr.FaultCounters().Evictions == 0 {
			t.Fatalf("%s: no evictions while measuring", tc.name)
		}
		pr.Close()
	}
}
