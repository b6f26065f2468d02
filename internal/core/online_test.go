package core

import (
	"strings"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// onlineCases is the per-ball policy matrix of the serving layer.
func onlineCases() []struct {
	name   string
	policy Policy
	p      Params
} {
	return []struct {
		name   string
		policy Policy
		p      Params
	}{
		{"single", SingleChoice, Params{N: 64}},
		{"dchoice", DChoice, Params{N: 64, D: 3}},
		{"oneplusbeta", OnePlusBeta, Params{N: 64, Beta: 0.4}},
		{"oneplusbeta-d3", OnePlusBeta, Params{N: 64, Beta: 0.4, D: 3}},
		{"threshold", ThresholdChoice, Params{N: 64, D: 4}},
		{"dchoice-coarse", CoarseDChoice, Params{N: 64, D: 3, Quantum: 2}},
	}
}

// TestInsertOnlyMatchesPlace is the serving layer's anchor property: an
// insert-only unit-weight stream is bit-identical to Place on the same
// seed, for every per-ball policy (oneplusbeta at D > 2 too) and every
// exact store.
func TestInsertOnlyMatchesPlace(t *testing.T) {
	stores := []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble}
	for _, tc := range onlineCases() {
		t.Run(tc.name, func(t *testing.T) {
			const seed, m = 98765, 257
			ref := MustNew(tc.policy, tc.p, xrand.New(seed))
			ref.Place(m)
			for _, kind := range stores {
				p := tc.p
				p.Store = kind
				got := MustNew(tc.policy, p, xrand.New(seed))
				for i := 0; i < m; i++ {
					if _, err := got.Insert(); err != nil {
						t.Fatal(err)
					}
				}
				stateEqual(t, kind.String(), ref, got)
				if got.Live() != m {
					t.Fatalf("%s: Live = %d, want %d", kind, got.Live(), m)
				}
			}
		})
	}
}

// TestOnlineAccountingShadow interleaves weighted inserts, deletes and
// rebalances on every store and checks the deletion-aware aggregates
// against a reference []int shadow maintained from the process's reported
// outcomes.
func TestOnlineAccountingShadow(t *testing.T) {
	stores := []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble}
	for _, tc := range onlineCases() {
		for _, kind := range stores {
			t.Run(tc.name+"/"+kind.String(), func(t *testing.T) {
				p := tc.p
				p.Store = kind
				pr := MustNew(tc.policy, p, xrand.New(4242))
				n := p.N
				shadow := make([]int, n)
				type liveBall struct {
					b Ball
					w int
				}
				var live []liveBall
				rng := xrand.New(555) // op-mix stream, separate from the process
				for step := 0; step < 3000; step++ {
					switch op := rng.Intn(10); {
					case op < 6 || len(live) == 0:
						w := 1 + rng.Intn(7)
						b, err := pr.InsertW(w)
						if err != nil {
							t.Fatal(err)
						}
						bin, err := pr.BallBin(b)
						if err != nil {
							t.Fatal(err)
						}
						shadow[bin] += w
						live = append(live, liveBall{b, w})
					case op < 9:
						vi := rng.Intn(len(live))
						lb := live[vi]
						bin, err := pr.BallBin(lb.b)
						if err != nil {
							t.Fatal(err)
						}
						if err := pr.Delete(lb.b); err != nil {
							t.Fatal(err)
						}
						shadow[bin] -= lb.w
						live[vi] = live[len(live)-1]
						live = live[:len(live)-1]
					default:
						vi := rng.Intn(len(live))
						lb := live[vi]
						before, _ := pr.BallBin(lb.b)
						if _, err := pr.Rebalance(lb.b); err != nil {
							t.Fatal(err)
						}
						after, _ := pr.BallBin(lb.b)
						if after != before {
							shadow[before] -= lb.w
							shadow[after] += lb.w
						}
					}
					if step%101 != 0 && step < 2900 {
						continue
					}
					max, balls := 0, 0
					for bin, v := range shadow {
						if got := pr.Load(bin); got != v {
							t.Fatalf("step %d: Load(%d) = %d, shadow %d", step, bin, got, v)
						}
						if v > max {
							max = v
						}
						balls += v
					}
					if got := pr.MaxLoad(); got != max {
						t.Fatalf("step %d: MaxLoad = %d, shadow %d", step, got, max)
					}
					if got := pr.Live(); got != len(live) {
						t.Fatalf("step %d: Live = %d, want %d", step, got, len(live))
					}
					wantGap := float64(max) - float64(balls)/float64(n)
					if got := pr.Gap(); got != wantGap {
						t.Fatalf("step %d: Gap = %v, shadow %v", step, got, wantGap)
					}
					for _, y := range []int{1, max, max + 1} {
						want := 0
						for _, v := range shadow {
							if v >= y {
								want++
							}
						}
						if got := pr.NuY(y); got != want {
							t.Fatalf("step %d: NuY(%d) = %d, shadow %d", step, y, got, want)
						}
					}
				}
			})
		}
	}
}

// TestStaleHandles pins handle lifetime: a deleted handle errors, and keeps
// erroring after its slot is recycled by a later insert.
func TestStaleHandles(t *testing.T) {
	pr := MustNew(SingleChoice, Params{N: 8}, xrand.New(1))
	b1, err := pr.Insert()
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Delete(b1); err != nil {
		t.Fatal(err)
	}
	if err := pr.Delete(b1); err == nil || !strings.Contains(err.Error(), "not live") {
		t.Fatalf("double delete: err = %v", err)
	}
	b2, err := pr.Insert() // recycles b1's slot with a bumped generation
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Fatal("recycled slot produced an identical handle")
	}
	if _, err := pr.BallBin(b1); err == nil {
		t.Fatal("stale handle resolved after slot reuse")
	}
	if _, err := pr.BallBin(b2); err != nil {
		t.Fatal(err)
	}
	if err := pr.Delete(NoBall); err == nil {
		t.Fatal("NoBall accepted")
	}
}

// TestOnlineRejections pins the mode and policy guards.
func TestOnlineRejections(t *testing.T) {
	kd := MustNew(KDChoice, Params{N: 16, K: 2, D: 5}, xrand.New(1))
	if _, err := kd.Insert(); err == nil {
		t.Fatal("Insert on a round policy accepted")
	}
	pr := MustNew(SingleChoice, Params{N: 8}, xrand.New(1))
	if _, err := pr.InsertW(0); err == nil {
		t.Fatal("weight 0 accepted")
	}
	if _, err := pr.InsertW(maxBallWeight + 1); err == nil {
		t.Fatal("oversized weight accepted")
	}
	if _, err := pr.InsertVec([]float64{1}); err == nil {
		t.Fatal("InsertVec on a scalar process accepted")
	}
	vp := MustNew(DChoice, Params{N: 8, D: 2, VecDims: 2}, xrand.New(1))
	if _, err := vp.InsertW(1); err == nil {
		t.Fatal("InsertW on a vector process accepted")
	}
	if _, err := vp.InsertVec([]float64{1}); err == nil {
		t.Fatal("wrong-arity vector accepted")
	}
	if err := Validate(KDChoice, Params{N: 16, K: 2, D: 5, VecDims: 2}); err == nil {
		t.Fatal("vector mode on a round policy accepted")
	}
	if err := Validate(SingleChoice, Params{N: 16, VecDims: 2, VecNorm: loadvec.Norm(9)}); err == nil {
		t.Fatal("unknown norm accepted")
	}
}

// TestOnlineVectorMode runs a vector-load process against a [][]float64
// shadow and checks the aggregate accessors under every norm.
func TestOnlineVectorMode(t *testing.T) {
	for _, norm := range []loadvec.Norm{loadvec.NormLInf, loadvec.NormL1, loadvec.NormL2} {
		t.Run(norm.String(), func(t *testing.T) {
			const n, dims = 16, 3
			pr := MustNew(DChoice, Params{N: n, D: 3, VecDims: dims, VecNorm: norm}, xrand.New(9))
			shadow := make([][]float64, n)
			for i := range shadow {
				shadow[i] = make([]float64, dims)
			}
			rng := xrand.New(10)
			var handles []Ball
			var vecs [][]float64
			for step := 0; step < 800; step++ {
				if rng.Intn(3) > 0 || len(handles) == 0 {
					w := make([]float64, dims)
					for c := range w {
						w[c] = rng.Float64() * 3
					}
					b, err := pr.InsertVec(w)
					if err != nil {
						t.Fatal(err)
					}
					bin, _ := pr.BallBin(b)
					for c := range w {
						shadow[bin][c] += w[c]
					}
					handles = append(handles, b)
					vecs = append(vecs, w)
				} else {
					vi := rng.Intn(len(handles))
					bin, _ := pr.BallBin(handles[vi])
					if err := pr.Delete(handles[vi]); err != nil {
						t.Fatal(err)
					}
					for c, v := range vecs[vi] {
						shadow[bin][c] -= v
					}
					last := len(handles) - 1
					handles[vi], vecs[vi] = handles[last], vecs[last]
					handles, vecs = handles[:last], vecs[:last]
				}
				if step%67 != 0 {
					continue
				}
				maxAgg := 0.0
				for b := range shadow {
					agg := norm.Apply(shadow[b])
					if agg > maxAgg {
						maxAgg = agg
					}
					if got := pr.AggLoad(b); abs(got-agg) > 1e-9 {
						t.Fatalf("step %d: AggLoad(%d) = %g, shadow %g", step, b, got, agg)
					}
				}
				if got := pr.MaxAggLoad(); abs(got-maxAgg) > 1e-9 {
					t.Fatalf("step %d: MaxAggLoad = %g, shadow %g", step, got, maxAgg)
				}
			}
			if pr.GapAgg() < 0 {
				t.Fatalf("GapAgg = %g, want >= 0", pr.GapAgg())
			}
		})
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestReserveKeepsState pins that pre-sizing the registry changes no
// observable state and prevents growth.
func TestReserveKeepsState(t *testing.T) {
	pr := MustNew(SingleChoice, Params{N: 32}, xrand.New(3))
	ref := MustNew(SingleChoice, Params{N: 32}, xrand.New(3))
	pr.Reserve(128)
	var hs []Ball
	for i := 0; i < 100; i++ {
		b1, err := pr.Insert()
		if err != nil {
			t.Fatal(err)
		}
		b2, err := ref.Insert()
		if err != nil {
			t.Fatal(err)
		}
		if b1 != b2 {
			t.Fatalf("insert %d: handle %v != %v", i, b1, b2)
		}
		hs = append(hs, b1)
	}
	stateEqual(t, "reserved", ref, pr)
	for _, b := range hs {
		if err := pr.Delete(b); err != nil {
			t.Fatal(err)
		}
	}
	if pr.Live() != 0 || pr.Balls() != 0 || pr.MaxLoad() != 0 {
		t.Fatalf("drained process not empty: live=%d balls=%d max=%d", pr.Live(), pr.Balls(), pr.MaxLoad())
	}
}

// TestOnlineObserverOps pins the observer's op/weight tagging on the
// serving path.
func TestOnlineObserverOps(t *testing.T) {
	pr := MustNew(OnePlusBeta, Params{N: 16, Beta: 0.5}, xrand.New(8))
	type event struct {
		op     Op
		weight int
		placed int
	}
	var events []event
	pr.SetObserver(observerFunc(func(round int, samples, placed, heights []int) {
		events = append(events, event{pr.LastOp(), pr.LastOpWeight(), len(placed)})
	}))
	b, err := pr.InsertW(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Rebalance(b); err != nil {
		t.Fatal(err)
	}
	if err := pr.Delete(b); err != nil {
		t.Fatal(err)
	}
	want := []event{{OpInsert, 5, 1}, {OpRebalance, 5, 1}, {OpDelete, 5, 1}}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if pr.LastOp() != OpInsert || pr.LastOpWeight() != 0 {
		t.Fatalf("op/weight not reset after notify: %v %d", pr.LastOp(), pr.LastOpWeight())
	}
}
