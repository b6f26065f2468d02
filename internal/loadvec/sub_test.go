package loadvec

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// shadowCheck compares a store against the reference []int shadow on every
// observable the online layer relies on.
func shadowCheck(t *testing.T, stage string, s Store, shadow []int) {
	t.Helper()
	max, balls := 0, 0
	for bin, v := range shadow {
		if got := s.Load(bin); got != v {
			t.Fatalf("%s: Load(%d) = %d, shadow %d", stage, bin, got, v)
		}
		if v > max {
			max = v
		}
		balls += v
	}
	if got := s.MaxLoad(); got != max {
		t.Fatalf("%s: MaxLoad = %d, shadow %d", stage, got, max)
	}
	if got := s.Balls(); got != balls {
		t.Fatalf("%s: Balls = %d, shadow %d", stage, got, balls)
	}
	for _, y := range []int{0, 1, max / 2, max, max + 1} {
		want := 0
		for _, v := range shadow {
			if v >= y {
				want++
			}
		}
		if got := s.NuY(y); got != want {
			t.Fatalf("%s: NuY(%d) = %d, shadow %d", stage, y, got, want)
		}
	}
}

// TestSubAddNProperty drives every store through a random interleaving of
// Add/AddN/Sub/BulkAdd/Set against the []int reference, checking the
// full observable state after every mutation batch.
func TestSubAddNProperty(t *testing.T) {
	const n = 48
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble} {
		t.Run(kind.String(), func(t *testing.T) {
			s, err := NewStore(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			shadow := make([]int, n)
			rng := xrand.New(0xD15EA5E)
			bulk := make([]int, 0, 16)
			for step := 0; step < 4000; step++ {
				bin := rng.Intn(n)
				switch op := rng.Intn(5); op {
				case 0:
					s.Add(bin)
					shadow[bin]++
				case 1:
					w := rng.Intn(9)
					if got, want := s.AddN(bin, w), shadow[bin]+w; got != want {
						t.Fatalf("step %d: AddN returned %d, want %d", step, got, want)
					}
					shadow[bin] += w
				case 2:
					w := rng.Intn(shadow[bin] + 1)
					if got, want := s.Sub(bin, w), shadow[bin]-w; got != want {
						t.Fatalf("step %d: Sub returned %d, want %d", step, got, want)
					}
					shadow[bin] -= w
				case 3:
					bulk = bulk[:0]
					for i := rng.Intn(16); i >= 0; i-- {
						b := rng.Intn(n)
						bulk = append(bulk, b)
						shadow[b]++
					}
					s.BulkAdd(bulk)
				case 4:
					v := rng.Intn(20)
					s.Set(bin, v)
					shadow[bin] = v
				}
				if step%97 == 0 || step > 3900 {
					shadowCheck(t, kind.String(), s, shadow)
				}
			}
			shadowCheck(t, kind.String()+"/final", s, shadow)
		})
	}
}

// TestSubBelowZeroPanics pins the caller-bug contract on every store.
func TestSubBelowZeroPanics(t *testing.T) {
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble} {
		s, err := NewStore(kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.Add(1)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v: Sub below zero did not panic", kind)
				}
			}()
			s.Sub(1, 2)
		}()
	}
}

// TestCompactEscapeShrink is the regression test for the escape-cell
// reclaim: a bin pushed past the uint16 ceiling into the wide table must
// return to the small array — losslessly — once it drains back under the
// ceiling, whether it got there via AddN or Set.
func TestCompactEscapeShrink(t *testing.T) {
	s, err := NewStore(StoreCompact, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.(*CompactStore)

	const high = escape16 + 1000
	s.AddN(3, high)
	if cs.Escaped() != 1 {
		t.Fatalf("Escaped = %d after crossing the ceiling, want 1", cs.Escaped())
	}
	if got := s.Load(3); got != high {
		t.Fatalf("escaped Load = %d, want %d", got, high)
	}

	// Drain in two steps: still escaped above the ceiling, reclaimed below.
	if got := s.Sub(3, 500); got != high-500 {
		t.Fatalf("Sub above ceiling returned %d, want %d", got, high-500)
	}
	if cs.Escaped() != 1 {
		t.Fatalf("Escaped = %d while above the ceiling, want 1", cs.Escaped())
	}
	if got := s.Sub(3, 2000); got != high-2500 {
		t.Fatalf("Sub across ceiling returned %d, want %d", got, high-2500)
	}
	if cs.Escaped() != 0 {
		t.Fatalf("Escaped = %d after draining under the ceiling, want 0", cs.Escaped())
	}
	if got := s.Load(3); got != high-2500 {
		t.Fatalf("reclaimed Load = %d, want %d", got, high-2500)
	}
	if got := s.MaxLoad(); got != high-2500 {
		t.Fatalf("MaxLoad = %d after reclaim, want %d", got, high-2500)
	}

	// A Set escape reclaims too: re-escape, then drain one unit at a time
	// across exactly the ceiling boundary.
	s.Set(3, escape16+1)
	if cs.Escaped() != 1 {
		t.Fatalf("Escaped = %d after Set above ceiling, want 1", cs.Escaped())
	}
	s.Sub(3, 1)
	if cs.Escaped() != 1 {
		t.Fatalf("Escaped = %d at the ceiling, want 1", cs.Escaped())
	}
	s.Sub(3, 1)
	if cs.Escaped() != 0 {
		t.Fatalf("Escaped = %d after draining under the ceiling, want 0", cs.Escaped())
	}
	if got := s.Load(3); got != escape16-1 {
		t.Fatalf("Load = %d after reclaim, want %d", got, escape16-1)
	}
	if got := s.Balls(); got != escape16-1 {
		t.Fatalf("Balls = %d after reclaim, want %d", got, escape16-1)
	}
}

// TestVecStoreShadow drives the vector store against a [][]float64 shadow
// under every norm.
func TestVecStoreShadow(t *testing.T) {
	const n, dims = 12, 3
	for _, norm := range []Norm{NormLInf, NormL1, NormL2} {
		t.Run(norm.String(), func(t *testing.T) {
			s, err := NewVecStore(n, dims, norm)
			if err != nil {
				t.Fatal(err)
			}
			shadow := make([][]float64, n)
			for i := range shadow {
				shadow[i] = make([]float64, dims)
			}
			rng := xrand.New(77)
			w := make([]float64, dims)
			for step := 0; step < 2000; step++ {
				bin := rng.Intn(n)
				for c := range w {
					w[c] = rng.Float64() * 4
				}
				if rng.Bool() || NormLInf.Apply(shadow[bin]) == 0 {
					s.AddVec(bin, w)
					for c := range w {
						shadow[bin][c] += w[c]
					}
				} else {
					// Remove a fraction of what the bin actually holds so no
					// component underflows.
					for c := range w {
						w[c] = shadow[bin][c] * rng.Float64()
					}
					s.SubVec(bin, w)
					for c := range w {
						shadow[bin][c] -= w[c]
					}
				}
				if step%53 != 0 {
					continue
				}
				maxAgg, sumAgg := 0.0, 0.0
				for b := range shadow {
					agg := norm.Apply(shadow[b])
					sumAgg += agg
					if agg > maxAgg {
						maxAgg = agg
					}
					if got := s.AggLoad(b); math.Abs(got-agg) > 1e-9 {
						t.Fatalf("step %d: AggLoad(%d) = %g, shadow %g", step, b, got, agg)
					}
				}
				if got := s.MaxAgg(); math.Abs(got-maxAgg) > 1e-9 {
					t.Fatalf("step %d: MaxAgg = %g, shadow %g", step, got, maxAgg)
				}
				if got := s.MeanAgg(); math.Abs(got-sumAgg/n) > 1e-9 {
					t.Fatalf("step %d: MeanAgg = %g, shadow %g", step, got, sumAgg/n)
				}
				if got, want := s.GapAgg(), s.MaxAgg()-s.MeanAgg(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d: GapAgg = %g, want %g", step, got, want)
				}
			}
			s.Reset()
			if s.MaxAgg() != 0 || s.MeanAgg() != 0 {
				t.Fatalf("Reset left MaxAgg=%g MeanAgg=%g", s.MaxAgg(), s.MeanAgg())
			}
		})
	}
}

// TestVecStoreValidation pins the constructor and mutation contracts.
func TestVecStoreValidation(t *testing.T) {
	if _, err := NewVecStore(0, 1, NormLInf); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewVecStore(1, 0, NormLInf); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := NewVecStore(1, 1, Norm(99)); err == nil {
		t.Fatal("unknown norm accepted")
	}
	s, err := NewVecStore(2, 2, NormL1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{{1}, {1, -1}, {1, math.NaN()}, {math.Inf(1), 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddVec(%v) did not panic", bad)
				}
			}()
			s.AddVec(0, bad)
		}()
	}
	s.AddVec(0, []float64{1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SubVec underflow did not panic")
			}
		}()
		s.SubVec(0, []float64{2, 0})
	}()
}

// TestParseNorm pins the round trip and the sorted unknown-value error.
func TestParseNorm(t *testing.T) {
	for _, name := range NormNames() {
		m, err := ParseNorm(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != name {
			t.Fatalf("round trip %q -> %v", name, m)
		}
	}
	if _, err := ParseNorm("l7"); err == nil {
		t.Fatal("unknown norm accepted")
	}
}
