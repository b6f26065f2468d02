package xrand

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: generators with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical 64-bit draws out of 1000", same)
	}
}

func TestSeedResets(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after reseed: got %d, want %d", i, got, first[i])
		}
	}
}

func TestNewStreamIndependence(t *testing.T) {
	s0 := NewStream(99, 0)
	s1 := NewStream(99, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 of seed 99 collided %d times", same)
	}
}

func TestNewStreamDeterministic(t *testing.T) {
	a := NewStream(5, 17)
	b := NewStream(5, 17)
	if a.Uint64() != b.Uint64() {
		t.Fatal("NewStream is not deterministic for equal (seed, id)")
	}
}

// TestSplitProperties: Split must be a pure function of (parent state, id)
// — deterministic, non-advancing, and pairwise decorrelated across ids and
// from the parent's own stream.
func TestSplitProperties(t *testing.T) {
	parent := New(1234)
	parent.Uint64() // advance to a mid-stream state
	a1 := parent.Split(7)
	a2 := parent.Split(7)
	if a1.Uint64() != a2.Uint64() {
		t.Fatal("Split is not deterministic for equal (state, id)")
	}
	b := parent.Split(8)
	same := 0
	aa, bb := parent.Split(7), b
	for i := 0; i < 1000; i++ {
		if aa.Uint64() == bb.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams 7 and 8 collided %d times", same)
	}
	// Splitting must not advance the parent.
	ref := New(1234)
	ref.Uint64()
	for i := 0; i < 16; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("draw %d: Split advanced the parent stream", i)
		}
	}
	// A child must not replay the parent's continuation.
	parent2 := New(1234)
	parent2.Uint64()
	child := parent2.Split(0)
	same = 0
	for i := 0; i < 1000; i++ {
		if child.Uint64() == parent2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split child collided with parent continuation %d times", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint64) bool {
		n := nRaw%1_000_000 + 1
		v := r.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestIntnUniformityChiSquare(t *testing.T) {
	// Chi-square goodness of fit over 16 buckets. With 15 degrees of
	// freedom the 0.999 quantile is 37.70; a correct generator fails with
	// probability 0.1%, and the seed is fixed so the test is deterministic.
	const buckets = 16
	const draws = 160000
	r := New(2024)
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	if chi2 > 37.70 {
		t.Fatalf("chi-square statistic %.2f exceeds 0.999 quantile 37.70; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 7, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) returned %d elements", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of Perm(4) should be uniform over {0,1,2,3}.
	r := New(6)
	const draws = 40000
	var counts [4]int
	for i := 0; i < draws; i++ {
		counts[r.Perm(4)[0]]++
	}
	for v, c := range counts {
		ratio := float64(c) / (draws / 4.0)
		if ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("Perm(4)[0]=%d frequency ratio %.3f outside [0.95, 1.05]", v, ratio)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(8)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("Shuffle changed element multiset: sum %d != %d", got, sum)
	}
}

func TestShuffleZeroAndOne(t *testing.T) {
	r := New(9)
	r.Shuffle(0, func(i, j int) { t.Fatal("swap called for n=0") })
	r.Shuffle(1, func(i, j int) { t.Fatal("swap called for n=1") })
}

func TestFillIntn(t *testing.T) {
	r := New(10)
	buf := make([]int, 1024)
	r.FillIntn(buf, 7)
	seen := make(map[int]bool)
	for _, v := range buf {
		if v < 0 || v >= 7 {
			t.Fatalf("FillIntn produced out-of-range value %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("FillIntn over 1024 draws hit only %d of 7 values", len(seen))
	}
}

// TestFillIntnMatchesIntn pins the batching contract: the inlined loop must
// produce exactly the draw sequence of repeated Intn calls, so switching a
// caller to FillIntn can never change a seeded experiment.
func TestFillIntnMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1 << 20} {
		a, b := New(99), New(99)
		buf := make([]int, 257)
		a.FillIntn(buf, n)
		for i, got := range buf {
			if want := b.Intn(n); got != want {
				t.Fatalf("n=%d: FillIntn[%d] = %d, Intn sequence gives %d", n, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: generators diverged after batch", n)
		}
	}
}

func TestFillIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillIntn(dst, 0) did not panic")
		}
	}()
	New(1).FillIntn(make([]int, 4), 0)
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(13)
	for _, tc := range []struct{ n, m int }{{10, 0}, {10, 1}, {10, 5}, {10, 10}, {100, 37}} {
		s := r.SampleWithoutReplacement(tc.n, tc.m)
		if len(s) != tc.m {
			t.Fatalf("n=%d m=%d: got %d samples", tc.n, tc.m, len(s))
		}
		seen := make(map[int]bool, tc.m)
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("n=%d m=%d: out-of-range sample %d", tc.n, tc.m, v)
			}
			if seen[v] {
				t.Fatalf("n=%d m=%d: duplicate sample %d", tc.n, tc.m, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleWithoutReplacement(3, 4) did not panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestSampleWithoutReplacementCoverage(t *testing.T) {
	// Every element should be selected roughly equally often.
	r := New(14)
	const draws = 20000
	counts := make([]int, 10)
	for i := 0; i < draws; i++ {
		for _, v := range r.SampleWithoutReplacement(10, 3) {
			counts[v]++
		}
	}
	want := float64(draws) * 3 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("element %d chosen %d times, want about %.0f", v, c, want)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(15)
	const draws = 100000
	trues := 0
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	ratio := float64(trues) / draws
	if ratio < 0.49 || ratio > 0.51 {
		t.Fatalf("Bool true-ratio %.4f outside [0.49, 0.51]", ratio)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(16)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	if r.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(-0.5) returned true")
	}
	if !r.Bernoulli(1.5) {
		t.Fatal("Bernoulli(1.5) returned false")
	}
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	ratio := float64(hits) / draws
	if math.Abs(ratio-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) hit ratio %.4f", ratio)
	}
}

func TestInt63NonNegative(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative value %d", v)
		}
	}
}

func TestUint64nSmallBoundsExactCoverage(t *testing.T) {
	r := New(18)
	for n := uint64(1); n <= 8; n++ {
		seen := make(map[uint64]bool)
		for i := 0; i < 2000; i++ {
			seen[r.Uint64n(n)] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("Uint64n(%d) hit %d distinct values", n, len(seen))
		}
	}
}

// TestFillRoundsMatchesSerial pins the superstep contract: FillRounds must
// consume the stream exactly as FillIntn(d)+Uint64 per round, for every
// shape — including d below the unroll width, d not a multiple of it, and
// d = 0 — so block pre-drawing can never change a seeded experiment.
func TestFillRoundsMatchesSerial(t *testing.T) {
	for _, d := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 64} {
		for _, n := range []int{1, 7, 1000, 1 << 20} {
			const rounds, seed = 9, 12345
			a, b := New(seed), New(seed)
			gotS := make([]int, rounds*d)
			gotN := make([]uint64, rounds)
			a.FillRounds(gotS, gotN, d, n)
			wantS := make([]int, rounds*d)
			wantN := make([]uint64, rounds)
			for r := 0; r < rounds; r++ {
				b.FillIntn(wantS[r*d:(r+1)*d], n)
				wantN[r] = b.Uint64()
			}
			if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotN, wantN) {
				t.Fatalf("d=%d n=%d: FillRounds diverged from the serial prologue", d, n)
			}
			// The generators must land in the same state: the next word of
			// both streams agrees.
			if a.Uint64() != b.Uint64() {
				t.Fatalf("d=%d n=%d: generator states diverged after FillRounds", d, n)
			}
		}
	}
}

// TestFillRoundsRejectionHeavy forces the Lemire rejection path (a bound
// just above 2^63 rejects roughly half of all raw words), so the unrolled
// fill's rewind-and-replay branch runs constantly — and must still match
// the serial stream word for word.
func TestFillRoundsRejectionHeavy(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("needs a bound near 2^63: a bound that fits a 32-bit int rejects under 2^-32 of all words, so the replay branch cannot be forced")
	}
	const d, rounds, seed = 10, 40, 99
	bound := uint64(1<<62 + 3<<60 + 12345) // ~2^64 mod n ≈ 2^63: heavy rejection
	n := int(bound)
	a, b := New(seed), New(seed)
	gotS := make([]int, rounds*d)
	gotN := make([]uint64, rounds)
	a.FillRounds(gotS, gotN, d, n)
	wantS := make([]int, rounds*d)
	wantN := make([]uint64, rounds)
	for r := 0; r < rounds; r++ {
		b.FillIntn(wantS[r*d:(r+1)*d], n)
		wantN[r] = b.Uint64()
	}
	if !reflect.DeepEqual(gotS, wantS) || !reflect.DeepEqual(gotN, wantN) {
		t.Fatal("rejection-heavy FillRounds diverged from the serial prologue")
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("generator states diverged after rejection-heavy FillRounds")
	}
}

// TestFillRoundsPanics: invalid bounds and mismatched buffer shapes are
// caller bugs and must fail loudly.
func TestFillRoundsPanics(t *testing.T) {
	mustPanicF := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanicF("n=0", func() { New(1).FillRounds(make([]int, 4), make([]uint64, 2), 2, 0) })
	mustPanicF("shape mismatch", func() { New(1).FillRounds(make([]int, 3), make([]uint64, 2), 2, 10) })
}

// TestFillRoundsAllocationFree: the superstep fill is on the hot path and
// must not allocate.
func TestFillRoundsAllocationFree(t *testing.T) {
	r := New(7)
	samples := make([]int, 16*64)
	nonces := make([]uint64, 16)
	if avg := testing.AllocsPerRun(100, func() {
		r.FillRounds(samples, nonces, 64, 100000)
	}); avg != 0 {
		t.Fatalf("FillRounds allocated %v per call, want 0", avg)
	}
}
