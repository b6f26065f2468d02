package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// roundLog records every round's receiving bins and their heights, in the
// order the round delivered them: the rank order for KDChoice, the σ order
// for SerializedKD.
type roundLog struct {
	placed, heights [][]int
}

func (rl *roundLog) RoundPlaced(round int, samples, placed, heights []int) {
	rl.placed = append(rl.placed, append([]int(nil), placed...))
	rl.heights = append(rl.heights, append([]int(nil), heights...))
}

// sameRun places m balls on two processes and reports the first difference
// in what they delivered (per round, in order) or in their final loads.
func sameRun(fast, ref *Process, m int) error {
	fastLog, refLog := &roundLog{}, &roundLog{}
	fast.SetObserver(fastLog)
	ref.SetObserver(refLog)
	fast.Place(m)
	ref.Place(m)
	if len(fastLog.placed) != len(refLog.placed) {
		return fmt.Errorf("%d rounds vs %d", len(fastLog.placed), len(refLog.placed))
	}
	for r := range refLog.placed {
		if !reflect.DeepEqual(fastLog.placed[r], refLog.placed[r]) || !reflect.DeepEqual(fastLog.heights[r], refLog.heights[r]) {
			return fmt.Errorf("round %d: placed %v heights %v, reference %v heights %v",
				r+1, fastLog.placed[r], fastLog.heights[r], refLog.placed[r], refLog.heights[r])
		}
	}
	if !reflect.DeepEqual(fast.Loads(), ref.Loads()) {
		return fmt.Errorf("final loads differ")
	}
	return nil
}

// reversed is a fixed σ that is not the identity (for k >= 2): the j-th ball
// of a round goes to the slot of rank k-1-j.
func reversed(k int) []int {
	sigma := make([]int, k)
	for i := range sigma {
		sigma[i] = k - 1 - i
	}
	return sigma
}

// TestFastSelectMatchesReference is the kernel equivalence property: for
// random (n, k, d, seed) the counting kernel and the reference sort kernel
// — run under the same random stream — must deliver the identical receiving
// bins at identical heights, in the identical order, in EVERY round, and
// therefore identical final load vectors. The order pins the ranking, not
// just the selected set; SerializedKD under a non-identity σ delivers the
// ranks permuted. This is exact coupling, not a distributional comparison:
// both kernels consume the stream identically and share the keyed-hash tie
// order. The grid spans both sides of the flat ranker's d cutoff, and n from
// 8 (most rounds repeat a bin and fall through) to 8192 (most rounds are
// distinct and ranked flat). The small-k half draws k <= streamMaxPlace and
// d up to 130, across the streaming ranker's index-field widths.
func TestFastSelectMatchesReference(t *testing.T) {
	ns := []int{8, 13, 40, 100, 512, 4096, 8192}
	for _, policy := range []Policy{KDChoice, SerializedKD} {
		for _, small := range []bool{false, true} {
			name := policy.String()
			if small {
				name += "/small-k"
			}
			t.Run(name, func(t *testing.T) {
				if err := quick.Check(func(seed uint64, nRaw, kRaw, dRaw, multRaw uint8) bool {
					n := ns[int(nRaw)%len(ns)]
					k := int(kRaw%24) + 1
					d := k + 1 + int(dRaw)%(40-k)
					if small {
						k = int(kRaw%streamMaxPlace) + 1
						d = k + 1 + int(dRaw)%(130-k)
					}
					if d > n {
						d = n
						if k >= d {
							k = d - 1
						}
					}
					m := (int(multRaw%4)+1)*n/2 + int(multRaw/4)%k
					p := Params{N: n, K: k, D: d}
					if policy == SerializedKD {
						p.Sigma = reversed(k)
					}
					fast := MustNew(policy, p, xrand.New(seed))
					p.ReferenceSelect = true
					ref := MustNew(policy, p, xrand.New(seed))
					if err := sameRun(fast, ref, m); err != nil {
						t.Logf("n=%d k=%d d=%d m=%d seed=%d: %v", n, k, d, m, seed, err)
						return false
					}
					return true
				}, &quick.Config{MaxCount: 80}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFastSelectMatchesReferenceHeavy extends the coupling to the heavily
// loaded case (m = 64n plus a partial final round) on every exact
// specialized store: the small-k path (k = 3) and the paper's d = 2k
// shapes, among them the benchmark's (8,16), which the flat ranker takes
// whenever a round's samples are distinct.
func TestFastSelectMatchesReferenceHeavy(t *testing.T) {
	const n, seed = 2048, 1234
	for _, st := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist} {
		for _, tc := range []struct{ k, d int }{{3, 9}, {5, 10}, {8, 16}, {12, 24}} {
			t.Run(fmt.Sprintf("%v/k=%d,d=%d", st, tc.k, tc.d), func(t *testing.T) {
				p := Params{N: n, K: tc.k, D: tc.d, Store: st}
				fast := MustNew(KDChoice, p, xrand.New(seed))
				p.ReferenceSelect = true
				ref := MustNew(KDChoice, p, xrand.New(seed))
				if err := sameRun(fast, ref, 64*n+tc.k-1); err != nil {
					t.Fatalf("fast and reference kernels diverged under heavy load: %v", err)
				}
			})
		}
	}
}

// refRank is the reference sort over explicit samples and loads: the i-th
// sample of bin b sits at height load(b)+i, ranked by (height, tie, bin).
func refRank(samples, ldv []int, nonce uint64, toPlace int) []slot {
	seen := map[int]int{}
	var slots []slot
	for i, b := range samples {
		seen[b]++
		h := ldv[i] + seen[b]
		slots = append(slots, slot{bin: b, height: h, tie: tieKey(nonce, b, h)})
	}
	sort.Slice(slots, func(i, j int) bool { return slotLess(slots[i], slots[j]) })
	return slots[:toPlace]
}

// TestFlatRankFallThrough crafts the rounds the flat ranker must refuse —
// a repeated bin and a load spread of 64 — next to the distinct round and
// the spread of 63 it must take; probeAndRank matches the reference sort
// on each. A tie-prefix collision cannot be crafted through tieKey, so the
// rank step is driven with keys directly: two keys built from ties that
// share their top 58 bits must be refused, keys that differ in bit 6 not.
func TestFlatRankFallThrough(t *testing.T) {
	const k, d, nonce = 8, 16, 0x243f6a8885a308d3
	cases := []struct {
		name  string
		edit  func(samples, ldv []int)
		taken bool
	}{
		{"distinct", func([]int, []int) {}, true},
		{"repeated-bin", func(s, l []int) { s[11], l[11] = s[4], l[4] }, false},
		{"repeated-bin-above-boundary", func(s, l []int) { s[14], l[14], s[15], l[15] = 999, 140, 999, 140 }, false},
		{"spread-63", func(s, l []int) { l[2] = l[7] + 63 }, true},
		{"spread-64", func(s, l []int) { l[2] = l[7] + 64 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples := make([]int, d)
			ldv := make([]int, d)
			for i := range samples {
				samples[i] = 37*i + 5
				ldv[i] = 100 + i%3
			}
			ldv[7] = 99 // the round's lowest load
			tc.edit(samples, ldv)
			want := refRank(samples, ldv, nonce, k)
			sc := newSelector(d)
			sel, ok := sc.flatRank(samples, ldv, nonce, k)
			if ok != tc.taken {
				t.Fatalf("flatRank ok = %v, want %v", ok, tc.taken)
			}
			if ok && !reflect.DeepEqual(sel, want) {
				t.Fatalf("flatRank %v, reference %v", sel, want)
			}
			if got := sc.probeAndRank(samples, ldv, nonce, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("probeAndRank %v, reference %v", got, want)
			}
		})
	}

	t.Run("tie-prefix", func(t *testing.T) {
		const tie = 0x9e3779b97f4a7c15
		for _, tc := range []struct {
			other    uint64
			distinct bool
		}{{tie ^ 0x3f, false}, {tie ^ 0x40, true}} {
			var keys [flatMaxD]uint64
			for i := 0; i < 13; i++ {
				keys[i] = uint64(i%4)<<(64-flatHeightBits) | mix64(uint64(i))>>flatHeightBits
			}
			keys[3] = 2<<(64-flatHeightBits) | tie>>flatHeightBits
			keys[9] = 2<<(64-flatHeightBits) | tc.other>>flatHeightBits
			var rank [flatMaxD]uint8
			if got := rankKeys(&keys, 13, &rank); got != tc.distinct {
				t.Fatalf("ties %#x and %#x: rankKeys = %v, want %v", uint64(tie), tc.other, got, tc.distinct)
			}
		}
	})
}

// TestStreamRankFallThrough crafts the rounds streamRank must refuse —
// both copies of a repeated bin selected, one copy at the toPlace/toPlace+1
// boundary, a load spread of 64 — next to the ones it must take: a repeat
// outside the toPlace+1 smallest keys, a spread of 63, and d at the edges of
// the index field (64/65, 128/129) with the winner at the last index. Each
// round must match the reference sort at the selector, and a fast process
// and its ReferenceSelect twin must deliver it identically. A tie-prefix
// collision cannot be crafted through tieKey, so streamExact is driven with
// keys packed by flatKey directly.
func TestStreamRankFallThrough(t *testing.T) {
	const nonce = 0x243f6a8885a308d3
	type round struct{ samples, loads []int } // loads indexed by bin
	cases := []struct {
		name       string
		d, toPlace int
		edit       func(r round)
		taken      bool
	}{
		{"distinct", 16, 3, func(round) {}, true},
		{"both-copies-selected", 16, 3, func(r round) {
			r.loads[r.samples[7]] = 5
			r.samples[11] = r.samples[7]
		}, false},
		{"copy-at-boundary", 16, 3, func(r round) {
			r.loads[r.samples[2]], r.loads[r.samples[5]] = 5, 5
			r.loads[r.samples[9]] = 6
			r.samples[13] = r.samples[9]
		}, false},
		{"repeat-outside", 16, 3, func(r round) {
			r.loads[r.samples[4]] = 30
			r.samples[12] = r.samples[4]
		}, true},
		{"spread-63", 16, 3, func(r round) { r.loads[r.samples[7]], r.loads[r.samples[2]] = 9, 9+63 }, true},
		{"spread-64", 16, 3, func(r round) { r.loads[r.samples[7]], r.loads[r.samples[2]] = 9, 9+64 }, false},
	}
	for _, d := range []int{64, 65, 128, 129} {
		d := d
		cases = append(cases, []struct {
			name       string
			d, toPlace int
			edit       func(r round)
			taken      bool
		}{
			{fmt.Sprintf("d=%d/last-index-wins", d), d, 4, func(r round) {
				r.loads[r.samples[d-1]], r.loads[r.samples[d-2]] = 5, 6
			}, true},
			{fmt.Sprintf("d=%d/repeat-at-last-index", d), d, 4, func(r round) {
				r.loads[r.samples[0]] = 5
				r.samples[d-1] = r.samples[0]
			}, false},
		}...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := round{samples: make([]int, tc.d), loads: make([]int, 3*tc.d+8)}
			for i := range r.samples {
				r.samples[i] = 3*i + 1
				r.loads[r.samples[i]] = 10 + i%3
			}
			tc.edit(r)
			ldv := make([]int, tc.d)
			for i, b := range r.samples {
				ldv[i] = r.loads[b]
			}
			want := refRank(r.samples, ldv, nonce, tc.toPlace)
			sc := newSelector(tc.d)
			sel, ok := sc.streamRank(r.samples, ldv, nonce, tc.toPlace)
			if ok != tc.taken {
				t.Fatalf("streamRank ok = %v, want %v", ok, tc.taken)
			}
			if ok && !reflect.DeepEqual(sel, want) {
				t.Fatalf("streamRank %v, reference %v", sel, want)
			}
			if got := newSelector(tc.d).probeAndRank(r.samples, ldv, nonce, tc.toPlace); !reflect.DeepEqual(got, want) {
				t.Fatalf("probeAndRank %v, reference %v", got, want)
			}

			var logs [2]roundLog
			for i, ref := range []bool{false, true} {
				pr := MustNew(KDChoice, Params{N: len(r.loads), K: tc.toPlace, D: tc.d, ReferenceSelect: ref}, xrand.New(3))
				pr.SetObserver(&logs[i])
				pr.setLoads(r.loads)
				copy(pr.samples, r.samples)
				pr.roundKDFromSamples(tc.toPlace)
			}
			if !reflect.DeepEqual(logs[0], logs[1]) {
				t.Fatalf("fast kernel delivered %v heights %v, ReferenceSelect %v heights %v",
					logs[0].placed, logs[0].heights, logs[1].placed, logs[1].heights)
			}
		})
	}

	t.Run("tie-prefix", func(t *testing.T) {
		const tie = 0x9e3779b97f4a7c15
		for _, d := range []int{64, 65, 128, 129} {
			idx := newSelector(d).idxMask
			dropped := idx<<flatHeightBits | (1<<flatHeightBits - 1) // the tie bits a key drops
			for _, tc := range []struct {
				other    uint64
				distinct bool
			}{{tie ^ dropped, false}, {tie ^ (dropped + 1), true}} {
				key := func(h int, tie uint64, i int) uint64 { return flatKey(h, tie)&^idx | uint64(i) }
				top := [streamMaxPlace + 1]uint64{
					key(0, mix64(1), 5),
					key(2, tie, 3),
					key(2, tc.other, d-1),
					key(4, mix64(2), 0),
					key(7, mix64(3), 9),
				}
				sort.Slice(top[:], func(i, j int) bool { return top[i] < top[j] })
				if got := streamExact(&top, streamMaxPlace, idx); got != tc.distinct {
					t.Fatalf("d=%d, ties %#x and %#x: streamExact = %v, want %v", d, uint64(tie), tc.other, got, tc.distinct)
				}
			}
		}
	})
}

// TestRankKeys: the rank count agrees with a plain count for any d up to
// the cutoff, and reports distinctness exactly; small key ranges force
// repeats.
func TestRankKeys(t *testing.T) {
	if err := quick.Check(func(seed uint64, dRaw, spanRaw uint8) bool {
		d := int(dRaw)%flatMaxD + 1
		span := uint64(spanRaw)%(2*flatMaxD) + 1
		rng := xrand.New(seed)
		var keys [flatMaxD]uint64
		for i := range keys {
			keys[i] = rng.Uint64() % span
		}
		var rank [flatMaxD]uint8
		ok := rankKeys(&keys, d, &rank)
		distinct := true
		for i := 0; i < d; i++ {
			r := 0
			for j := 0; j < d; j++ {
				if keys[j] < keys[i] {
					r++
				}
				if j != i && keys[j] == keys[i] {
					distinct = false
				}
			}
			if int(rank[i]) != r {
				return false
			}
		}
		return ok == distinct
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFastSelectSparseFallback forces the counting window to overflow
// (sampled loads spread far wider than 2d) so the fast kernel must take its
// internal full-sort fallback — and still match the reference kernel
// exactly.
func TestFastSelectSparseFallback(t *testing.T) {
	const n, k, d, seed = 32, 2, 6, 7
	mk := func(reference bool) *Process {
		pr := MustNew(KDChoice, Params{N: n, K: k, D: d, ReferenceSelect: reference}, xrand.New(seed))
		// Extreme imbalance: loads 0, 1000, 2000, ... — any round sampling
		// two different bins spans far more than the counting window.
		loads := make([]int, n)
		for b := range loads {
			loads[b] = b * 1000
		}
		pr.setLoads(loads)
		return pr
	}
	fast, ref := mk(false), mk(true)
	fast.Place(20 * k)
	ref.Place(20 * k)
	if !reflect.DeepEqual(fast.Loads(), ref.Loads()) {
		t.Fatal("fallback path diverged from reference kernel")
	}
	if fast.MaxLoad() != ref.MaxLoad() {
		t.Fatal("fallback max loads differ")
	}
}

// TestSelectSmallestSlots: quickselect must put exactly the k smallest
// slots (under the slot total order) into the prefix, for arbitrary inputs.
func TestSelectSmallestSlots(t *testing.T) {
	if err := quick.Check(func(seed uint64, sizeRaw, kRaw uint8) bool {
		size := int(sizeRaw%100) + 1
		k := int(kRaw) % (size + 1)
		rng := xrand.New(seed)
		s := make([]slot, size)
		for i := range s {
			s[i] = slot{bin: i, height: rng.Intn(6), tie: rng.Uint64() % 8}
		}
		want := make([]slot, size)
		copy(want, s)
		sort.Slice(want, func(i, j int) bool { return slotLess(want[i], want[j]) })
		selectSmallestSlots(s, k)
		got := append([]slot{}, s[:k]...)
		sort.Slice(got, func(i, j int) bool { return slotLess(got[i], got[j]) })
		return reflect.DeepEqual(got, append([]slot{}, want[:k]...))
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundaryTieUniform checks the lazily derived tie keys statistically:
// with all bins empty and fixed samples {0,1,2,3}, a (1,4) round has a
// four-way tie at height 1 and each bin must win with probability 1/4.
func TestBoundaryTieUniform(t *testing.T) {
	const trials = 20000
	pr := MustNew(KDChoice, Params{N: 4, K: 1, D: 4}, xrand.New(5))
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		copy(pr.samples, []int{0, 1, 2, 3})
		pr.roundKDFromSamples(1)
		for b := 0; b < 4; b++ {
			counts[b] += pr.Load(b)
		}
		pr.Reset()
	}
	for b, c := range counts {
		p := float64(c) / trials
		if p < 0.23 || p > 0.27 {
			t.Fatalf("bin %d won %0.4f of four-way ties, want ~0.25 (counts %v)", b, p, counts)
		}
	}
}

// TestRoundAllocationFree pins the acceptance criterion that the steady-
// state round hot path performs zero heap allocations, on both kernels.
func TestRoundAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		ref  bool
	}{{"fast", false}, {"sort", true}} {
		pr := MustNew(KDChoice, Params{N: 4096, K: 2, D: 64, ReferenceSelect: tc.ref}, xrand.New(9))
		pr.Place(4096) // warm the scratch buffers
		if avg := testing.AllocsPerRun(200, pr.Round); avg != 0 {
			t.Fatalf("%s kernel: %v allocs per round, want 0", tc.name, avg)
		}
	}
}

// TestMultiplicityRuleFastKernel re-runs the paper's disambiguation-rule
// observer over the fast kernel at adversarial (k, d) shapes, including the
// acceptance-cell shape k=2, d=64.
func TestMultiplicityRuleFastKernel(t *testing.T) {
	for _, tc := range []struct{ k, d int }{{1, 2}, {2, 64}, {7, 8}, {16, 33}} {
		pr := MustNew(KDChoice, Params{N: 256, K: tc.k, D: tc.d}, xrand.New(17))
		rc := &ruleChecker{t: t}
		pr.SetObserver(rc)
		pr.Place(1024)
		if rc.maxSeen != pr.MaxLoad() {
			t.Fatalf("k=%d d=%d: max height seen %d != max load %d", tc.k, tc.d, rc.maxSeen, pr.MaxLoad())
		}
	}
}
