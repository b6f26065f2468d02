package core

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

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
// random (n, k, d, seed) the selection kernel and blockOracle at Block = 1
// — a plain-slice process that ranks each round by the definition, run
// under the same random stream — must deliver the identical receiving bins
// at identical heights, in the identical order, in EVERY round, and
// therefore identical final load vectors. The order pins the ranking, not
// just the selected set; SerializedKD under a non-identity σ delivers the
// ranks permuted. This is exact coupling, not a distributional comparison:
// both consume the stream identically and share the keyed-hash tie order.
// The grid spans both sides of the flat ranker's d cutoff, and n from
// 8 (most rounds repeat a bin and fall through) to 8192 (most rounds are
// distinct and ranked flat). The small-k half draws k <= streamMaxPlace and
// d up to 130, across the streaming ranker's index-field widths. The light
// half places at most n/2 balls at k <= streamMaxPlace and d up to 130 on
// every exact store, where the empty-leader walk ranks most rounds: in half
// its runs a sixteenth of the bins starts at a load past the compact and
// nibble cell range; in those and in a quarter more the walk is forced on
// at any load, k and d, and the rest keep its gate (k = 2, d >= walkMinD,
// at most n/4 balls), which closes mid-run. The light half runs once per
// leader path (the Go network, and the AVX-512 kernel where the host has
// it).
func TestFastSelectMatchesReference(t *testing.T) {
	ns := []int{8, 13, 40, 100, 512, 4096, 8192}
	for _, policy := range []Policy{KDChoice, SerializedKD} {
		for _, mode := range []string{"", "small-k", "light"} {
			name := policy.String()
			if mode != "" {
				name += "/" + mode
			}
			check := func(t *testing.T) {
				if err := quick.Check(func(seed uint64, nRaw, kRaw, dRaw, multRaw uint8) bool {
					n := ns[int(nRaw)%len(ns)]
					k := int(kRaw%24) + 1
					d := k + 1 + int(dRaw)%(40-k)
					if mode != "" {
						k = int(kRaw%streamMaxPlace) + 1
						d = k + 1 + int(dRaw)%(130-k)
					}
					if mode == "light" {
						n = ns[4+int(nRaw)%3]
					}
					if d > n {
						d = n
						if k >= d {
							k = d - 1
						}
					}
					m := (int(multRaw%4)+1)*n/2 + int(multRaw/4)%k
					st := walkStores[int(nRaw/8)%len(walkStores)]
					var loads []int
					if mode == "light" {
						m = (int(multRaw%8)+1)*n/16 + int(multRaw/8)%k
						if multRaw&0x80 != 0 {
							loads = make([]int, n)
							for b := 0; b < n; b += 16 {
								loads[b] = st.escaped + b%3
							}
						}
					}
					p := Params{N: n, K: k, D: d}
					if mode == "light" {
						p.Store = st.kind
					}
					if policy == SerializedKD {
						p.Sigma = reversed(k)
					}
					fast := MustNew(policy, p, xrand.New(seed))
					if loads != nil {
						fast.setLoads(loads)
					}
					if loads != nil || mode == "light" && multRaw&0x40 != 0 {
						// The walk is exact at any load, k and d; its gate
						// only prices it.
						fast.walkMax = math.MaxInt
					}
					if err := matchOracle(fast, newOracle(policy, p, seed, loads), m); err != nil {
						t.Logf("n=%d k=%d d=%d m=%d store=%v seed=%d: %v", n, k, d, m, p.Store, seed, err)
						return false
					}
					return true
				}, &quick.Config{MaxCount: 80}); err != nil {
					t.Fatal(err)
				}
			}
			t.Run(name, func(t *testing.T) {
				if mode == "light" {
					onLeaderPaths(t, check)
				} else {
					check(t)
				}
			})
		}
	}
}

// TestFastSelectMatchesReferenceHeavy extends the coupling with blockOracle
// to the heavily loaded case (m = 64n plus a partial final round) on the
// dense, compact and hist stores: the small-k path (k = 3) and the paper's
// d = 2k shapes, among them the benchmark's (8,16), which the flat ranker
// takes whenever a round's samples are distinct.
func TestFastSelectMatchesReferenceHeavy(t *testing.T) {
	const n, seed = 2048, 1234
	for _, st := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist} {
		for _, tc := range []struct{ k, d int }{{3, 9}, {5, 10}, {8, 16}, {12, 24}} {
			t.Run(fmt.Sprintf("%v/k=%d,d=%d", st, tc.k, tc.d), func(t *testing.T) {
				p := Params{N: n, K: tc.k, D: tc.d, Store: st}
				fast := MustNew(KDChoice, p, xrand.New(seed))
				if err := matchOracle(fast, newOracle(KDChoice, p, seed, nil), 64*n+tc.k-1); err != nil {
					t.Fatalf("the kernel diverged from the oracle under heavy load: %v", err)
				}
			})
		}
	}
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
// round must match the reference sort at the selector, and a process must
// deliver it as blockOracle does. A tie-prefix collision cannot be crafted
// through tieKey, so streamExact is driven with keys packed by flatKey
// directly.
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

			p := Params{N: len(r.loads), K: tc.toPlace, D: tc.d}
			if err := matchOracleRound(MustNew(KDChoice, p, xrand.New(3)), newOracle(KDChoice, p, 3, r.loads), r.samples); err != nil {
				t.Fatal(err)
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

// walkStores are the exact stores the empty-leader walk reads, with a load
// past each store's cell range (compact 65535, nibble 15), so a loaded
// leader can be an escaped one.
var walkStores = []struct {
	kind    loadvec.StoreKind
	escaped int
}{
	{loadvec.StoreDense, 70000},
	{loadvec.StoreCompact, 70000},
	{loadvec.StoreHist, 70000},
	{loadvec.StoreNibble, 40},
}

// leaderPaths are leaderKeys' two paths: the Go network, and the AVX-512
// kernel on hosts that have it.
var leaderPaths = []struct {
	name   string
	kernel bool
}{{"network", false}, {"kernel", true}}

// useLeaderPath sets leaderKeys' path for the rest of tb, and skips tb when
// it asks for the kernel on a host without one.
func useLeaderPath(tb testing.TB, kernel bool) {
	tb.Helper()
	if kernel && !haveLeaderKernel {
		tb.Skip("no leader kernel here: it needs amd64 with AVX-512F and AVX-512DQ, saved by the OS")
	}
	old := leaderKernelOn
	leaderKernelOn = kernel
	tb.Cleanup(func() { leaderKernelOn = old })
}

// onLeaderPaths runs f once per leader path, as subtests.
func onLeaderPaths(t *testing.T, f func(t *testing.T)) {
	for _, path := range leaderPaths {
		t.Run(path.name, func(t *testing.T) {
			useLeaderPath(t, path.kernel)
			f(t)
		})
	}
}

// TestLeaderKeysKernel pins the AVX-512 leader kernel to the Go network:
// on 10⁵ random rounds both paths of leaderKeys return the same five keys.
// d runs from 8 to 300, so every tail length d mod 8 occurs, with the
// index mask of bits.Len(d-1) bits and a random nonce. At n = 1 every
// sample is one bin and the keys differ only in their index bits; small n
// repeats bins; n = 10⁸ and 2³¹−1 spread the bin multiply over all 64
// bits.
func TestLeaderKeysKernel(t *testing.T) {
	useLeaderPath(t, true)
	ns := []int{1, 2, 3, 5, 16, 100, 1000, 100_000_000, math.MaxInt32}
	rng := xrand.New(0x1eade75)
	samples := make([]int, 300)
	for r := 0; r < 100_000; r++ {
		d := 8 + rng.Intn(len(samples)-7)
		n := ns[r%len(ns)]
		s := samples[:d]
		for i := range s {
			s[i] = rng.Intn(n)
		}
		nonce := rng.Uint64()
		idx := uint64(1)<<bits.Len(uint(d-1)) - 1
		leaderKernelOn = false
		want := leaderKeys(s, nonce, idx)
		leaderKernelOn = true
		if got := leaderKeys(s, nonce, idx); got != want {
			t.Fatalf("round %d (n=%d, d=%d, nonce %#x): kernel %#x, Go network %#x", r, n, d, nonce, got, want)
		}
	}
}

// TestLeaderWalk crafts the rounds the empty-leader walk must settle — every
// leader empty, loaded (and escaped) leaders it skips, a repeat outside the
// walked leaders — next to the ones it must refuse: a repeated bin among
// the leaders, a copy at the key after the last one taken, and too few
// empty leaders. Each round must match the reference sort, on every exact
// store, at the selector, and a process must deliver it as blockOracle
// does, on each leader path. A tie-prefix collision cannot be crafted
// through tieKey, so the walk is driven with keys directly.
func TestLeaderWalk(t *testing.T) {
	const d, nonce = 64, 0x243f6a8885a308d3
	// lead(i) is the sample index of leader i of the unedited round.
	base := make([]int, d)
	for i := range base {
		base[i] = 3*i + 1
	}
	idx := newSelector(d).idxMask
	top := leaderKeys(base, nonce, idx)
	lead := func(i int) int { return int(top[i] & idx) }
	var outside []int // samples that lead nothing
	for i := range base {
		if !slices.ContainsFunc(top[:], func(k uint64) bool { return int(k&idx) == i }) {
			outside = append(outside, i)
		}
	}
	cases := []struct {
		name    string
		toPlace int
		edit    func(samples, loads []int, escaped int)
		taken   bool
	}{
		{"all-empty", 2, func([]int, []int, int) {}, true},
		{"all-empty/k=4", 4, func([]int, []int, int) {}, true},
		{"loaded-leader", 2, func(s, l []int, _ int) { l[s[lead(0)]] = 3 }, true},
		{"escaped-leaders", 2, func(s, l []int, esc int) { l[s[lead(0)]], l[s[lead(2)]] = esc, esc+1 }, true},
		{"loaded-first-two", 2, func(s, l []int, _ int) { l[s[lead(0)]], l[s[lead(1)]] = 1, 2 }, true},
		{"repeat-outside", 2, func(s, l []int, _ int) { s[outside[0]] = s[outside[1]] }, true},
		{"repeated-leader", 2, func(s, l []int, _ int) { s[lead(1)] = s[lead(0)] }, false},
		{"repeated-loaded-leader", 2, func(s, l []int, _ int) { l[s[lead(0)]] = 4; s[lead(1)] = s[lead(0)] }, false},
		{"copy-after-last-taken", 2, func(s, l []int, _ int) { s[lead(2)] = s[lead(1)] }, false},
		{"too-few-empty", 2, func(s, l []int, esc int) { l[s[lead(0)]], l[s[lead(1)]], l[s[lead(3)]] = 1, esc, 2 }, false},
		{"too-few-empty/k=4", 4, func(s, l []int, _ int) { l[s[lead(3)]] = 1 }, false},
	}
	for _, st := range walkStores {
		for _, tc := range cases {
			walk := func(t *testing.T) {
				samples := append([]int(nil), base...)
				loads := make([]int, 3*d+8)
				tc.edit(samples, loads, st.escaped)
				ldv := make([]int, d)
				for i, b := range samples {
					ldv[i] = loads[b]
				}
				want := refRank(samples, ldv, nonce, tc.toPlace)
				store, err := loadvec.NewStore(st.kind, len(loads))
				if err != nil {
					t.Fatal(err)
				}
				for b, l := range loads {
					store.Set(b, l)
				}
				sc := newSelector(d)
				top := leaderKeys(samples, nonce, sc.idxMask)
				sel, ok := sc.walkLeaders(store, samples, &top, nonce, tc.toPlace)
				if ok != tc.taken {
					t.Fatalf("walkLeaders ok = %v, want %v", ok, tc.taken)
				}
				if ok && !reflect.DeepEqual(sel, want) {
					t.Fatalf("walkLeaders %v, reference %v", sel, want)
				}

				p := Params{N: len(loads), K: tc.toPlace, D: d, Store: st.kind}
				pr := MustNew(KDChoice, p, xrand.New(3))
				pr.walkMax = math.MaxInt // the escaped loads close the gate; the walk is exact at any load
				if err := matchOracleRound(pr, newOracle(KDChoice, p, 3, loads), samples); err != nil {
					t.Fatal(err)
				}
			}
			t.Run(fmt.Sprintf("%v/%s", st.kind, tc.name), func(t *testing.T) { onLeaderPaths(t, walk) })
		}
	}

	t.Run("tie-prefix", func(t *testing.T) {
		const tie = 0x9e3779b97f4a7c15
		store := loadvec.NewDense(3*d + 8)
		dropped := idx<<flatHeightBits | (1<<flatHeightBits - 1) // the tie bits a key drops
		for _, tc := range []struct {
			other    uint64
			distinct bool
		}{{tie ^ dropped, false}, {tie ^ (dropped + 1), true}} {
			key := func(tie uint64, i int) uint64 { return flatKey(0, tie)&^idx | uint64(i) }
			top := [streamMaxPlace + 1]uint64{key(mix64(1), 5), key(tie, 3), key(tc.other, d-1), key(mix64(2), 0), key(mix64(3), 9)}
			sort.Slice(top[:], func(i, j int) bool { return top[i] < top[j] })
			sel, ok := newSelector(d).walkLeaders(store, base, &top, nonce, 3)
			if ok != tc.distinct {
				t.Fatalf("ties %#x and %#x: walkLeaders ok = %v, want %v", uint64(tie), tc.other, ok, tc.distinct)
			}
			if ok && len(sel) != 3 {
				t.Fatalf("walkLeaders took %d leaders, want 3", len(sel))
			}
		}
	})
}

// readCounter is a store that records its reads: the bins read one at a
// time through Load, in order, and the samples read through Gather.
type readCounter struct {
	loadvec.Store
	loaded   []int
	gathered int
}

func (c *readCounter) Load(bin int) int {
	c.loaded = append(c.loaded, bin)
	return c.Store.Load(bin)
}

func (c *readCounter) Gather(bins, loads []int) {
	c.gathered += len(bins)
	c.Store.Gather(bins, loads)
}

// TestLeaderWalkEngages pins where the empty-leader walk runs, so a gate
// that silently never opens fails here and not only in a benchmark: a
// light-load (2,64) round reads exactly its walked leaders one at a time,
// in key order, and gathers its d samples only when those leaders cannot
// settle it (serial, pipelined and not; sharded rounds likewise); a round
// past the gate, a round on the sketch, a round of d < walkMinD and a k = 4
// round gather all d samples and read none alone. (2,16) stays shut: the
// walk did not win it reliably (walkMaxBalls).
func TestLeaderWalkEngages(t *testing.T) {
	const n, k, d, rounds = 1 << 16, 2, 64, 200
	for _, tc := range []struct {
		p    Params
		want int
	}{
		{Params{N: n, K: k, D: d}, n / 4},
		{Params{N: n, K: k, D: walkMinD, Store: loadvec.StoreNibble}, n / 4},
		{Params{N: n, K: k, D: walkMinD - 1}, -1},
		{Params{N: n, K: k, D: 16}, -1},
		{Params{N: n, K: 1, D: d}, -1},
		{Params{N: n, K: 4, D: d}, -1},
		{Params{N: n, K: k, D: d, Store: loadvec.StoreSketch}, -1},
	} {
		if w := walkMaxBalls(tc.p); w != tc.want {
			t.Fatalf("walkMaxBalls(n=%d, k=%d, d=%d, %v) = %d, want %d",
				tc.p.N, tc.p.K, tc.p.D, tc.p.Store, w, tc.want)
		}
	}

	light := func(t *testing.T, p Params) {
		pr := MustNew(KDChoice, p, xrand.New(11))
		pr.Place(n / 8)
		rc := &readCounter{Store: pr.store}
		pr.store = rc
		settled := 0
		for r := 0; r < rounds; r++ {
			rc.loaded, rc.gathered = rc.loaded[:0], 0
			before := pr.Loads()
			pr.Round()
			// The walk the round must have made: leaders in key order,
			// until k are empty, a key repeats above the index bits, or
			// the walkable leaders run out.
			idx := pr.selsc.idxMask
			top := leaderKeys(pr.samples, pr.eng.blk.nonces[pr.eng.idx-1], idx)
			var walked []int
			empty := 0
			for j := 0; j < streamMaxPlace && empty < k && (top[j]^top[j+1])&^idx != 0; j++ {
				b := pr.samples[top[j]&idx]
				walked = append(walked, b)
				if before[b] == 0 {
					empty++
				}
			}
			wantGather := d
			if empty == k {
				wantGather = 0
				settled++
			}
			if rc.gathered != wantGather || !slices.Equal(rc.loaded, walked) {
				t.Fatalf("round %d at %d balls: gathered %d samples and loaded %v, want %d gathered and the walked leaders %v",
					r, pr.Balls(), rc.gathered, rc.loaded, wantGather, walked)
			}
		}
		if settled < rounds*9/10 {
			t.Fatalf("the walk settled %d of %d rounds at load 1/8, want at least 90%%", settled, rounds)
		}
	}
	t.Run("light/compact", func(t *testing.T) { light(t, Params{N: n, K: k, D: d, Store: loadvec.StoreCompact}) })
	t.Run("light/dense/block=1", func(t *testing.T) { light(t, Params{N: n, K: k, D: d, Block: 1}) })

	t.Run("light/shards=2", func(t *testing.T) {
		pr := MustNew(KDChoice, Params{N: n, K: k, D: d, Shards: 2, Block: 64}, xrand.New(11))
		pr.Close() // one goroutine decides every share, so the counter needs no lock
		pr.Place(n / 8)
		rc := &readCounter{Store: pr.store}
		pr.store, pr.shard.store = rc, rc
		pr.Place(k * rounds)
		if fell := rc.gathered / d; rc.gathered%d != 0 || fell > rounds/10 ||
			len(rc.loaded) < (rounds-fell)*k || len(rc.loaded) > rounds*streamMaxPlace {
			t.Fatalf("%d sharded rounds gathered %d samples and loaded %d bins alone, want at most %d gathered rounds and %d to %d loads",
				rounds, rc.gathered, len(rc.loaded), rounds/10, rounds*k*9/10, rounds*streamMaxPlace)
		}
	})

	gathersAll := func(t *testing.T, p Params, warm int) {
		pr := MustNew(KDChoice, p, xrand.New(11))
		pr.Place(warm)
		rc := &readCounter{Store: pr.store}
		pr.store = rc
		for r := 0; r < rounds; r++ {
			rc.loaded, rc.gathered = rc.loaded[:0], 0
			pr.Round()
			if rc.gathered != p.D || len(rc.loaded) != 0 {
				t.Fatalf("round %d at %d balls: gathered %d samples and loaded %d bins alone, want all %d gathered",
					r, pr.Balls(), rc.gathered, len(rc.loaded), p.D)
			}
		}
	}
	t.Run("heavy", func(t *testing.T) { gathersAll(t, Params{N: n, K: k, D: d}, n) })
	t.Run("past-gate", func(t *testing.T) { gathersAll(t, Params{N: n, K: k, D: d}, n/4+1) })
	t.Run("sketch", func(t *testing.T) { gathersAll(t, Params{N: n, K: k, D: d, Store: loadvec.StoreSketch}, n/8) })
	t.Run("short-d", func(t *testing.T) { gathersAll(t, Params{N: n, K: k, D: walkMinD - 1}, n/8) })
	t.Run("k=4", func(t *testing.T) { gathersAll(t, Params{N: n, K: 4, D: d}, n/8) })
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
// (sampled loads spread far wider than 2d) so the kernel must take its
// internal full-sort fallback — and still match blockOracle round by
// round.
func TestFastSelectSparseFallback(t *testing.T) {
	const n, k, d, seed = 32, 2, 6, 7
	// Extreme imbalance: loads 0, 1000, 2000, ... — any round sampling
	// two different bins spans far more than the counting window.
	loads := make([]int, n)
	for b := range loads {
		loads[b] = b * 1000
	}
	p := Params{N: n, K: k, D: d}
	pr := MustNew(KDChoice, p, xrand.New(seed))
	pr.setLoads(loads)
	if err := matchOracle(pr, newOracle(KDChoice, p, seed, loads), 20*k); err != nil {
		t.Fatalf("fallback path diverged from the oracle: %v", err)
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
// state round hot path performs zero heap allocations, for the (k,d) and
// the DynamicKD round.
func TestRoundAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		p      Params
	}{
		{KDChoice, Params{N: 4096, K: 2, D: 64}},
		{DynamicKD, Params{N: 4096, D: 64}},
	} {
		pr := MustNew(tc.policy, tc.p, xrand.New(9))
		pr.Place(4096) // warm the scratch buffers
		if avg := testing.AllocsPerRun(200, pr.Round); avg != 0 {
			t.Fatalf("%v: %v allocs per round, want 0", tc.policy, avg)
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
