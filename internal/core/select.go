package core

import (
	"math/bits"
	"unsafe"

	"repro/internal/loadvec"
)

// This file is the round engine's selection kernel: given the d samples of a
// round it materializes the conceptual slots (the i-th sample of bin b has
// height load(b)+i) and returns the toPlace slots of minimum height, ranked
// by (height, tie, bin) ascending, with ties between bins at equal height
// broken uniformly at random. toPlace may be d: a DynamicKD round ranks all
// of its slots and cuts the ranked prefix at its ceiling.
//
// The kernel has one implementation with four paths. A light-load round
// first tries the empty-leader walk, which reads only a few loads one at a
// time (Store.Load); any other round, and any round the walk cannot settle,
// reads every sample's load with one Store.Gather call (kernel.go) and
// probeAndRank below ranks it. All four paths return the same ranked slice.
// The tests check it against blockOracle, a process written on a plain
// slice straight from the definition of a round (oracle_test.go).
//
// The first three paths rank packed keys without the group table: in the
// flat view every sample sits at load+1, as if its bin were sampled once,
// so each sample packs into one (height, tie) key. A round none of them can
// rank exactly falls through to the fourth.
//
//   - the empty-leader walk, for the (2,d) rounds of d >= walkMinD while
//     at most n/4 balls are placed on an exact store (walkMaxBalls): it
//     keys every sample as if its bin were empty, with no load read, and
//     keeps the five smallest keys, the leaders (leaderKeys): eight
//     samples per instruction in an assembly kernel on amd64 hosts with
//     AVX-512F and AVX-512DQ (leaders_amd64.s), else with the streaming
//     ranker's register network in Go. No slot sits below height 1, and the
//     height-1 slots are exactly the first copies of the empty sampled
//     bins, tied by the leader keys' ties. So the first toPlace empty,
//     distinct leaders in key order are the round's top slots: the walk
//     reads the leaders' loads in key order until toPlace are empty. A
//     repeated bin or a tie-prefix collision among the walked leaders or
//     at the key after the last one taken (streamExact's condition), or
//     too few empty leaders, sends the round to the gather and the paths
//     below. The serial engine and each shard lane compute the next
//     pre-drawn round's leaders one round ahead and prefetch only their
//     lines.
//   - the streaming ranker, for toPlace <= 4 at any d: a branch-free pass
//     keeps the toPlace+1 smallest keys in registers. A repeated bin
//     changes the result only if two of its copies reach the selection,
//     and then two of those toPlace+1 keys agree; so do the keys of a
//     copy at the boundary and of a tie-prefix collision. Those rounds,
//     and load spreads of 64 or more, fall through. This covers every
//     k = 2 round the walk does not take or settle.
//   - the flat ranker, for toPlace > 4 and d <= flatMaxD when the d
//     samples are distinct bins: all but ~d²/2n of rounds, 99.9% at d = 16
//     and n = 10⁵. A branch-free count over all d² key pairs ranks the
//     round. A round it cannot rank exactly (a repeated bin, a load spread
//     of 64 or more, a tie-prefix collision) falls through.
//   - the counting path: an epoch-stamped open-addressed table (O(d)
//     space, reused clear-free across a whole superstep) groups the
//     samples and materializes the slots in the same scan; rankFromSlots
//     then locates the k-th smallest height by counting over the round's
//     dense height window, deriving random tie keys lazily — only for
//     slots at or below the boundary height. It takes the fall-through
//     rounds and toPlace > 4 at d > flatMaxD.
//
// The streaming and flat rankers also take toPlace = d. Every sample is
// then selected, so a repeated bin's copies are both among the ranked keys,
// where they collide and send the round to the counting path.
//
// Tie keys are a keyed hash of (bin, height) under a per-round nonce. A
// round consumes the random stream identically on every path (d sample
// draws plus one nonce draw) and every path orders slots by the same total
// order, so for a fixed seed they deliver bitwise-identical ranked slots —
// the property TestFastSelectMatchesReference checks against blockOracle. A
// keyed hash instead of one rng.Uint64 per slot is what makes this
// possible: tie keys are a pure function of (nonce, bin, height), so
// computing them lazily, for every sample as the flat and streaming rankers
// do, or for a height the sample may not have as the walk does, does not
// perturb the stream.
//
// Where the time goes. On the heavily loaded benchmark shape (k = 8,
// d = 16, n = 10⁵) selection is most of a round: gather and apply hit
// cache. The sampled loads there are not flat: over m = 200n…300n the
// height spread of a round (max − min) was 1–3 in 88% of 1.25M rounds and
// never above 10; every slot sat at one height in only 178 rounds. The
// counting path pays for that spread with the histogram, the boundary
// cohort and the final sort, and for the grouping with the table probe;
// the flat ranker pays for neither.

// tieKey derives the uniform tie-break key of the slot (bin, height) under
// the round nonce. Distinct slots of one round hash distinct (bin, height)
// pairs, so within a tied cohort (equal height, distinct bins) the keys are
// independent uniform lottery tickets, exactly as in DChoice's argmin.
//
//kd:hotpath
func tieKey(nonce uint64, bin, height int) uint64 {
	return mix64(nonce ^ uint64(bin)*0x9e3779b97f4a7c15 ^ uint64(height)*0xda942042e4dd58b5)
}

// rankSelect draws the round nonce and ranks the current pr.samples. The
// returned slice aliases process scratch and is valid until the next round.
// The engine round paths skip this and call rankSelectWith on their
// pre-drawn nonce.
func (pr *Process) rankSelect(toPlace int) []slot {
	return pr.rankSelectWith(pr.rng.Uint64(), toPlace)
}

// rankSelectWith is rankSelect with the nonce already materialized — either
// by rankSelect itself or by the superstep engine. While at most walkMax
// balls are placed the round goes to the lane's empty-leader walk
// (selector.walkRank) with its engine position and the next pre-drawn
// round, the target of the walk's pipeline; a round rankSelect drew gets
// the position of the engine's last round, which is ranked already, and
// the pipeline only ever holds a round not yet ranked, so it cannot match.
// Any other round gathers every sample's load and prefetches the next
// round's lines during the ranking.
//
//kd:hotpath
func (pr *Process) rankSelectWith(nonce uint64, toPlace int) []slot {
	sc := pr.selsc
	if pr.balls > pr.walkMax {
		sc.prefetchNext(pr.peekNext())
		pr.store.Gather(pr.samples, pr.ldv)
		return pr.probeAndRank(nonce, toPlace)
	}
	var at, nextNonce uint64
	var next []int
	if e := pr.eng; e != nil {
		at = e.pos
		if next = e.peekNext(); next != nil {
			nextNonce = e.peekNonce()
		}
	}
	return sc.walkRank(pr.store, pr.samples, pr.ldv[:len(pr.samples)], nonce, at, next, nextNonce, at+1, toPlace)
}

// walkRank ranks one (k,d) round by the empty-leader walk on this lane; the
// serial engine and every shard worker call it alike. samples and nonce are
// the round's and at its position in the engine's order (0: none); next,
// nextNonce and nextAt are the round the lane ranks after it (next nil:
// none drawn yet). The walk reads only the round's leaders' loads, and
// computes next's leaders one round early, requesting only their lines. A
// round the walk cannot settle gathers every sample's load into ldv and is
// ranked on probeAndRank's paths. The store is only read.
//
//kd:hotpath
func (sc *selector) walkRank(store loadvec.Store, samples, ldv []int, nonce, at uint64, next []int, nextNonce, nextAt uint64, toPlace int) []slot {
	top := sc.leaders(samples, nonce, at)
	if next != nil {
		sc.pipeLeaders(next, nextNonce, nextAt)
	}
	if sel, ok := sc.walkLeaders(store, samples, &top, nonce, toPlace); ok {
		return sel
	}
	store.Gather(samples, ldv)
	return sc.probeAndRank(samples, ldv, nonce, toPlace)
}

// selector owns the scratch of the selection kernel: the epoch-stamped
// group table, the height histogram, the slot buffers and the empty-leader
// walk's pipelined keys. It is one DECISION LANE — a serial process owns
// exactly one, and every worker of the sharded superstep engine owns its
// own, so concurrent per-round selections never share mutable state. The
// ranking paths read only their arguments (samples, pre-gathered loads,
// the round nonce); only the empty-leader walk reads the store, through
// Store.Load and never writing, which the sharded decide phase allows
// because nothing writes to the store while it runs.
type selector struct {
	gtab  *groupTab
	hist  []int32
	slots []slot
	sel   []slot
	bnd   []slot

	// idxMask covers the low bits of a streamRank key that hold the
	// sample's index: bits.Len(d-1) of them.
	idxMask uint64

	// The prefetch view of the store, set by the lane's owner (the raw
	// load array's base and its element width in bits; nil pfBase: off),
	// and the samples of the round after the one being ranked (see
	// prefetchNext). Not a read of the store: prefetches change no memory
	// and no result.
	pfBase unsafe.Pointer
	pfBits uint
	pfNext []int

	// The empty-leader walk's one-round pipeline (pipeLeaders): the leader
	// keys of the round at position leadAt, computed while the round before
	// it was ranked. leadAt 0 holds none. Every gathering round clears
	// leadAt (prefetchNext), so it sits beside pfNext.
	leadAt uint64
	lead   [streamMaxPlace + 1]uint64
}

// newSelector sizes a selection lane for rounds of d samples.
func newSelector(d int) *selector {
	return &selector{
		gtab: newGroupTab(d),
		// The counting window covers every height pattern whose sampled
		// loads span less than ~2d; wider spreads (extreme imbalance) fall
		// back to a full sort inside the counting kernel.
		hist:  make([]int32, 2*d+16),
		slots: make([]slot, d),
		sel:   make([]slot, 0, d),
		bnd:   make([]slot, 0, d),

		idxMask: 1<<bits.Len(uint(d-1)) - 1,
	}
}

// groupTab is the reusable epoch-stamped grouping scratch of the counting
// path: a slot is live iff its stamp equals the current epoch, so a
// superstep of rounds reuses the table with one epoch increment per round
// instead of a per-round clear pass. tab packs (bin+1) in the high 32 bits
// and the sample multiplicity so far in the low 32.
type groupTab struct {
	tab   []uint64
	stamp []uint32
	epoch uint32
}

func newGroupTab(d int) *groupTab {
	size := groupTableSize(d)
	return &groupTab{
		tab:   make([]uint64, size),
		stamp: make([]uint32, size),
	}
}

// nextEpoch starts a new round. On uint32 wraparound the stamps are
// cleared so a slot stamped 4 billion rounds ago can never alias as live.
//
//kd:hotpath
func (gt *groupTab) nextEpoch() uint32 {
	gt.epoch++
	if gt.epoch == 0 {
		for i := range gt.stamp {
			gt.stamp[i] = 0
		}
		gt.epoch = 1
	}
	return gt.epoch
}

// prefetchNext readies the lane for a round ranked from a full gather. It
// sets the prefetch target of the next probeAndRank call: while its scan
// ranks the current round it requests the load lines of next, 8 samples
// every 8 samples, so those loads are in flight during the selection
// instead of stalling the next round's gather. The target holds for one
// scan; nil next (no pre-drawn next round) or no prefetch view prefetches
// nothing. It also empties the walk's pipeline, which such a round does not
// use.
//
//kd:hotpath
func (sc *selector) prefetchNext(next []int) {
	sc.leadAt = 0
	if sc.pfBase != nil {
		sc.pfNext = next
	}
}

// prefetchAt requests the load lines of the target's samples [i, i+8).
//
//kd:hotpath
func (sc *selector) prefetchAt(i int) {
	if next := sc.pfNext; i < len(next) {
		prefetchIdx(sc.pfBase, next[i:min(i+8, len(next))], sc.pfBits)
	}
}

// probeAndRank is the Process-level entry of the counting kernel, used by
// the serial round paths: it runs the process's own selection lane over
// pr.samples and the loads gathered into pr.ldv.
//
//kd:hotpath
func (pr *Process) probeAndRank(nonce uint64, toPlace int) []slot {
	return pr.selsc.probeAndRank(pr.samples, pr.ldv[:len(pr.samples)], nonce, toPlace)
}

// probeAndRank is the store-free heart of the fast kernel, shared by the
// serial engine and every shard worker: ldv holds the load of each sample
// (filled by the round's Store.Gather). A round that
// streamRank (toPlace <= streamMaxPlace) or flatRank (toPlace above that,
// d <= flatMaxD) can rank exactly returns from there. Any other round takes
// the counting path: one scan over the samples probes the epoch-stamped
// group table and materializes the conceptual slots (the i-th sample of
// bin b has height load(b)+i). The slot SET and the final ranking are
// independent of slot emission order (the total order on (height, tie,
// bin) is strict), so fusing the former group-then-materialize pipeline
// changes no result. A repeat sample's height comes straight from its own
// ldv entry — the table records only the multiplicity, never the load.
//
//kd:hotpath
func (sc *selector) probeAndRank(samples, ldv []int, nonce uint64, toPlace int) []slot {
	if toPlace > 0 && toPlace <= len(samples) {
		if toPlace <= streamMaxPlace {
			if sel, ok := sc.streamRank(samples, ldv, nonce, toPlace); ok {
				return sel
			}
		} else if len(samples) <= flatMaxD {
			if sel, ok := sc.flatRank(samples, ldv, nonce, toPlace); ok {
				return sel
			}
		}
	}

	gt := sc.gtab
	epoch := gt.nextEpoch()
	tab := gt.tab
	stamp := gt.stamp[:len(tab)] // same power-of-two size; ties the lengths for the prover
	mask := len(tab) - 1
	slots := sc.slots[:len(samples)]
	minH := int(^uint(0) >> 1)
	maxH := 0
	for i, b := range samples {
		if i&7 == 0 {
			sc.prefetchAt(i)
		}
		key := uint64(b+1) << 32
		h := int((uint64(uint32(b)) * 0x9e3779b97f4a7c15) >> 32)
		var ht int
		for {
			// Indexing through h&mask lets the compiler drop the bounds
			// checks: mask is len-1 of both power-of-two-sized arrays.
			if stamp[h&mask] != epoch {
				// First occurrence of b this round: claim a table slot.
				stamp[h&mask] = epoch
				tab[h&mask] = key | 1
				ht = ldv[i] + 1
				if ht < minH {
					minH = ht
				}
				break
			}
			if e := tab[h&mask]; e&^0xffffffff == key {
				// Repeat sample: the next conceptual ball of b sits its
				// multiplicity above the bin's load.
				c := int(uint32(e)) + 1
				tab[h&mask] = e + 1
				ht = ldv[i] + c
				break
			}
			h++
		}
		if ht > maxH {
			maxH = ht
		}
		slots[i] = slot{bin: b, height: ht}
	}
	sc.pfNext = nil
	sc.slots = slots
	return sc.rankFromSlots(nonce, toPlace, minH, maxH)
}

// streamMaxPlace is the largest toPlace streamRank takes: it keeps the
// toPlace+1 smallest keys in five registers.
const streamMaxPlace = 4

// streamRank ranks a round of toPlace <= streamMaxPlace balls without the
// group table. Pass 1 finds the round's load spread and issues the next
// round's prefetches. Pass 2 packs each sample into one key as flatRank
// does, its height above the round's lowest load, then the top bits of its
// load+1 tie key, then (in the bits sc.idxMask covers) its sample index, so
// keys never repeat. A branch-free min/max network keeps the toPlace+1
// smallest keys in registers. Every sample is ranked in the flat view, as
// if its bin were sampled once; a repeated bin's copies share one flat key
// above the index bits, and a second copy's flat key is never above its
// true slot. So the flat top-toPlace is the true one unless two of the
// toPlace+1 smallest keys agree above the index bits: both copies of a bin
// among them, a copy at the boundary, or a tie-prefix collision. ok is
// false then, and when the loads spread too wide for the height field: the
// caller falls through to the counting path. Only the toPlace winners get
// their full tie keys.
//
//kd:hotpath
func (sc *selector) streamRank(samples, ldv []int, nonce uint64, toPlace int) (sel []slot, ok bool) {
	ldv = ldv[:len(samples)]
	lo, ok := sc.flatLow(ldv)
	if !ok {
		return nil, false
	}
	idx := sc.idxMask
	t0, t1, t2, t3, t4 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for i, b := range samples {
		l := ldv[i]
		t0, t1, t2, t3, t4 = keepLeast(t0, t1, t2, t3, t4, flatKey(l-lo, tieKey(nonce, b, l+1))&^idx|uint64(i))
	}
	top := [streamMaxPlace + 1]uint64{t0, t1, t2, t3, t4}
	if !streamExact(&top, toPlace, idx) {
		return nil, false
	}
	sel = sc.sel[:toPlace]
	for j := range sel {
		i := int(top[j] & idx)
		b, h := samples[i], ldv[i]+1
		sel[j] = slot{bin: b, height: h, tie: tieKey(nonce, b, h)}
	}
	return sel, true
}

// streamExact reports whether the toPlace+1 smallest keys, ascending in
// top, differ pairwise above the index bits idx. Equal keys there sit next
// to each other, so adjacent pairs suffice.
//
//kd:hotpath
func streamExact(top *[streamMaxPlace + 1]uint64, toPlace int, idx uint64) bool {
	for j := 0; j < toPlace; j++ {
		if (top[j]^top[j+1])&^idx == 0 {
			return false
		}
	}
	return true
}

// keepLeast is the streaming rankers' register network: it inserts key k
// into t0 <= t1 <= ... <= t4 and returns the five smallest of the six,
// ascending, branch-free.
//
//kd:hotpath
func keepLeast(t0, t1, t2, t3, t4, k uint64) (uint64, uint64, uint64, uint64, uint64) {
	t0, k = min(t0, k), max(t0, k)
	t1, k = min(t1, k), max(t1, k)
	t2, k = min(t2, k), max(t2, k)
	t3, k = min(t3, k), max(t3, k)
	return t0, t1, t2, t3, min(t4, k)
}

// walkMinD is the smallest round the empty-leader walk takes. Each ball it
// places costs a Load call of its own; below this the gather it saves is
// too short to pay for them reliably (see walkMaxBalls).
const walkMinD = 32

// walkMaxBalls returns the largest ball count at which the (k,d) rounds of
// p try the empty-leader walk, or -1 when they never do. The walk is exact
// at any load and for any k up to streamMaxPlace; the gate only prices it.
// It opens where the walk was measured to pay, and nowhere else: k = 2
// rounds of d >= walkMinD samples on an exact store (the sketch's
// estimates are rarely zero) while at most n/4 balls are placed. Timed with
// Place of n/4 balls into 10⁶ empty compact bins, the gather-only kernel
// and the walk alternating in one process (2-vCPU Xeon VM), the walk was
// faster in 18 and 19 of 20 pairs at (2,32) and 20 of 20 at (2,64), and
// over balls n/5 to n/4 alone (4·10⁶ bins) in 18 and 20 of 20; at (2,16)
// in 17 and 18 of 20, in one of the two batches with the gain inside the
// gather's own spread, and at (2,8) in 14 of 20. (2,16) was re-timed with
// the AVX-512 leader kernel (leaderKeys) in three batches of 20 pairs per
// leader path. The walk's median was lower in every batch, but at 10⁶
// bins, where a Place takes about 30 ms, it did not win reliably:
//
//   - kernel, 10⁶ bins: faster 15, 16 and 20 of 20 (medians 114–117 vs
//     127–164 ns/ball); 10⁷ bins: 20, 20 and 19 of 20 (121–136 vs 177–187);
//   - Go network, 10⁶ bins: 11, 13 and 18 of 20 (109–148 vs 111–161);
//     10⁷ bins: 20, 20 and 18 of 20 (95–150 vs 119–212).
//
// So rounds below d = 32 gather. Each leader is a uniform bin, empty with
// probability at least 3/4 below n/4 balls: the walk settled 98.7% of the
// (2,64) rounds up to n/4 and 96.3% of those past n/5. Other k were not
// measured to pay ((4,8) measured slower: a 4-ball round needs all four
// walkable leaders empty).
func walkMaxBalls(p Params) int {
	if p.Store == loadvec.StoreSketch || p.K != 2 || p.D < walkMinD {
		return -1
	}
	return p.N / 4
}

// leaderChunk is the number of samples the leader kernel keys at once.
const leaderChunk = 8

// leaderKernelOn selects leaderKeys' path: the AVX-512 kernel where the
// CPU and OS support it (haveLeaderKernel), else the Go network. Both
// return the same keys; tests flip it to run each.
var leaderKernelOn = haveLeaderKernel

// leaderKeys returns the five smallest empty-view keys of a round: every
// sample keyed as if its bin were empty, tieKey(nonce, b, 1) packed as
// streamRank packs a sample at the round's lowest load, so no load is read.
// On amd64 with AVX-512F and AVX-512DQ (leaderKernelOn) the assembly
// kernel keys the whole chunks of eight samples; the Go network, keepLeast
// over each key in turn, inserts the rest: the d mod 8 tail there, every
// sample on other hosts and ports.
//
//kd:hotpath
func leaderKeys(samples []int, nonce, idx uint64) [streamMaxPlace + 1]uint64 {
	top := [streamMaxPlace + 1]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	i := 0
	if leaderKernelOn && len(samples) >= leaderChunk {
		i = len(samples) &^ (leaderChunk - 1)
		leaderKernel(&top, samples[:i], nonce, idx)
	}
	t0, t1, t2, t3, t4 := top[0], top[1], top[2], top[3], top[4]
	for ; i < len(samples); i++ {
		t0, t1, t2, t3, t4 = keepLeast(t0, t1, t2, t3, t4, flatKey(0, tieKey(nonce, samples[i], 1))&^idx|uint64(i))
	}
	return [streamMaxPlace + 1]uint64{t0, t1, t2, t3, t4}
}

// leaders returns the leader keys of the round at position at: the
// pipelined ones when the round before computed them for this position,
// else computed now (at 0 never matches). The pipeline is empty after.
//
//kd:hotpath
func (sc *selector) leaders(samples []int, nonce, at uint64) [streamMaxPlace + 1]uint64 {
	hit := at != 0 && sc.leadAt == at
	sc.leadAt = 0
	if hit {
		return sc.lead
	}
	return leaderKeys(samples, nonce, sc.idxMask)
}

// pipeLeaders computes the leader keys of the round at position at (its
// samples next and its nonce) one round early, and requests the load lines
// of the streamMaxPlace leaders a walk may read: the next round's gather
// reduced to the few lines that can win.
//
//kd:hotpath
func (sc *selector) pipeLeaders(next []int, nonce, at uint64) {
	sc.lead = leaderKeys(next, nonce, sc.idxMask)
	sc.leadAt = at
	if sc.pfBase == nil {
		return
	}
	var bins [streamMaxPlace]int
	walkable := bins[:min(len(next), streamMaxPlace)]
	for j := range walkable {
		walkable[j] = next[sc.lead[j]&sc.idxMask]
	}
	prefetchIdx(sc.pfBase, walkable, sc.pfBits)
}

// walkLeaders is the empty-leader ranker. No slot sits below height 1, and
// the height-1 slots are exactly the first copies of the round's empty
// bins, with tie keys tieKey(nonce, b, 1): the leader keys' ties. So when
// toPlace distinct leaders are empty, the first toPlace of them in key
// order are the round's top toPlace slots, ranked. The walk reads the
// leaders' loads in key order, skips a loaded leader (its slots sit at
// height 2 or more) and takes an empty one, until toPlace are taken. Key
// order is tie order only while keys differ above the index bits, and
// every sample outside the walked leaders ranks after them only if the key
// after the last one taken differs from it there too — streamExact's
// condition. ok is false when a walked leader or the key after it repeats
// another above the index bits (a repeated bin or a tie-prefix collision),
// or when the walkable leaders hold too few empty bins: the caller gathers
// the round and ranks it on the other paths.
//
//kd:hotpath
func (sc *selector) walkLeaders(store loadvec.Store, samples []int, top *[streamMaxPlace + 1]uint64, nonce uint64, toPlace int) (sel []slot, ok bool) {
	idx := sc.idxMask
	sel = sc.sel[:toPlace]
	taken := 0
	for j := 0; j < streamMaxPlace; j++ {
		if (top[j]^top[j+1])&^idx == 0 {
			return nil, false
		}
		b := samples[top[j]&idx]
		if store.Load(b) != 0 {
			continue
		}
		sel[taken] = slot{bin: b, height: 1, tie: tieKey(nonce, b, 1)}
		if taken++; taken == toPlace {
			return sel, true
		}
	}
	return nil, false
}

// flatMaxD is the largest round the flat ranker takes; a multiple of 4
// (rankKeys counts four keys per pass). Its rank count costs d² key
// compares. Measured against the counting path at n = 10⁵ in a heavy
// state (2-vCPU Xeon VM): selection alone ran 2.9× faster at d = 16,
// 2.1× at d = 32 and 1.7× at d = 48; whole (24,48) rounds
// (BenchmarkRoundHeavy) ran 1.1–1.6× faster.
const flatMaxD = 48

// flatHeightBits is the width of a flat key's height field; a round whose
// sampled loads spread over 1<<flatHeightBits or more falls through.
const flatHeightBits = 6

// flatLow is pass 1 of the flat-view rankers: it issues the next round's
// prefetches, once per round whether or not the round is then ranked flat,
// and returns the round's lowest load, with ok false when the loads spread
// too wide for the height field.
//
//kd:hotpath
func (sc *selector) flatLow(ldv []int) (lo int, ok bool) {
	lo, hi := ldv[0], ldv[0]
	for i, l := range ldv {
		if i&7 == 0 {
			sc.prefetchAt(i)
		}
		lo = min(lo, l)
		hi = max(hi, l)
	}
	sc.pfNext = nil
	return lo, hi-lo < 1<<flatHeightBits
}

// flatKey packs one sample of the flat view: h, its load above the round's
// lowest, in the top flatHeightBits bits, then the top bits of its load+1
// tie key.
//
//kd:hotpath
func flatKey(h int, tie uint64) uint64 {
	return uint64(h)<<(64-flatHeightBits) | tie>>flatHeightBits
}

// flatRank ranks a round whose samples are distinct bins. Every slot then
// sits one above its bin's load, so each sample packs into one key, its
// height above the round's lowest load in the top flatHeightBits bits and
// the top bits of its tie key below, and one branch-free count ranks all d
// keys. With the keys pairwise distinct, key order is the (height, tie,
// bin) order and the result equals the counting path's. Only a repeated
// bin (same bin, same load, so the same tie) or a tie-prefix collision
// repeats a key. ok is false then, and also when the loads spread too wide
// for the height field: the caller falls through to the counting path. The
// round's prefetches are issued here either way.
//
//kd:hotpath
func (sc *selector) flatRank(samples, ldv []int, nonce uint64, toPlace int) (sel []slot, ok bool) {
	ldv = ldv[:len(samples)]
	lo, ok := sc.flatLow(ldv)
	if !ok {
		return nil, false
	}
	var keys, ties [flatMaxD]uint64
	for i, b := range samples {
		t := tieKey(nonce, b, ldv[i]+1)
		ties[i] = t
		keys[i] = flatKey(ldv[i]-lo, t)
	}
	var rank [flatMaxD]uint8
	if !rankKeys(&keys, len(samples), &rank) {
		return nil, false
	}
	out := sc.slots[:len(samples)]
	for i, b := range samples {
		out[rank[i]] = slot{bin: b, height: ldv[i] + 1, tie: ties[i]}
	}
	return out[:toPlace], true
}

// rankKeys sets rank[i] to the number of keys[:d] below keys[i] and
// reports whether those keys are pairwise distinct: exactly then the ranks
// are a permutation of 0..d-1, which the mask of seen ranks checks. Each
// count sums the borrows of keys[j]-keys[i], so no compare branches; four
// keys are counted per pass over keys[:d] into independent sums. Entries of
// keys from d on are padding: ranked along, never counted or reported.
//
//kd:hotpath
func rankKeys(keys *[flatMaxD]uint64, d int, rank *[flatMaxD]uint8) bool {
	live := keys[:d]
	for i := 0; i < d; i += 4 {
		k0, k1, k2, k3 := keys[i], keys[i+1], keys[i+2], keys[i+3]
		var r0, r1, r2, r3 uint64
		for _, kj := range live {
			_, b := bits.Sub64(kj, k0, 0)
			r0, _ = bits.Add64(r0, 0, b)
			_, b = bits.Sub64(kj, k1, 0)
			r1, _ = bits.Add64(r1, 0, b)
			_, b = bits.Sub64(kj, k2, 0)
			r2, _ = bits.Add64(r2, 0, b)
			_, b = bits.Sub64(kj, k3, 0)
			r3, _ = bits.Add64(r3, 0, b)
		}
		rank[i], rank[i+1], rank[i+2], rank[i+3] = uint8(r0), uint8(r1), uint8(r2), uint8(r3)
	}
	var seen uint64
	for _, r := range rank[:d] {
		seen |= 1 << (r & 63)
	}
	return seen == 1<<d-1
}

// rankFromSlots is the ranking tail of the counting kernel: sc.slots holds
// the round's materialized slots with heights spanning [minH, maxH]; the
// toPlace minimum slots are returned ranked ascending. When every slot
// sits at one height (minH == maxH) the boundary is known without the
// histogram. That is the light-load case (most sampled bins empty); under
// heavy load the height spread is 1–3 in most rounds (see the file
// comment), and the histogram locates the boundary.
//
//kd:hotpath
func (sc *selector) rankFromSlots(nonce uint64, toPlace, minH, maxH int) []slot {
	slots := sc.slots
	if toPlace > len(slots) {
		toPlace = len(slots)
	}
	if toPlace == 0 {
		return slots[:0]
	}

	boundary, need := minH, toPlace
	if maxH != minH {
		hist := sc.hist
		if maxH-minH >= len(hist) {
			// Sparse heights (sampled loads spread wider than the counting
			// window, only possible under extreme imbalance): fall back to
			// a full sort. Same comparator and keys, so the selected set is
			// identical to what the counting path would pick.
			for i := range slots {
				slots[i].tie = tieKey(nonce, slots[i].bin, slots[i].height)
			}
			sortSlots(slots)
			return slots[:toPlace]
		}

		// Count slots per height and locate the boundary: the height of
		// the toPlace-th smallest slot.
		for i := range slots {
			hist[slots[i].height-minH]++
		}
		below := 0 // slots strictly below the boundary height
		off := 0
		for {
			c := int(hist[off])
			if below+c >= toPlace {
				break
			}
			below += c
			off++
		}
		boundary = minH + off
		need = toPlace - below // slots to take at the boundary height
		for i := 0; i <= maxH-minH; i++ {
			hist[i] = 0
		}
	}

	// Gather: everything below the boundary is selected outright; the
	// boundary cohort is genuinely tied, so only now are tie keys derived.
	// Small cohorts (need <= 4) feed a streaming top-need selection
	// directly, one comparison per candidate against the running worst;
	// larger ones are gathered and quickselected.
	// bkey hoists the height term of the boundary cohort's tie keys: every
	// cohort member shares the boundary height, so its key reduces to one
	// multiply and the mixer. Identical arithmetic to tieKey.
	bkey := nonce ^ uint64(boundary)*0xda942042e4dd58b5
	sel := sc.sel[:0]
	bnd := sc.bnd[:0]
	if need <= 4 {
		worst := -1
		for i := range slots {
			s := slots[i]
			if s.height > boundary {
				continue
			}
			if s.height < boundary {
				s.tie = tieKey(nonce, s.bin, s.height)
				sel = append(sel, s)
				continue
			}
			s.tie = mix64(bkey ^ uint64(s.bin)*0x9e3779b97f4a7c15)
			if len(bnd) < need {
				bnd = append(bnd, s)
				if len(bnd) == need {
					worst = worstSlot(bnd)
				}
				continue
			}
			if slotLess(s, bnd[worst]) {
				bnd[worst] = s
				worst = worstSlot(bnd)
			}
		}
		sel = append(sel, bnd...)
	} else {
		for i := range slots {
			s := slots[i]
			if s.height > boundary {
				continue
			}
			if s.height < boundary {
				s.tie = tieKey(nonce, s.bin, s.height)
				sel = append(sel, s)
			} else {
				s.tie = mix64(bkey ^ uint64(s.bin)*0x9e3779b97f4a7c15)
				bnd = append(bnd, s)
			}
		}
		if need < len(bnd) {
			selectSmallestSlots(bnd, need)
		}
		sel = append(sel, bnd[:need]...)
	}
	sc.bnd = bnd

	// Rank the k selected slots so SerializedKD sees a total order of
	// ranks; k is small, so this costs O(k log k) at worst.
	sortSlots(sel)
	sc.sel = sel
	return sel
}

// worstSlot returns the index of the largest element under the slot total
// order (the streaming top-k's replacement candidate).
//
//kd:hotpath
func worstSlot(s []slot) int {
	worst := 0
	for i := 1; i < len(s); i++ {
		if slotLess(s[worst], s[i]) {
			worst = i
		}
	}
	return worst
}

// selectSmallestSlots partially sorts s so that s[:k] holds its k smallest
// elements under the slot total order: expected-O(len) quickselect, then
// insertion sort on the short residual segment. The caller sorts the final
// selection, so only the SET matters.
//
//kd:hotpath
func selectSmallestSlots(s []slot, k int) {
	for k > 0 && k < len(s) && len(s) > 12 {
		p := partitionSlots(s)
		switch {
		case k <= p:
			s = s[:p]
		case k == p+1:
			return // s[:p+1] is exactly the k smallest
		default:
			s = s[p+1:]
			k -= p + 1
		}
	}
	if k <= 0 {
		return
	}
	// The residual segment is short; insertion sort finishes the job.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && slotLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// sortSlots orders slots by (height, tie, bin) ascending. Hand-rolled
// hybrid quicksort/insertion sort: zero allocations and no interface calls
// on the hot path.
//
//kd:hotpath
func sortSlots(s []slot) {
	for len(s) > 12 {
		p := partitionSlots(s)
		if p < len(s)-p-1 {
			sortSlots(s[:p])
			s = s[p+1:]
		} else {
			sortSlots(s[p+1:])
			s = s[:p]
		}
	}
	// Insertion sort for short (sub)slices.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && slotLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// slotLess is the slot total order: height, then tie key, then bin id. The
// bin fallback makes the order deterministic even under (astronomically
// rare) tie-key collisions, which keeps every ranking path, and the test
// oracle, bitwise-coupled.
//
//kd:hotpath
func slotLess(a, b slot) bool {
	if a.height != b.height {
		return a.height < b.height
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.bin < b.bin
}

// partitionSlots performs Hoare-style partition around a median-of-three
// pivot and returns the pivot's final index.
//
//kd:hotpath
func partitionSlots(s []slot) int {
	mid := len(s) / 2
	hi := len(s) - 1
	// Median of three to s[0].
	if slotLess(s[mid], s[0]) {
		s[mid], s[0] = s[0], s[mid]
	}
	if slotLess(s[hi], s[0]) {
		s[hi], s[0] = s[0], s[hi]
	}
	if slotLess(s[hi], s[mid]) {
		s[hi], s[mid] = s[mid], s[hi]
	}
	pivot := s[mid]
	s[mid], s[hi-1] = s[hi-1], s[mid]
	i, j := 0, hi-1
	for {
		i++
		for slotLess(s[i], pivot) {
			i++
		}
		j--
		for slotLess(pivot, s[j]) {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}
