package core

import (
	"sort"
	"unsafe"
)

// This file is the round engine's selection kernel: given the d samples of a
// round it materializes the conceptual slots (the i-th sample of bin b has
// height load(b)+i) and returns the toPlace slots of minimum height, ranked
// by (height, tie, bin) ascending, with ties between bins at equal height
// broken uniformly at random.
//
// Two implementations exist:
//
//   - the counting kernel, the default: O(d + k log k) expected. The
//     store-specialized fused pass in kernel.go groups the samples with an
//     epoch-stamped open-addressed table (O(d) space, reused clear-free
//     across a whole superstep) and materializes the slots in the same
//     scan, reading each distinct bin's load exactly once through a
//     devirtualized store access; rankFromSlots below then locates the
//     k-th smallest height by counting over the round's dense height
//     window, deriving random tie keys lazily — only for slots at or below
//     the boundary height — via a keyed hash of (bin, height) under a
//     per-round nonce.
//   - the reference kernel (Params.ReferenceSelect): the original
//     sort-everything path, kept as the oracle the fast kernel is tested
//     against.
//
// Both kernels consume the random stream identically (d sample draws plus
// one nonce draw per round) and order slots by the same total order, so for
// a fixed seed they select bitwise-identical slot sets — the property
// TestFastSelectMatchesReference checks exhaustively. A keyed hash instead
// of one rng.Uint64 per slot is what makes this possible: tie keys are a
// pure function of (nonce, bin, height), so computing them lazily does not
// perturb the stream.

// tieKey derives the uniform tie-break key of the slot (bin, height) under
// the round nonce. Distinct slots of one round hash distinct (bin, height)
// pairs, so within a tied cohort (equal height, distinct bins) the keys are
// independent uniform lottery tickets, exactly as in ballDChoice.
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
// by rankSelect itself or by the superstep engine.
//
//kd:hotpath
func (pr *Process) rankSelectWith(nonce uint64, toPlace int) []slot {
	if pr.p.ReferenceSelect {
		pr.makeSlots(nonce)
		sortSlots(pr.slots)
		if toPlace > len(pr.slots) {
			toPlace = len(pr.slots)
		}
		return pr.slots[:toPlace]
	}
	return pr.kern.fastSelect(pr, nonce, toPlace)
}

// selector owns the scratch of the store-free counting selection kernel:
// the epoch-stamped group table, the height histogram, and the slot
// buffers. It is one DECISION LANE — a serial process owns exactly one,
// and every worker of the sharded superstep engine owns its own, so
// concurrent per-round selections never share mutable state. The selector
// reads only its arguments (samples, pre-gathered loads, the round nonce),
// never the store, which is what lets the sharded decide phase run over a
// frozen load snapshot.
type selector struct {
	gtab  *groupTab
	hist  []int32
	slots []slot
	sel   []slot
	bnd   []slot

	// The prefetch target of the round after the one being ranked: the
	// raw load array's base, its element width in bits, and that round's
	// samples (see prefetchNext). Not a read of the store: prefetches
	// change no memory and no result.
	pfBase unsafe.Pointer
	pfBits uint
	pfNext []int
}

// newSelector sizes a selection lane for rounds of d samples.
func newSelector(d int) *selector {
	return &selector{
		gtab: newGroupTab(d),
		// The counting window covers every height pattern whose sampled
		// loads span less than ~2d; wider spreads (extreme imbalance) fall
		// back to the reference sort inside the counting kernel.
		hist:  make([]int32, 2*d+16),
		slots: make([]slot, d),
		sel:   make([]slot, 0, d),
		bnd:   make([]slot, 0, d),
	}
}

// prefetchNext sets the prefetch target of the next probeAndRank call:
// while its scan ranks the current round it requests the load lines of
// next, 8 samples every 8 samples, so those loads are in flight during the
// selection instead of stalling the next round's gather. The target holds
// for one scan; nil next (no pre-drawn next round) prefetches nothing.
//
//kd:hotpath
func (sc *selector) prefetchNext(base unsafe.Pointer, bits uint, next []int) {
	sc.pfBase, sc.pfBits, sc.pfNext = base, bits, next
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
// pr.samples and the loads the kernel gathered into pr.ldv.
//
//kd:hotpath
func (pr *Process) probeAndRank(nonce uint64, toPlace int) []slot {
	return pr.selsc.probeAndRank(pr.samples, pr.ldv[:len(pr.samples)], nonce, toPlace)
}

// probeAndRank is the store-free heart of the counting kernel, shared by
// every kernel instantiation and every shard worker: ldv holds the load of
// each sample (filled by the kernel's specialized gather pass), and one
// scan over the samples probes the epoch-stamped group table and
// materializes the conceptual slots (the i-th sample of bin b has height
// load(b)+i). The slot SET and the final ranking are independent of slot
// emission order (the total order on (height, tie, bin) is strict), so
// fusing the former group-then-materialize pipeline changes no result. A
// repeat sample's height comes straight from its own ldv entry — the table
// records only the multiplicity, never the load.
//
//kd:hotpath
func (sc *selector) probeAndRank(samples, ldv []int, nonce uint64, toPlace int) []slot {
	gt := sc.gtab
	epoch := gt.nextEpoch()
	tab := gt.tab
	stamp := gt.stamp[:len(tab)] // same power-of-two size; ties the lengths for the prover
	mask := len(tab) - 1

	if toPlace > 0 && toPlace <= 4 && toPlace < len(samples) {
		// Small-k fast path: selection is fused into the probe scan as a
		// streaming top-toPlace under the full (height, tie, bin) order —
		// no slot materialization, no histogram, no second pass. A slot
		// strictly above the running worst can never enter the selection,
		// so its tie key is never derived; the surviving set (and, after
		// the final sort, its ranking) is exactly what the counting path
		// computes, for ANY height spread — the lazy-tie window exists
		// only to spare keys, not to define results.
		topk := sc.sel[:0]
		worst := -1
		var wslot slot // register copy of topk[worst]: the compare touches no memory
		for i, b := range samples {
			if i&7 == 0 {
				sc.prefetchAt(i)
			}
			key := uint64(b+1) << 32
			h := int((uint64(uint32(b)) * 0x9e3779b97f4a7c15) >> 32)
			var ht int
			for {
				if stamp[h&mask] != epoch {
					stamp[h&mask] = epoch
					tab[h&mask] = key | 1
					ht = ldv[i] + 1
					break
				}
				if e := tab[h&mask]; e&^0xffffffff == key {
					c := int(uint32(e)) + 1
					tab[h&mask] = e + 1
					ht = ldv[i] + c
					break
				}
				h++
			}
			if worst >= 0 {
				if ht > wslot.height {
					continue // cannot contend; tie key never needed
				}
				s := slot{bin: b, height: ht, tie: tieKey(nonce, b, ht)}
				if slotLess(s, wslot) {
					topk[worst] = s
					worst = worstSlot(topk)
					wslot = topk[worst]
				}
				continue
			}
			topk = append(topk, slot{bin: b, height: ht, tie: tieKey(nonce, b, ht)})
			if len(topk) == toPlace {
				worst = worstSlot(topk)
				wslot = topk[worst]
			}
		}
		sc.pfNext = nil
		sortSlots(topk)
		sc.sel = topk
		return topk
	}

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

// rankFromSlots is the ranking tail of the counting kernel: sc.slots holds
// the round's materialized slots with heights spanning [minH, maxH]; the
// toPlace minimum slots are returned ranked ascending. In the steady-state
// common case every slot sits at one height (minH == maxH) and the
// boundary is known without touching the histogram at all.
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
			// the reference full sort. Same comparator and keys, so the
			// selected set is identical to what the counting path would
			// pick.
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
	// Small cohorts feed a streaming top-need selection directly (one
	// comparison per candidate against the running worst in the common
	// all-tied steady state); large cohorts are gathered and quickselected.
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
// elements under the slot total order. Small k uses a single streaming pass
// that keeps the running top-k in the prefix — the common boundary cohort
// in steady state is "every slot tied at one height" (the process keeps
// loads flat), where one comparison per candidate against the running worst
// beats k min-scan passes — larger k uses expected-O(len) quickselect. Both
// compute the same smallest-k SET, and the caller sorts the final
// selection, so the choice cannot affect results.
//
//kd:hotpath
func selectSmallestSlots(s []slot, k int) {
	if k <= 0 {
		return
	}
	if k < len(s) && k <= 4 {
		// worst is the index of the largest element of the running top-k
		// prefix; most candidates lose one comparison against it and move on.
		worst := worstSlot(s[:k])
		for j := k; j < len(s); j++ {
			if slotLess(s[j], s[worst]) {
				s[worst], s[j] = s[j], s[worst]
				worst = worstSlot(s[:k])
			}
		}
		return
	}
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

// makeSlots materializes the round's slots (heights and tie-break keys)
// from the current pr.samples for the reference kernel. Sorting groups
// duplicate samples so heights can be assigned; the sort works on a scratch
// copy so pr.samples keeps the draw order observers are promised.
func (pr *Process) makeSlots(nonce uint64) {
	d := pr.p.D
	sorted := pr.sortBuf[:d]
	copy(sorted, pr.samples)
	sort.Ints(sorted)
	slots := pr.slots[:0]
	for i := 0; i < d; {
		b := sorted[i]
		j := i
		for j < d && sorted[j] == b {
			j++
		}
		load := pr.store.Load(b)
		for c := 1; c <= j-i; c++ {
			slots = append(slots, slot{bin: b, height: load + c, tie: tieKey(nonce, b, load+c)})
		}
		i = j
	}
	pr.slots = slots
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
// rare) tie-key collisions, which keeps the fast and reference kernels
// bitwise-coupled.
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
