package core

// This file is the devirtualized kernel layer: the store-touching inner
// loops of the round engine (slot materialization with its bin-load reads,
// ball placement, the d-choice argmin scan, the StaleBatch decision scan)
// are specialized per concrete bin store so every load read compiles to a
// direct array access instead of a dynamic interface call.
//
// The specialization mechanism is generics over the RAW LOAD ELEMENT TYPE
// (~int for the dense store, ~uint16 for the compact store, ~int32 for the
// histogram store): the three element widths have distinct GC shapes, so
// the compiler stencils a full instantiation per store in which indexing
// the load slice is straight-line inlined code the optimizer can
// bounds-check-eliminate and schedule. (Generics over the store POINTER
// types would not achieve this: all pointers share one GC shape, so their
// method calls stay behind a shared dictionary and cost as much as
// interface dispatch.) The compact store's
// escape sentinel rides along as a plain value — a cell equal to esc
// defers to the wide side table; dense and hist pass esc = -1, which no
// cell can hold, so their escape branch is statically dead weight only.
//
// Two further raw layouts fall outside the loadElem stencil and get
// hand-specialized kernels: the nibble store packs two bins per byte (the
// gather unpacks with one shift+mask, escape sentinel 15 deferring to the
// wide table), and the sketch store reads a depth-way minimum over raw
// count-min counter rows (one-sided estimates; see loadvec/approx.go).
//
// The round loop pays ONE dynamic dispatch per round (through kernelOps)
// instead of one per bin access. The last kernelOps implementation,
// kernIface, routes every access through the loadvec.Store interface: it
// is the fallback for store implementations newKernel does not recognize,
// and the reference the specialized kernels are pinned bit-identical
// against in store_equivalence_test.go. The store-free ranking
// (probeAndRank in select.go) is shared by every path, so the selection
// logic itself cannot drift.
//
// Memory latency. A direct index does not make a big-n gather fast: at
// n = 10⁸ (a 200 MB compact array, d = 64) a CPU profile of the serial
// round gave 52% to gatherTyped, 39% to the selection scan and 6% to the
// pre-draw. The gather stalls on d DRAM (and, with 4 KB pages, TLB)
// misses, and then the selection runs with no miss in flight. The kernels
// therefore overlap the two phases across rounds: the superstep pre-draw
// already knows the next round's samples (roundEngine.peekNext), so
// fastSelect hands them to the selector as a prefetch target
// (selector.prefetchNext) and the selection scan of round r issues
// non-blocking prefetches (prefetchIdx, assembly) for round r+1's load
// lines, 8 samples every 8 samples. Round r+1's gather then finds its
// lines in cache. The sharded decide phase (shard.go) does the same
// within and across a worker's claims of rounds. Arrays below
// prefetchMinBytes are not prefetched: their gathers hit cache anyway.
// loadvec backs the big arrays with transparent huge pages, which removes
// most of the TLB misses. With both, and with the streaming ranker in
// place of the group-table scan, the same profile (2-vCPU Xeon VM) gives
// prefetchIdx 42%, the ranker's own loop 26%, FillRounds 11%, the tie-key
// mixer 10% and gatherTyped 5%: the misses now wait in prefetchIdx for
// free fill buffers, overlapped with the selection, instead of serializing
// in the gather. Nothing here reads the store early or changes a result: a
// prefetch writes no memory.

import (
	"unsafe"

	"repro/internal/loadvec"
	"repro/internal/sketch"
)

// loadElem enumerates the raw per-bin element types of the concrete
// stores; each has its own GC shape, forcing one full kernel instantiation
// per store.
type loadElem interface {
	~int | ~int32 | ~uint16
}

// kernelOps is the per-round dispatch seam between the policy round
// functions and the store-specialized kernels: one dynamic call per round
// (or per StaleBatch ball), with all per-bin work devirtualized inside.
type kernelOps interface {
	// fastSelect groups pr.samples, materializes the round's slots, and
	// returns the toPlace minimum slots ranked ascending (the counting
	// selection kernel). The result aliases process scratch.
	fastSelect(pr *Process, nonce uint64, toPlace int) []slot
	// placeSlots commits one ball per selected slot and returns the
	// observation buffers (nil, nil when no observer is installed).
	placeSlots(pr *Process, sel []slot) (placed, heights []int)
	// staleDecide returns the least-loaded of samples with ties broken by
	// the ball-keyed hash: one StaleBatch ball judged against the frozen
	// round-start loads, or, at ball = 0, the greedy[d] argmin scan.
	staleDecide(nonce uint64, ball int, samples []int) int
	// bulkAdd is the store-specific batch increment (no heights observed).
	bulkAdd(bins []int)
	// addW is the weighted increment of the online serving path: w load
	// units into one bin, returning the bin's new load. Each specialized
	// kernel calls its concrete store's AddN directly, so the compiler
	// devirtualizes (and can inline) the store fast path.
	addW(bin, w int) int
	// subW is the weighted decrement (ball deletion); same devirtualized
	// dispatch as addW.
	subW(bin, w int) int
	// bulkSub is the store-specific batch decrement — the deletion mirror
	// of bulkAdd.
	bulkSub(bins []int)
	// loadAt reads one bin's load (decision load: an estimate on the
	// sketch store). The per-probe read of the sequential ThresholdChoice
	// scan; devirtualized like every other per-bin access.
	loadAt(bin int) int
	// gather fills ldv[:len(samples)] with the sampled bins' loads — the
	// gather pass of CoarseDChoice's quantized argmin and of every sharded
	// round chunk (shard.go). Read-only on the store and positional on ldv,
	// so workers gathering disjoint chunks of one snapshot run concurrently.
	gather(samples, ldv []int)
	// rawView returns the prefetch view of the store's load array (see
	// prefetchView), or a nil base when the kernels do not prefetch: the
	// array is small, or loads are not one indexed read each (sketch,
	// interface fallback).
	rawView() (base unsafe.Pointer, bits uint)
}

// prefetchMinBytes is the smallest load array the kernels prefetch. A
// smaller array stays in the private L2 or the L3 on common hosts, so its
// gather already hits cache and the prefetch calls would be pure cost
// (an 800 KB dense store ran a median 11% slower with them).
const prefetchMinBytes = 4 << 20

// prefetchView is the prefetch view of a raw load array of n elements,
// each bits wide, at base: base and bits, or a nil base when the array is
// below prefetchMinBytes.
//
//kd:hotpath
func prefetchView(base unsafe.Pointer, n int, bits uint) (unsafe.Pointer, uint) {
	if n < prefetchMinBytes*8/int(bits) {
		return nil, 0
	}
	return base, bits
}

// rawViewOf is prefetchView over an element-typed raw load array.
//
//kd:hotpath
func rawViewOf[E loadElem](raw []E) (unsafe.Pointer, uint) {
	var e E
	return prefetchView(unsafe.Pointer(unsafe.SliceData(raw)), len(raw), uint(unsafe.Sizeof(e))*8)
}

// newKernel returns the kernel specialized to the concrete store type, or
// the interface fallback for custom stores.
func newKernel(store loadvec.Store) kernelOps {
	switch st := store.(type) {
	case *loadvec.DenseStore:
		return kernDense{st}
	case *loadvec.CompactStore:
		return kernCompact{st}
	case *loadvec.HistStore:
		return kernHist{st}
	case *loadvec.NibbleStore:
		return kernNibble{st}
	case *loadvec.SketchStore:
		return kernSketch{st}
	default:
		return kernIface{store}
	}
}

// forceInterfaceKernel reroutes the process through the interface-dispatch
// kernel — the fallback custom stores get — regardless of the concrete
// store type. It is the test seam for the specialized-vs-interface
// bit-identity properties.
func (pr *Process) forceInterfaceKernel() {
	pr.kern = kernIface{pr.store}
}

// bulkAddMin is the selection size at which placeSlots switches from
// individual adds to the store's batch increment (registerized max/ball
// counters amortize only over larger batches).
const bulkAddMin = 16

// kernDense is the kernel over the dense []int store.
type kernDense struct{ s *loadvec.DenseStore }

func (k kernDense) fastSelect(pr *Process, nonce uint64, toPlace int) []slot {
	return fastSelectTyped(pr, k.s.RawLoads(), -1, nil, nonce, toPlace)
}
func (k kernDense) staleDecide(nonce uint64, ball int, samples []int) int {
	return staleDecideTyped(samples, k.s.RawLoads(), -1, nil, nonce, ball)
}
func (k kernDense) placeSlots(pr *Process, sel []slot) ([]int, []int) {
	return placeSlotsOn(pr, k.s, sel)
}
func (k kernDense) bulkAdd(bins []int)  { k.s.BulkAdd(bins) }
func (k kernDense) addW(bin, w int) int { return k.s.AddN(bin, w) }
func (k kernDense) subW(bin, w int) int { return k.s.Sub(bin, w) }
func (k kernDense) bulkSub(bins []int)  { k.s.BulkSub(bins) }
func (k kernDense) loadAt(bin int) int  { return k.s.Load(bin) }
func (k kernDense) gather(samples, ldv []int) {
	gatherTyped(samples, ldv, k.s.RawLoads(), -1, nil)
}
func (k kernDense) rawView() (unsafe.Pointer, uint) { return rawViewOf(k.s.RawLoads()) }

// kernCompact is the kernel over the 2-bytes/bin compact store.
type kernCompact struct{ s *loadvec.CompactStore }

func (k kernCompact) fastSelect(pr *Process, nonce uint64, toPlace int) []slot {
	small, wide := k.s.RawLoads()
	return fastSelectTyped(pr, small, loadvec.CompactEscape, wide, nonce, toPlace)
}
func (k kernCompact) staleDecide(nonce uint64, ball int, samples []int) int {
	small, wide := k.s.RawLoads()
	return staleDecideTyped(samples, small, loadvec.CompactEscape, wide, nonce, ball)
}
func (k kernCompact) placeSlots(pr *Process, sel []slot) ([]int, []int) {
	return placeSlotsOn(pr, k.s, sel)
}
func (k kernCompact) bulkAdd(bins []int)  { k.s.BulkAdd(bins) }
func (k kernCompact) addW(bin, w int) int { return k.s.AddN(bin, w) }
func (k kernCompact) subW(bin, w int) int { return k.s.Sub(bin, w) }
func (k kernCompact) bulkSub(bins []int)  { k.s.BulkSub(bins) }
func (k kernCompact) loadAt(bin int) int  { return k.s.Load(bin) }
func (k kernCompact) gather(samples, ldv []int) {
	small, wide := k.s.RawLoads()
	gatherTyped(samples, ldv, small, loadvec.CompactEscape, wide)
}
func (k kernCompact) rawView() (unsafe.Pointer, uint) {
	small, _ := k.s.RawLoads()
	return rawViewOf(small)
}

// kernHist is the kernel over the histogram-indexed store.
type kernHist struct{ s *loadvec.HistStore }

func (k kernHist) fastSelect(pr *Process, nonce uint64, toPlace int) []slot {
	return fastSelectTyped(pr, k.s.RawLoads(), -1, nil, nonce, toPlace)
}
func (k kernHist) staleDecide(nonce uint64, ball int, samples []int) int {
	return staleDecideTyped(samples, k.s.RawLoads(), -1, nil, nonce, ball)
}
func (k kernHist) placeSlots(pr *Process, sel []slot) ([]int, []int) {
	return placeSlotsOn(pr, k.s, sel)
}
func (k kernHist) bulkAdd(bins []int)  { k.s.BulkAdd(bins) }
func (k kernHist) addW(bin, w int) int { return k.s.AddN(bin, w) }
func (k kernHist) subW(bin, w int) int { return k.s.Sub(bin, w) }
func (k kernHist) bulkSub(bins []int)  { k.s.BulkSub(bins) }
func (k kernHist) loadAt(bin int) int  { return k.s.Load(bin) }
func (k kernHist) gather(samples, ldv []int) {
	gatherTyped(samples, ldv, k.s.RawLoads(), -1, nil)
}
func (k kernHist) rawView() (unsafe.Pointer, uint) { return rawViewOf(k.s.RawLoads()) }

// kernNibble is the kernel over the 4-bits/bin packed store: the gather
// loops unpack the nibble inline (one shift + mask per read) with the same
// escape-sentinel branch shape as the compact kernel. The packed []uint8
// cells are a fourth raw layout the generic loadElem stencil cannot express
// (two bins share a byte), so the nibble loops are specialized by hand.
type kernNibble struct{ s *loadvec.NibbleStore }

func (k kernNibble) fastSelect(pr *Process, nonce uint64, toPlace int) []slot {
	k.gather(pr.samples, pr.ldv)
	if base, bits := k.rawView(); base != nil {
		pr.selsc.prefetchNext(base, bits, pr.peekNext())
	}
	return pr.probeAndRank(nonce, toPlace)
}
func (k kernNibble) staleDecide(nonce uint64, ball int, samples []int) int {
	packed, wide := k.s.RawLoads()
	return staleDecideNibble(samples, packed, wide, nonce, ball)
}
func (k kernNibble) placeSlots(pr *Process, sel []slot) ([]int, []int) {
	return placeSlotsOn(pr, k.s, sel)
}
func (k kernNibble) bulkAdd(bins []int)  { k.s.BulkAdd(bins) }
func (k kernNibble) addW(bin, w int) int { return k.s.AddN(bin, w) }
func (k kernNibble) subW(bin, w int) int { return k.s.Sub(bin, w) }
func (k kernNibble) bulkSub(bins []int)  { k.s.BulkSub(bins) }
func (k kernNibble) loadAt(bin int) int  { return k.s.Load(bin) }
func (k kernNibble) gather(samples, ldv []int) {
	packed, wide := k.s.RawLoads()
	gatherNibble(samples, ldv, packed, wide)
}
func (k kernNibble) rawView() (unsafe.Pointer, uint) {
	packed, _ := k.s.RawLoads()
	return prefetchView(unsafe.Pointer(unsafe.SliceData(packed)), 2*len(packed), 4)
}

// kernSketch is the kernel over the count-min approximate store: every
// load read is a depth-way minimum over the raw counter rows, computed
// inline from the sketch's raw view — no interface dispatch and no call
// into the store on the per-bin path. Loads here are one-sided estimates;
// the equivalence tests pin this kernel bit-identical to the interface
// kernel over the SAME store (exactness across stores is not a sketch
// property).
type kernSketch struct{ s *loadvec.SketchStore }

func (k kernSketch) fastSelect(pr *Process, nonce uint64, toPlace int) []slot {
	k.gather(pr.samples, pr.ldv)
	return pr.probeAndRank(nonce, toPlace)
}
func (k kernSketch) staleDecide(nonce uint64, ball int, samples []int) int {
	rows, seeds, mask := k.s.RawSketch().Raw()
	best := samples[0]
	bestLoad := sketchEstimate(rows, seeds, mask, best)
	bestTie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(best)*0x9e3779b97f4a7c15)
	for _, cand := range samples[1:] {
		if cand == best {
			continue
		}
		load := sketchEstimate(rows, seeds, mask, cand)
		switch {
		case load < bestLoad:
			best, bestLoad = cand, load
			bestTie = mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15)
		case load == bestLoad:
			if tie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15); tie < bestTie {
				best = cand
				bestTie = tie
			}
		}
	}
	return best
}
func (k kernSketch) placeSlots(pr *Process, sel []slot) ([]int, []int) {
	return placeSlotsOn(pr, k.s, sel)
}
func (k kernSketch) bulkAdd(bins []int)  { k.s.BulkAdd(bins) }
func (k kernSketch) addW(bin, w int) int { return k.s.AddN(bin, w) }
func (k kernSketch) subW(bin, w int) int { return k.s.Sub(bin, w) }
func (k kernSketch) bulkSub(bins []int)  { k.s.BulkSub(bins) }
func (k kernSketch) loadAt(bin int) int  { return k.s.Load(bin) }
func (k kernSketch) gather(samples, ldv []int) {
	rows, seeds, mask := k.s.RawSketch().Raw()
	gatherSketch(samples, ldv, rows, seeds, mask)
}
func (k kernSketch) rawView() (unsafe.Pointer, uint) { return nil, 0 }

// kernIface is the interface-dispatch fallback kernel: every bin access
// goes through loadvec.Store exactly as the pre-specialization engine did.
type kernIface struct{ s loadvec.Store }

func (k kernIface) fastSelect(pr *Process, nonce uint64, toPlace int) []slot {
	// Load-gather pass through the Store interface (the devirtualized
	// kernels index the raw array here), then the shared probe pass.
	k.gather(pr.samples, pr.ldv)
	return pr.probeAndRank(nonce, toPlace)
}
func (k kernIface) staleDecide(nonce uint64, ball int, samples []int) int {
	best := samples[0]
	bestLoad := k.s.Load(best)
	bestTie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(best)*0x9e3779b97f4a7c15)
	for _, cand := range samples[1:] {
		if cand == best {
			continue
		}
		load := k.s.Load(cand)
		switch {
		case load < bestLoad:
			best, bestLoad = cand, load
			bestTie = mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15)
		case load == bestLoad:
			if tie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15); tie < bestTie {
				best = cand
				bestTie = tie
			}
		}
	}
	return best
}
func (k kernIface) placeSlots(pr *Process, sel []slot) ([]int, []int) {
	return placeSlotsOn(pr, k.s, sel)
}
func (k kernIface) bulkAdd(bins []int)  { k.s.BulkAdd(bins) }
func (k kernIface) addW(bin, w int) int { return k.s.AddN(bin, w) }
func (k kernIface) subW(bin, w int) int { return k.s.Sub(bin, w) }
func (k kernIface) bulkSub(bins []int)  { k.s.BulkSub(bins) }
func (k kernIface) loadAt(bin int) int  { return k.s.Load(bin) }
func (k kernIface) gather(samples, ldv []int) {
	ldv = ldv[:len(samples)]
	for i, b := range samples {
		ldv[i] = k.s.Load(b)
	}
}
func (k kernIface) rawView() (unsafe.Pointer, uint) { return nil, 0 }

// fastSelectTyped is the specialized entry of the counting kernel: the
// load-gather pass reads every sampled bin's load through a direct inlined
// index into the raw array, then the shared store-free probe/rank pass
// runs with the next pre-drawn round as its prefetch target (arrays of at
// least prefetchMinBytes). At big n the gather alone cannot hide its
// misses — each read waits on DRAM — so the misses are moved into the
// previous round's selection scan (see the file comment); round r's
// gather mostly hits lines round r-1 requested.
//
//kd:hotpath
func fastSelectTyped[E loadElem](pr *Process, raw []E, esc int, wide map[int]int, nonce uint64, toPlace int) []slot {
	gatherTyped(pr.samples, pr.ldv, raw, esc, wide)
	if base, bits := rawViewOf(raw); base != nil {
		pr.selsc.prefetchNext(base, bits, pr.peekNext())
	}
	return pr.probeAndRank(nonce, toPlace)
}

// gatherTyped is the shared load-gather loop of the element-typed kernels:
// it fills ldv[:len(samples)] with the sampled bins' loads via direct
// inlined indexing.
//
//kd:hotpath
func gatherTyped[E loadElem](samples, ldv []int, raw []E, esc int, wide map[int]int) {
	ldv = ldv[:len(samples)]
	for i, b := range samples {
		v := int(raw[b])
		if v == esc {
			v = wide[b] // compact escape; unreachable otherwise
		}
		ldv[i] = v
	}
}

// gatherNibble is the load-gather loop over the packed nibble cells: one
// shift+mask unpack per read, escape cells (nibble 15) deferring to the
// wide side table.
//
//kd:hotpath
func gatherNibble(samples, ldv []int, packed []uint8, wide map[int]int) {
	ldv = ldv[:len(samples)]
	for i, b := range samples {
		v := int(packed[b>>1]>>((b&1)<<2)) & 0xF
		if v == loadvec.NibbleEscape {
			v = wide[b]
		}
		ldv[i] = v
	}
}

// gatherSketch is the load-gather loop over the raw count-min rows: each
// read is a depth-way minimum over the bin's counters.
//
//kd:hotpath
func gatherSketch(samples, ldv []int, rows []uint8, seeds []uint64, mask uint64) {
	ldv = ldv[:len(samples)]
	for i, b := range samples {
		ldv[i] = sketchEstimate(rows, seeds, mask, b)
	}
}

// sketchEstimate computes one bin's estimate from the sketch's raw view —
// the exact hash recipe sketch.CountMin.Cell documents, so the specialized
// and interface kernels read identical values from the same store.
//
//kd:hotpath
func sketchEstimate(rows []uint8, seeds []uint64, mask uint64, bin int) int {
	key := uint64(bin) * 0x9e3779b97f4a7c15
	est := int(rows[sketch.Mix64(seeds[0]^key)&mask])
	base := int(mask) + 1 // row width
	for r := 1; r < len(seeds); r++ {
		if v := int(rows[base+int(sketch.Mix64(seeds[r]^key)&mask)]); v < est {
			est = v
		}
		base += int(mask) + 1
	}
	return est
}

// argminLdv is the store-free argmin scan over an already-gathered load
// snapshot: the least-loaded sampled bin under quantum-q bucketing, ties
// broken by the keyed hash. It is the one scan body behind the sharded
// decide phase and the serial CoarseDChoice round: ball = 0, q = 1
// reproduces the greedy[d] scan (staleDecide at ball 0) exactly; ball = 0,
// q = Quantum is coarseBest; ball = b, q = 1 is staleDecide against frozen
// loads. The duplicate-bin skip (cand == best) matches the store-reading
// scans, so the decisions are bit-identical to theirs whenever ldv holds
// the same loads they would read.
//
//kd:hotpath
func argminLdv(samples, ldv []int, nonce uint64, ball, q int) int {
	best := samples[0]
	bestLoad := ldv[0] / q
	bestTie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(best)*0x9e3779b97f4a7c15)
	for j := 1; j < len(samples); j++ {
		cand := samples[j]
		if cand == best {
			continue
		}
		load := ldv[j] / q
		switch {
		case load < bestLoad:
			best, bestLoad = cand, load
			bestTie = mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15)
		case load == bestLoad:
			if tie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15); tie < bestTie {
				best = cand
				bestTie = tie
			}
		}
	}
	return best
}

// staleDecideNibble is staleDecideTyped over the packed nibble cells; like
// its typed sibling it must stay a pure function of (raw state, nonce,
// ball, samples) — the sharded StaleBatch round calls it concurrently.
//
//kd:hotpath
func staleDecideNibble(samples []int, packed []uint8, wide map[int]int, nonce uint64, ball int) int {
	best := samples[0]
	bestLoad := int(packed[best>>1]>>((best&1)<<2)) & 0xF
	if bestLoad == loadvec.NibbleEscape {
		bestLoad = wide[best]
	}
	bestTie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(best)*0x9e3779b97f4a7c15)
	for _, cand := range samples[1:] {
		if cand == best {
			continue
		}
		load := int(packed[cand>>1]>>((cand&1)<<2)) & 0xF
		if load == loadvec.NibbleEscape {
			load = wide[cand]
		}
		switch {
		case load < bestLoad:
			best, bestLoad = cand, load
			bestTie = mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15)
		case load == bestLoad:
			if tie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15); tie < bestTie {
				best = cand
				bestTie = tie
			}
		}
	}
	return best
}

// The greedy[d] argmin scan of ballDChoice is staleDecideTyped with
// ball = 0: the per-ball tie term uint64(ball)<<32 vanishes, leaving
// exactly the per-(round, bin) keyed hash ballDChoice documents, and the
// duplicate-bin skip is equivalent to the equal-load tie guard. One scan
// body therefore serves both policies.

// staleDecideTyped is the specialized StaleBatch per-ball decision scan; it
// must stay a pure function of (raw state, nonce, ball, samples) — the
// sharded round calls it concurrently.
//
//kd:hotpath
func staleDecideTyped[E loadElem](samples []int, raw []E, esc int, wide map[int]int, nonce uint64, ball int) int {
	best := samples[0]
	bestLoad := int(raw[best])
	if bestLoad == esc {
		bestLoad = wide[best]
	}
	bestTie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(best)*0x9e3779b97f4a7c15)
	for _, cand := range samples[1:] {
		if cand == best {
			continue
		}
		load := int(raw[cand])
		if load == esc {
			load = wide[cand]
		}
		switch {
		case load < bestLoad:
			best, bestLoad = cand, load
			bestTie = mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15)
		case load == bestLoad:
			if tie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(cand)*0x9e3779b97f4a7c15); tie < bestTie {
				best = cand
				bestTie = tie
			}
		}
	}
	return best
}

// adderStore is the placement constraint: Add/BulkAdd mutate aggregate
// bookkeeping (max load, ball and histogram counters), so placement calls
// the store's own methods — k calls per round, off the per-bin read path.
type adderStore interface {
	Add(bin int) int
	BulkAdd(bins []int)
}

// placeSlotsOn commits the selected slots: the unobserved path uses direct
// (or, for large selections, batch) increments with no height bookkeeping;
// the observed path records each ball's bin and height.
//
//kd:hotpath
func placeSlotsOn[S adderStore](pr *Process, st S, sel []slot) (placed, heights []int) {
	placed, heights = pr.beginObs(len(sel))
	if placed == nil {
		if len(sel) >= bulkAddMin {
			bins := pr.binsBuf[:0]
			for i := range sel {
				bins = append(bins, sel[i].bin)
			}
			pr.binsBuf = bins
			st.BulkAdd(bins)
		} else {
			for i := range sel {
				st.Add(sel[i].bin)
			}
		}
		pr.balls += len(sel)
		return nil, nil
	}
	for s := range sel {
		b := sel[s].bin
		h := st.Add(b)
		placed[s] = b
		heights[s] = h
	}
	pr.balls += len(sel)
	return placed, heights
}

// groupTab is the reusable epoch-stamped grouping scratch of the fused
// kernels: a slot is live iff its stamp equals the current epoch, so a
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
