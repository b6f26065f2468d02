package core

// This file is the round engine's seam with the bin store. A round reads
// the store in one of two ways. Mostly it gathers the loads of its
// samples, with one Store.Gather call (one dynamic dispatch per round;
// each store runs a plain loop over its own cells, see loadvec).
// Everything after the gather is store-free: the selection kernel
// (probeAndRank in select.go), shared by the serial and the sharded engine,
// for the (k,d) rounds, and argminLdv below for the d-choice, quantized
// d-choice and StaleBatch decisions. A light-load (k,d) round first tries
// the empty-leader walk (select.go), which reads only the few loads that
// can win, one Store.Load each, and gathers only when they cannot settle
// the round. Placement goes back through the store's own Add/BulkAdd,
// whose aggregate bookkeeping (max load, ball and histogram counters)
// only the store can keep.
//
// Memory latency. A cheap read does not make a big-n gather fast: at n = 10⁸
// (a 200 MB compact array, d = 64) a CPU profile of the serial round gave
// 52% to the gather, 39% to the selection scan and 6% to the pre-draw. The
// gather stalls on d DRAM (and, with 4 KB pages, TLB) misses, and then the
// selection runs with no miss in flight. The engine therefore overlaps the
// two phases across rounds: the superstep pre-draw already knows the next
// round's samples (roundEngine.peekNext), so rankSelectWith hands them to
// the selector as a prefetch target (selector.prefetchNext) and the
// selection scan of round r issues non-blocking prefetches (prefetchIdx,
// assembly) for round r+1's load lines, 8 samples every 8 samples. Round
// r+1's gather then finds its lines in cache. The per-ball argmin
// (gatherArgmin) prefetches the next pre-drawn round's lines (DChoice,
// CoarseDChoice) before its own gather, and the sharded decide phase
// (shard.go) prefetches within and across a worker's claims of rounds.
// The prefetch view (the store's cell array and cell width,
// loadvec.CellView) is resolved once in New: arrays below prefetchMinBytes,
// and the sketch, which has no cell per bin, get none. loadvec backs the big
// arrays with transparent huge pages, which removes most of the TLB misses.
// With both, and with the streaming ranker in place of the group-table
// scan, the same profile gave prefetchIdx 44%, the ranker's own loop 21%,
// FillRounds 12%, the tie-key mixer 5% and the gather 4%: the misses
// waited in prefetchIdx for free fill buffers, 64 lines a round. The
// empty-leader walk removes most of those lines. At light load a round's
// winners are among its five leaders, whose keys need no load, so the
// lane computes the next round's leaders one round ahead (its nonce from
// roundEngine.peekNonce) and prefetches only the four a walk can read.
// The leader keys then took 57% of a round (the register network 31%,
// the tie-key mixer 18%), so on AVX-512 hosts an assembly kernel keys
// eight samples at a time (leaderKeys). Profiled with Place of 14M balls
// into 10⁸ empty compact bins (2-vCPU Xeon VM with AVX-512, Go 1.24), the
// round took 189 ns/ball against 377 on the Go network: FillRounds 37%,
// the leader kernel 35%, prefetchIdx 8% and the walk's own loads under
// 5%; the gather is gone. Nothing here reads the store early or changes a
// result: a prefetch writes no memory.

import (
	"unsafe"

	"repro/internal/loadvec"
)

// prefetchMinBytes is the smallest load array the engine prefetches. A
// smaller array stays in the private L2 or the L3 on common hosts, so its
// gather already hits cache and the prefetch calls would be pure cost
// (an 800 KB dense store ran a median 11% slower with them).
const prefetchMinBytes = 4 << 20

// prefetchView returns the prefetch view of store: the base and cell width
// in bits of its load array, or a nil base when the store has no cell array
// or the array is below prefetchMinBytes. The array is allocated once and
// cleared in place, so New resolves the view once for the process's life.
func prefetchView(store loadvec.Store) (unsafe.Pointer, uint) {
	base, bits := loadvec.CellView(store)
	if base == nil || uint(store.Len())*bits < prefetchMinBytes*8 {
		return nil, 0
	}
	return base, bits
}

// argminLdv is the store-free argmin scan over a gathered load snapshot:
// the least-loaded sampled bin, ties broken by the keyed hash. It is the
// one argmin behind every per-ball decision: ball = 0 is the greedy[d]
// scan of DChoice (and of OnePlusBeta's D-probe coin) and, over loads
// quantized in place first, of CoarseDChoice; ball = b is the StaleBatch
// decision of ball b against the round-start loads. At ball = 0 the
// per-ball tie term uint64(ball)<<32 vanishes, leaving the per-(round,
// bin) keyed hash, so a bin sampled several times holds one lottery
// ticket; the duplicate-bin skip (cand == best) keeps that exact.
//
//kd:hotpath
func argminLdv(samples, ldv []int, nonce uint64, ball int) int {
	best := samples[0]
	bestLoad := ldv[0]
	bestTie := mix64(nonce ^ uint64(ball)<<32 ^ uint64(best)*0x9e3779b97f4a7c15)
	for j := 1; j < len(samples); j++ {
		cand := samples[j]
		if cand == best {
			continue
		}
		load := ldv[j]
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

// quantize replaces each gathered load by its quantum-q bucket
// floor(load/q), CoarseDChoice's view of the loads (q > 1; argminLdv then
// compares buckets).
//
//kd:hotpath
func quantize(ldv []int, q int) {
	for i := range ldv {
		ldv[i] /= q
	}
}

// gatherArgmin gathers the loads of pr.samples into pr.ldv and returns
// their argmin (see argminLdv), over quantum-q buckets when q > 1. Before
// the gather it prefetches the next pre-drawn round's load lines, as the
// (k,d) selector does (selector.prefetchNext), so that round's gather
// finds them in cache.
func (pr *Process) gatherArgmin(nonce uint64, q int) int {
	samples := pr.samples
	ldv := pr.ldv[:len(samples)]
	if pr.pfBase != nil {
		prefetchIdx(pr.pfBase, pr.peekNext(), pr.pfBits)
	}
	pr.store.Gather(samples, ldv)
	if q > 1 {
		quantize(ldv, q)
	}
	return argminLdv(samples, ldv, nonce, 0)
}

// bulkAddMin is the selection size at which placeSlots switches from
// individual adds to the store's batch increment (registerized max/ball
// counters amortize only over larger batches).
const bulkAddMin = 16

// placeSlots commits the selected slots: the unobserved path uses direct
// (or, for large selections, batch) increments with no height bookkeeping;
// the observed path records each ball's bin and height.
//
//kd:hotpath
func (pr *Process) placeSlots(sel []slot) (placed, heights []int) {
	placed, heights = pr.beginObs(len(sel))
	if placed == nil {
		if len(sel) >= bulkAddMin {
			bins := pr.binsBuf[:0]
			for i := range sel {
				bins = append(bins, sel[i].bin)
			}
			pr.binsBuf = bins
			pr.store.BulkAdd(bins)
		} else {
			for i := range sel {
				pr.store.Add(sel[i].bin)
			}
		}
		pr.balls += len(sel)
		return nil, nil
	}
	for s := range sel {
		b := sel[s].bin
		h := pr.store.Add(b)
		placed[s] = b
		heights[s] = h
	}
	pr.balls += len(sel)
	return placed, heights
}
