package core

// This file is the sharded superstep engine: the parallel decision phase
// behind Params.Shards >= 2. It generalizes what PR 6's sharded StaleBatch
// round did for one policy to every fixed-prologue policy, on the
// theoretical license of the 1-2-3-Toolkit's batched-round model (Bertrand
// & Lenzen, arXiv:1407.8433): balls-into-bins tolerates bounded staleness
// within a batch, so a whole block of rounds may be DECIDED against the
// loads as of the block start and then APPLIED serially in round order.
//
// Each superstep runs three phases:
//
//  1. draw: the block's randomness is pre-drawn through the exact serial
//     sequence — xrand.FillRounds for the fixed-width prologues, FillIntn
//     for SingleChoice, nonce-then-FillIntn for StaleBatch — so the word
//     stream is identical to the serial process for any shard count and
//     any block size. Randomness NEVER depends on P. The round-only
//     policies (KDChoice, fixed-σ SerializedKD) draw block s+1 on worker 0
//     during block s's decide phase, into the round engine's second block;
//     only their first block is drawn serially. The blocks are drawn in
//     the same stream order either way.
//  2. gather + decide (parallel, ONE pool dispatch): workers take the
//     window's rounds from a shared atomic cursor, roundClaim rounds per
//     claim, so a worker that drew the next block simply claims fewer.
//     Each worker walks its claims round by round: it gathers the round's
//     loads into its own cells of the positional snapshot with one
//     Store.Gather call, then runs the policy's store-free decision kernel
//     (selector / argminLdv) over those cells while prefetching the next
//     round's load lines — across claims too — so the next gather finds
//     them in cache. Nothing writes to the store
//     during the phase, so every snapshot cell holds the block-start load
//     of its sample whichever worker reads it: the snapshot, and every
//     decision made from it, is a pure function of (samples, loads),
//     independent of P and of scheduling. A StaleBatch round's balls are
//     split into contiguous chunks, one per worker.
//  3. apply (serial): placements commit one round per step() call, in
//     round order, through the same store paths as the serial process.
//
// Consequences, pinned by the shard tests: results are bit-identical
// across ANY shard count >= 2; StaleBatch and SingleChoice are
// bit-identical to serial always; the load-coupled round policies
// (KDChoice, fixed-σ SerializedKD, DChoice, CoarseDChoice) are
// bit-identical to serial at Block = 1 and otherwise diverge only by
// within-block staleness (their gap statistics stay within the coupling
// bounds); OnePlusBeta recasts its data-dependent draw pattern into a
// fixed two-probe prologue and matches the serial law in distribution only
// (so Validate admits it at D <= 2 only).

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// shardEligible reports whether the policy can run under the sharded
// superstep engine: its per-round randomness must be pre-drawable (a fixed
// prologue) and its placement rule expressible as "decide from a frozen
// load snapshot, apply serially". Data-dependent draw patterns (AdaptiveKD
// reservoir ties, random-σ shuffles, ThresholdChoice's variable probe
// count, SAx0 rank draws, AlwaysGoLeft's group geometry) are out.
func shardEligible(policy Policy, p Params) bool {
	switch policy {
	case KDChoice, DChoice, CoarseDChoice, SingleChoice, OnePlusBeta, StaleBatch:
		return true
	case SerializedKD:
		return !p.RandomSigma
	}
	return false
}

// shardDrawWidth is the per-round draw width of the sharded prologue for
// the policies whose width is not Params.D: SingleChoice draws one sample,
// OnePlusBeta two samples plus a nonce.
func shardDrawWidth(policy Policy) int {
	if policy == SingleChoice {
		return 1
	}
	return 2 // OnePlusBeta
}

// effectiveShards resolves Params.Shards to a worker count. 0 (auto) means
// GOMAXPROCS for StaleBatch — whose sharded rounds are bit-identical to
// serial at any count, so auto can never change results — and serial for
// every other policy: engaging the engine on a load-coupled policy changes
// the allocation law (within-block staleness), and an implicit
// host-dependent law change would break cross-machine reproducibility.
// Sharding those policies is an explicit opt-in.
func effectiveShards(policy Policy, p Params) int {
	if faultsActive(p) {
		// Fault decisions are serial by design (the injector's streams
		// are consumed in round order), so an active plan forces the
		// serial engine — which is exactly what makes a faulty run
		// bit-identical for ANY Shards setting.
		return 1
	}
	s := p.Shards
	if s == 0 {
		if policy == StaleBatch {
			return runtime.GOMAXPROCS(0)
		}
		return 1
	}
	if !shardEligible(policy, p) {
		return 1
	}
	return s
}

// shardPool is the engine's persistent worker pool: workers-1 goroutines
// plus the caller (worker 0). The phase function is bound ONCE at creation
// — dispatch only rings per-worker doorbells — so the steady state
// allocates nothing and creates no goroutines. Synchronization is one
// channel send per worker per phase (the happens-before edge publishing
// the phase inputs) and one WaitGroup wait (the edge collecting the phase
// outputs); on a single-CPU host the scheduler simply interleaves the
// workers at those points, so the pool is correct — not just fast — at any
// GOMAXPROCS. A closed pool runs every worker's share on the caller:
// decisions are positional, so results do not change.
type shardPool struct {
	workers int
	run     func(w int)
	start   []chan struct{} // doorbell per spawned worker (workers-1)
	wg      sync.WaitGroup
	done    chan struct{}
	closed  bool
}

func newShardPool(workers int, run func(w int)) *shardPool {
	p := &shardPool{
		workers: workers,
		run:     run,
		start:   make([]chan struct{}, workers-1),
		done:    make(chan struct{}),
	}
	for i := range p.start {
		p.start[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *shardPool) worker(i int) {
	for {
		select {
		case <-p.done:
			p.wg.Done()
			return
		case <-p.start[i]:
		}
		p.run(i + 1)
		p.wg.Done()
	}
}

// dispatch runs one phase on every worker and returns when all finished.
func (p *shardPool) dispatch() {
	if p.closed {
		for w := 0; w < p.workers; w++ {
			p.run(w)
		}
		return
	}
	p.wg.Add(p.workers - 1)
	for _, c := range p.start {
		c <- struct{}{}
	}
	p.run(0)
	p.wg.Wait()
}

// Close stops the spawned workers and returns once they have exited.
// Idempotent; must not be called concurrently with dispatch.
func (p *shardPool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.wg.Add(len(p.start))
	close(p.done)
	p.wg.Wait()
}

// shardEngine holds the sharded superstep state of one Process. The
// decided block is a buffer between the parallel decide phase and the
// serial one-round-at-a-time apply path (Round/Place), so the public
// round-loop API is unchanged.
type shardEngine struct {
	policy  Policy
	store   loadvec.Store // the process's store: read-only during a phase
	n       int
	k       int     // balls per full round (1 for the per-ball policies)
	d       int     // draw width per round (p.D, or 1 / 2, see shardDrawWidth)
	quantum int     // CoarseDChoice bucket width (1 = plain DChoice)
	beta    float64 // OnePlusBeta mixing probability
	block   int     // rounds per superstep B
	workers int

	// The prefetch view of the store (prefetchView; nil pfBase: off).
	pfBase unsafe.Pointer
	pfBits uint

	pool  *shardPool
	eng   *roundEngine // FillRounds block source (nil: single / stale mode)
	ahead bool         // worker 0 draws the next block during the decide phase
	sels  []*selector  // per-worker decision lane (kd / serialized only)

	blk    *kdBlock // current block (aliases eng's block)
	single []int    // SingleChoice mode: the block's samples (= destinations)
	ldv    []int    // frozen load snapshot, positional per sample
	dests  []int    // decided bins: block×k in rank order (kd), else block
	probes []uint8  // OnePlusBeta: probes charged per round (1 or 2)

	appIdx int // next round to apply
	decEnd int // end of the decided window (appIdx == decEnd: refill)

	// The next unclaimed round of the window the decide phase covers.
	cursor atomic.Int64

	// StaleBatch per-round phase inputs.
	staleBuf     []int
	staleDests   []int
	staleNonce   uint64
	staleToPlace int
}

// newShardEngine builds the engine and its worker pool over the process's
// store. The caller has already validated shardEligible and workers >= 2.
func newShardEngine(policy Policy, p Params, rng *xrand.Rand, workers int, store loadvec.Store) *shardEngine {
	se := &shardEngine{
		policy:  policy,
		store:   store,
		n:       p.N,
		k:       1,
		d:       p.D,
		beta:    p.Beta,
		workers: workers,
	}
	switch policy {
	case StaleBatch:
		// One round per superstep; randomness is drawn by staleRound via
		// pr.rng (nonce then samples — the serial order), the snapshot
		// covers the round's k·D samples.
		se.ldv = make([]int, p.K*p.D)
	case SingleChoice:
		se.d = 1
		se.block = shardBlockRounds(1, p.Block)
		se.single = make([]int, se.block)
		se.dests = se.single // the sample IS the destination
	default:
		if policy == OnePlusBeta {
			se.d = shardDrawWidth(policy)
		}
		se.block = shardBlockRounds(se.d, p.Block)
		se.eng = newRoundEngine(rng, p.N, se.d, se.block)
		se.ldv = make([]int, se.block*se.d)
		switch policy {
		case KDChoice, SerializedKD:
			// Only the round-only policies draw ahead. A sharded per-ball
			// policy may serve Insert from the main stream between Place
			// calls, and drawing its next block early would move those
			// draws behind the block's.
			se.ahead = true
			se.k = p.K
			se.dests = make([]int, se.block*se.k)
			se.sels = make([]*selector, workers)
			for w := range se.sels {
				se.sels[w] = newSelector(p.D)
			}
		case OnePlusBeta:
			se.dests = make([]int, se.block)
			se.probes = make([]uint8, se.block)
		default: // DChoice, CoarseDChoice
			se.dests = make([]int, se.block)
		}
		if policy == CoarseDChoice {
			se.quantum = p.Quantum
			if se.quantum == 0 {
				se.quantum = defaultQuantum
			}
		} else {
			se.quantum = 1
		}
	}
	se.pfBase, se.pfBits = prefetchView(store)
	se.appIdx = se.block
	se.decEnd = se.block
	// The pool's phase body is bound once; the per-dispatch inputs travel
	// through engine fields, published by the doorbell send.
	run := se.decideClaims
	if policy == StaleBatch {
		run = se.staleDecideChunk
	}
	se.pool = newShardPool(workers, run)
	return se
}

// Close stops the worker pool. Idempotent.
func (se *shardEngine) Close() {
	se.pool.Close()
}

// invalidate drops the undecided-yet-unapplied tail of the current block:
// the decisions were made against pre-Reset loads. The DRAWN randomness is
// kept — the stream is never rewound (the Reset contract) — so the next
// step re-decides the remaining window against the fresh bins.
func (se *shardEngine) invalidate() {
	se.decEnd = se.appIdx
}

// step applies one round (the sharded replacement for the policy's serial
// round function). When the decided buffer is dry it first refills: draws
// a fresh block if the old one is exhausted, then runs the parallel
// gather+decide phase over the remaining window.
func (se *shardEngine) step(pr *Process, toPlace int) {
	if se.appIdx >= se.decEnd {
		se.refill(pr)
	}
	r := se.appIdx
	se.appIdx++
	switch se.policy {
	case KDChoice:
		se.applyKD(pr, r, toPlace)
	case SerializedKD:
		se.applySerialized(pr, r, toPlace)
	case SingleChoice:
		se.applySingle(pr, r)
	case OnePlusBeta:
		se.applyOnePlusBeta(pr, r)
	default: // DChoice, CoarseDChoice
		se.applyArgmin(pr, r)
	}
}

// refill decides the window [appIdx, block): fresh draw first if the whole
// block has been applied, then the parallel phase. SingleChoice skips the
// phase entirely — its destination is its sample, loads never enter.
func (se *shardEngine) refill(pr *Process) {
	if se.appIdx == se.block {
		if se.eng != nil {
			se.blk = se.eng.nextBlock()
		} else {
			pr.rng.FillIntn(se.single, se.n)
		}
		se.appIdx = 0
	}
	if se.policy == SingleChoice {
		se.decEnd = se.block
		return
	}
	// The window starts at appIdx: round 0 of a fresh block, or later
	// after a Reset dropped the decisions of its tail.
	se.cursor.Store(int64(se.appIdx))
	se.pool.dispatch()
	se.decEnd = se.block
}

// chunkOf returns worker w's contiguous share [lo, hi) of n items.
// Trailing workers get an empty chunk (lo >= hi) when n is below the
// worker count.
func (se *shardEngine) chunkOf(w, n int) (lo, hi int) {
	chunk := (n + se.workers - 1) / se.workers
	lo = w * chunk
	return lo, min(lo+chunk, n)
}

// roundClaim is the number of rounds a worker takes from the window's
// cursor at a time: small enough that the workers that did not draw take
// up the drawing worker's share, large enough that a claim's atomic add
// and its one cross-claim prefetch are rare. Measured on bign-2shard
// (bench/run.sh -seconds 5, four seeds, 2-vCPU Xeon VM): medians of 2.87M
// (4), 2.98M (16) and 2.86M (64) balls/sec; 16 without the cross-claim
// prefetch read 2.86M. The spread between claim sizes is within the
// host's noise.
const roundClaim = 16

// claim takes the next roundClaim rounds of the window; lo >= hi once the
// window is exhausted.
func (se *shardEngine) claim() (lo, hi int) {
	lo = int(se.cursor.Add(roundClaim)) - roundClaim
	return lo, min(lo+roundClaim, se.block)
}

// decideClaims is worker w's share of the gather + decide phase. For a
// round-only policy, worker 0 first draws the next block; only a phase that
// starts a fresh block finds it undrawn (a Reset keeps the drawn-ahead
// block, as it keeps the current one). Then every worker claims ranges of
// rounds from the window's cursor until it is exhausted and decides them
// one at a time: gather round r — its load lines were requested while the
// round before it was decided — then decide r while prefetching the next
// round's lines. The next range is claimed before a range's last round is
// decided, so that round prefetches the next range's first round. Each
// round is decided independently (own samples, own snapshot cells, own
// nonce; kd workers use their own selector lane), so which worker claims a
// round — the only P- and schedule-dependent quantity — cannot influence
// any decision.
func (se *shardEngine) decideClaims(w int) {
	if w == 0 && se.ahead {
		se.eng.drawAhead()
	}
	d := se.d
	base, bits := se.pfBase, se.pfBits
	r, end := se.claim()
	for r < end {
		next := r + 1
		if next == end {
			next, end = se.claim()
		}
		samples := se.blk.samples[r*d : (r+1)*d]
		ldv := se.ldv[r*d : (r+1)*d]
		se.store.Gather(samples, ldv)
		var pf []int
		if base != nil && next < end {
			pf = se.blk.samples[next*d : (next+1)*d]
		}
		nonce := se.blk.nonces[r]
		switch se.policy {
		case KDChoice, SerializedKD:
			// Rank the full k selection; a partial round applies the
			// first toPlace ranks, which is exactly the serial partial
			// round's selection (the toPlace smallest slots of a strict
			// total order are a prefix of the k smallest, ranked).
			sc := se.sels[w]
			sc.prefetchNext(base, bits, pf)
			sel := sc.probeAndRank(samples, ldv, nonce, se.k)
			kb := r * se.k
			for i := range sel {
				se.dests[kb+i] = sel[i].bin
			}
		case OnePlusBeta:
			prefetchIdx(base, pf, bits)
			se.decideOnePlusBeta(r, samples, ldv, nonce)
		default: // DChoice, CoarseDChoice
			prefetchIdx(base, pf, bits)
			se.dests[r] = argminLdv(samples, ldv, nonce, 0, se.quantum)
		}
		r = next
	}
}

// decideOnePlusBeta is the (1+β) decision recast as a fixed prologue: two
// samples plus a nonce per round, with the β coin and the equal-load tie
// bit both derived from the nonce instead of drawn on demand (the serial
// path's draw count is data-dependent, which no pre-drawn engine can
// replay). The law matches the serial process in DISTRIBUTION — coin
// probability β via the nonce's top 53 bits, fair tie via one mixed bit —
// but not bit-for-bit; the divergence tests pin the distribution.
func (se *shardEngine) decideOnePlusBeta(r int, samples, ldv []int, nonce uint64) {
	a, b := samples[0], samples[1]
	coin := false
	if se.beta > 0 {
		coin = se.beta >= 1 || float64(nonce>>11)*(1.0/(1<<53)) < se.beta
	}
	if !coin {
		se.dests[r] = a
		se.probes[r] = 1
		return
	}
	best := a
	la, lb := ldv[0], ldv[1]
	if lb < la || (lb == la && mix64(nonce^0xa0761d6478bd642f)&1 == 1) {
		best = b
	}
	se.dests[r] = best
	se.probes[r] = 2
}

// applyKD commits round r of a sharded (k,d)-choice block: the first
// toPlace ranked destinations, batch-incremented when unobserved exactly
// like the StaleBatch apply (one BulkAdd per round).
func (se *shardEngine) applyKD(pr *Process, r, toPlace int) {
	dests := se.dests[r*se.k : r*se.k+toPlace]
	placed, heights := pr.beginObs(toPlace)
	if placed == nil {
		pr.store.BulkAdd(dests)
		pr.balls += toPlace
	} else {
		for i, dst := range dests {
			h := pr.place(dst)
			placed[i] = dst
			heights[i] = h
		}
	}
	pr.messages += int64(se.d)
	pr.notify(se.roundSamples(r), placed, heights)
}

// applySerialized commits round r in σ order: the j-th ball goes to the
// slot of rank σ(j), with σ restricted to ranks below toPlace in a partial
// round — the same restriction rule as the serial path.
func (se *shardEngine) applySerialized(pr *Process, r, toPlace int) {
	dests := se.dests[r*se.k : (r+1)*se.k]
	placed, heights := pr.beginObs(toPlace)
	j := 0
	for _, rank := range pr.sigmaBuf {
		if rank >= toPlace {
			continue
		}
		b := dests[rank]
		h := pr.place(b)
		if placed != nil {
			placed[j] = b
			heights[j] = h
		}
		j++
		if j == toPlace {
			break
		}
	}
	pr.messages += int64(se.d)
	pr.notify(se.roundSamples(r), placed, heights)
}

// applySingle commits one SingleChoice ball. The destination is the
// pre-drawn sample itself, so sharded SingleChoice is bit-identical to
// serial for any P and any Block.
func (se *shardEngine) applySingle(pr *Process, r int) {
	b := se.single[r]
	h := pr.place(b)
	pr.messages++
	if pr.obs != nil {
		pr.notify(se.single[r:r+1], se.single[r:r+1], []int{h})
	}
}

// applyArgmin commits one DChoice / CoarseDChoice ball.
func (se *shardEngine) applyArgmin(pr *Process, r int) {
	best := se.dests[r]
	h := pr.place(best)
	pr.messages += int64(se.d)
	if pr.obs != nil {
		pr.notify(se.roundSamples(r), []int{best}, []int{h})
	}
}

// applyOnePlusBeta commits one (1+β) ball, charging the probes the coin
// actually spent.
func (se *shardEngine) applyOnePlusBeta(pr *Process, r int) {
	best := se.dests[r]
	h := pr.place(best)
	pb := int64(se.probes[r])
	pr.messages += pb
	if pr.obs != nil {
		samples := se.roundSamples(r)[:pb]
		pr.notify(samples, []int{best}, []int{h})
	}
}

// roundSamples returns round r's raw samples (aliasing the block buffer;
// observers see them for the duration of the callback, same contract as
// the serial engine's pre-drawn rounds).
func (se *shardEngine) roundSamples(r int) []int {
	return se.blk.samples[r*se.d : (r+1)*se.d]
}

// staleRound is the sharded StaleBatch round — the engine's one-round-wide
// configuration. The draw order (nonce, then every ball's samples in ball
// order) and the apply path are exactly the serial round's, and the
// gather-then-argmin chunks read the same frozen loads the serial scan
// reads live (nothing mutates during the parallel phase), so the sharded
// round is bit-identical to serial at any worker count.
func (se *shardEngine) staleRound(pr *Process, toPlace int) {
	perBall := se.d
	nonce := pr.rng.Uint64()
	placed, heights := pr.beginObs(toPlace)
	if cap(pr.cands) < toPlace {
		pr.cands = make([]int, toPlace)
	}
	dests := pr.cands[:toPlace]
	buf := pr.shardBuf[:toPlace*perBall]
	pr.rng.FillIntn(buf, pr.n)

	se.staleBuf = buf
	se.staleDests = dests
	se.staleNonce = nonce
	se.staleToPlace = toPlace
	se.pool.dispatch()
	pr.applyStaleDests(dests, placed, heights)
}

// staleDecideChunk gathers and decides worker w's contiguous chunk of a
// StaleBatch round's balls: per-ball argmins over the frozen snapshot.
func (se *shardEngine) staleDecideChunk(w int) {
	lo, hi := se.chunkOf(w, se.staleToPlace)
	if lo >= hi {
		return
	}
	perBall := se.d
	se.store.Gather(se.staleBuf[lo*perBall:hi*perBall], se.ldv[lo*perBall:hi*perBall])
	for b := lo; b < hi; b++ {
		samples := se.staleBuf[b*perBall : (b+1)*perBall]
		ldv := se.ldv[b*perBall : (b+1)*perBall]
		se.staleDests[b] = argminLdv(samples, ldv, se.staleNonce, b, 1)
	}
}
