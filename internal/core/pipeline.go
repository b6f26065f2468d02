package core

// This file is the superstep round engine behind every fixed-prologue
// policy: rounds whose random-draw pattern is a constant FillIntn(d
// samples) followed by one nonce draw (KDChoice, fixed-σ SerializedKD,
// DChoice, DynamicKD) are pre-drawn in blocks of B rounds — one
// xrand.FillRounds bulk fill per block instead of 2B separate generator
// calls — and consumed one kdRound record at a time. Because the bulk fill
// performs exactly the serial draw sequence (samples then nonce, per round,
// in stream order), the block engine is bit-identical to per-round drawing
// by construction; pre-drawing only moves work earlier in time, never
// changes a word of the stream.
//
// B comes from Params.Block (0 auto-sizes to ~4096 samples per superstep),
// which amortizes the fixed per-round costs — generator state loads, Lemire
// threshold setup, call overhead — across the whole block.
//
// The engine runs in one of two modes:
//
//   - inline (the default, and always on a single-CPU host): the consumer
//     fills its local block in place whenever it runs dry. Same records,
//     same stream order, zero copies, zero goroutines.
//   - async (Params.Pipeline on a multi-CPU host): a producer goroutine
//     pre-draws whole blocks ahead of the round loop and hands them through
//     channels (clean happens-before edges under -race). The consumer
//     bulk-copies each block into its own buffers when it switches blocks:
//     one streamed memcpy instead of per-round demand misses on cache lines
//     still owned by the producer core. Blocks are recycled through a free
//     list, so the steady state performs zero allocations.
//
// Policies with data-dependent draw patterns (AdaptiveKD's reservoir ties,
// RandomSigma's shuffles, SAx0's rank draws, StaleBatch's per-ball fills,
// ...) cannot pre-draw rounds; under Params.Pipeline they fall back to the
// generic word-level prefetcher (xrand.Pipelined), which is bit-identical
// for any policy.

import (
	"runtime"
	"sync"

	"repro/internal/xrand"
)

// kdRound is the consumer's view of one pre-drawn round, aliasing the
// consumer-local block; it is valid until the next next() call.
type kdRound struct {
	samples []int
	nonce   uint64
}

// kdBlock is one superstep of pre-drawn rounds in flat layout
// (bulk-copyable).
type kdBlock struct {
	samples []int    // rounds × d raw samples
	nonces  []uint64 // rounds
}

func newKDBlock(rounds, d int) *kdBlock {
	return &kdBlock{
		samples: make([]int, rounds*d),
		nonces:  make([]uint64, rounds),
	}
}

// copyFrom bulk-copies src into b (one streamed pass per array).
//
//kd:hotpath
func (b *kdBlock) copyFrom(src *kdBlock) {
	copy(b.samples, src.samples)
	copy(b.nonces, src.nonces)
}

// roundEngine produces kdRound records ahead of the round loop.
type roundEngine struct {
	d      int
	rounds int // superstep size B

	// Async mode (Params.Pipeline, extra CPUs): producer + channels.
	full chan *kdBlock
	free chan *kdBlock
	done chan struct{}
	once sync.Once

	// Inline mode: the consumer fills local itself. rng is shared with the
	// owning Process (pr.rng stays valid for the non-engine seams).
	inline bool
	rng    xrand.Source
	n      int

	local *kdBlock // consumer-owned copy of the current block
	idx   int
	cur   kdRound // scratch for next()'s return value
}

// blockEligible reports whether the policy/params combination has the
// fixed FillIntn-then-nonce round prologue the superstep engine pre-draws.
func blockEligible(policy Policy, p Params) bool {
	switch policy {
	case KDChoice, DChoice, DynamicKD, CoarseDChoice:
		return true
	case SerializedKD:
		// RandomSigma draws a shuffle after the nonce, so its rounds are
		// not a fixed prologue.
		return !p.RandomSigma
	default:
		return false
	}
}

// enginePipeDepth is the number of producer blocks in flight (async mode).
const enginePipeDepth = 3

// maxBlockSamples bounds Params.Block * D, the per-block sample buffer: a
// superstep past 2^24 samples (128 MB of ints, several blocks in flight
// when pipelined) would fail as an opaque giant allocation instead of a
// config error, and is far beyond any amortization benefit (auto-sizing
// picks a few thousand samples).
const maxBlockSamples = 1 << 24

// blockRounds sizes a superstep: Params.Block when set, otherwise ~4096
// samples per block with a floor of 4 rounds.
func blockRounds(d, block int) int {
	if block > 0 {
		return block
	}
	r := 4096 / d
	if r < 4 {
		r = 4
	}
	return r
}

// shardBlockRounds sizes a sharded superstep: Params.Block when set,
// otherwise ~32768 samples per block with a floor of 32 rounds — wider than
// the serial auto block because the parallel decide phase amortizes worker
// hand-off per block, not per round. Deliberately independent of the worker
// count: the block boundary is part of the allocation law (it sets the
// staleness horizon), so auto-sizing by P would break the
// bit-identical-for-any-P guarantee.
func shardBlockRounds(d, block int) int {
	if block > 0 {
		return block
	}
	r := 32768 / d
	if r < 32 {
		r = 32
	}
	return r
}

// newRoundEngine starts the engine over blocks of `rounds` rounds. In
// inline mode the rng is shared with the caller and drawn from lazily; in
// async mode (wantAsync on a multi-CPU host) a producer goroutine owns the
// rng from here on.
func newRoundEngine(rng xrand.Source, n, d, rounds int, wantAsync bool) *roundEngine {
	p := &roundEngine{
		d:      d,
		rounds: rounds,
		n:      n,
		local:  newKDBlock(rounds, d),
	}
	p.idx = rounds // force a refill on the first next()
	if !wantAsync || runtime.GOMAXPROCS(0) <= 1 {
		p.inline = true
		p.rng = rng
		return p
	}
	p.full = make(chan *kdBlock, enginePipeDepth)
	p.free = make(chan *kdBlock, enginePipeDepth)
	p.done = make(chan struct{})
	for i := 0; i < enginePipeDepth; i++ {
		p.free <- newKDBlock(rounds, d)
	}
	go p.produce(rng)
	return p
}

// fillBlock pre-draws one superstep into b: per round, exactly
// FillIntn(samples, n) then one Uint64 nonce — the serial prologue — via
// the unrolled bulk fill. Shared by the async producer and inline mode, so
// the two modes cannot diverge.
func fillBlock(b *kdBlock, rng xrand.Source, n, d int) {
	rng.FillRounds(b.samples, b.nonces, d, n)
}

// produce is the async producer loop.
func (p *roundEngine) produce(rng xrand.Source) {
	for {
		var b *kdBlock
		select {
		case <-p.done:
			return
		case b = <-p.free:
		}
		fillBlock(b, rng, p.n, p.d)
		select {
		case <-p.done:
			return
		case p.full <- b:
		}
	}
}

// next returns the next pre-drawn round. The returned record (and its
// samples slice) is valid until the following next call.
//
//kd:hotpath
func (p *roundEngine) next() *kdRound {
	if p.idx == p.rounds {
		p.advance()
	}
	i := p.idx
	p.idx++
	b := p.local
	p.cur.samples = b.samples[i*p.d : (i+1)*p.d]
	p.cur.nonce = b.nonces[i]
	return &p.cur
}

// peekNext returns the samples the following next() call will yield,
// without consuming them, so the kernel can prefetch that round's load
// lines while it selects the current one. It returns nil when that round
// is not drawn yet — the current round is the block's last, or no round
// has been consumed — and in async mode, the Pipeline path, which keeps
// its unprefetched behaviour. The slice aliases the local block like
// next()'s.
//
//kd:hotpath
func (p *roundEngine) peekNext() []int {
	i := p.idx
	if i >= p.rounds || !p.inline {
		return nil
	}
	return p.local.samples[i*p.d : (i+1)*p.d]
}

// nextBlock refills and returns the whole local block at once. The sharded
// superstep engine (shard.go) consumes blocks wholesale — it decides every
// round of a block in one parallel phase — so it bypasses the per-round
// cursor; next() and nextBlock() must not be mixed on one engine. The
// returned block aliases the consumer-local buffers and is valid until the
// following nextBlock call.
func (p *roundEngine) nextBlock() *kdBlock {
	p.advance()
	p.idx = p.rounds // keep the per-round cursor poisoned (exhausted)
	return p.local
}

// advance refills the local block: inline mode draws it directly; async
// mode takes the next producer block, bulk-copies it, and recycles it
// immediately (published blocks are drained before honoring Close).
func (p *roundEngine) advance() {
	if p.inline {
		fillBlock(p.local, p.rng, p.n, p.d)
		p.idx = 0
		return
	}
	var b *kdBlock
	select {
	case b = <-p.full:
	default:
		select {
		case b = <-p.full:
		case <-p.done:
			panic("core: pipelined process used after Close")
		}
	}
	p.local.copyFrom(b)
	p.free <- b
	p.idx = 0
}

// Close stops the producer goroutine (no-op in inline mode). Idempotent.
func (p *roundEngine) Close() {
	if p.inline {
		return
	}
	p.once.Do(func() { close(p.done) })
}
