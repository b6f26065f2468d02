package core

// This file is the superstep round engine behind every fixed-prologue
// policy: rounds whose random-draw pattern is a constant FillIntn(d
// samples) followed by one nonce draw (KDChoice, fixed-σ SerializedKD,
// DChoice, CoarseDChoice, DynamicKD) are pre-drawn in blocks of B rounds —
// one xrand.FillRounds bulk fill per block instead of 2B separate generator
// calls — and consumed one kdRound record at a time. Because the bulk fill
// performs exactly the serial draw sequence (samples then nonce, per round,
// in stream order), the block engine is bit-identical to per-round drawing
// by construction; pre-drawing only moves work earlier in time, never
// changes a word of the stream.
//
// B comes from Params.Block (0 auto-sizes to ~4096 samples per superstep),
// which amortizes the fixed per-round costs — generator state loads, Lemire
// threshold setup, call overhead — across the whole block. The engine
// shares the process's rng and refills its block in place, on the calling
// goroutine, whenever the block runs dry. The sharded engine (shard.go)
// may instead draw the next block ahead into a second block, on one of its
// workers, while the current one is decided.

import "repro/internal/xrand"

// kdRound is the consumer's view of one pre-drawn round, aliasing the
// engine's block; it is valid until the next next() call.
type kdRound struct {
	samples []int
	nonce   uint64
}

// kdBlock is one superstep of pre-drawn rounds in flat layout.
type kdBlock struct {
	samples []int    // rounds × d raw samples
	nonces  []uint64 // rounds
}

// newKDBlock allocates a block of rounds rounds of d samples.
func newKDBlock(rounds, d int) kdBlock {
	return kdBlock{
		samples: make([]int, rounds*d),
		nonces:  make([]uint64, rounds),
	}
}

// roundEngine pre-draws kdRound records in blocks of `rounds` rounds.
type roundEngine struct {
	d      int
	rounds int // superstep size B
	n      int
	rng    *xrand.Rand // shared with the owning Process

	blk   kdBlock
	ahead kdBlock // the next block once drawAhead drew it (sharded engine only)
	drawn bool    // ahead holds the next block
	idx   int
	cur   kdRound // scratch for next()'s return value

	// pos is the position of the round next() last returned, counting the
	// engine's rounds from 1 across blocks (0 before the first): what the
	// empty-leader walk keys its one-round pipeline to (select.go).
	pos uint64
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

// maxBlockSamples bounds Params.Block * D, the per-block sample buffer: a
// superstep past 2^24 samples (128 MB of ints) would fail as an opaque
// giant allocation instead of a config error, and is far beyond any
// amortization benefit (auto-sizing picks a few thousand samples).
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

// newRoundEngine returns an engine over blocks of `rounds` rounds of d
// samples in [0, n). It shares rng with the caller and draws from it one
// block at a time, when next or nextBlock needs a fresh block.
func newRoundEngine(rng *xrand.Rand, n, d, rounds int) *roundEngine {
	return &roundEngine{
		d:      d,
		rounds: rounds,
		n:      n,
		rng:    rng,
		blk:    newKDBlock(rounds, d),
		idx:    rounds, // force a refill on the first next()
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
	p.pos++
	p.cur.samples = p.blk.samples[i*p.d : (i+1)*p.d]
	p.cur.nonce = p.blk.nonces[i]
	return &p.cur
}

// peekNext returns the samples the following next() call will yield,
// without consuming them, so the kernel can prefetch that round's load
// lines while it selects the current one. It returns nil when that round
// is not drawn yet: the current round is the block's last, or no round
// has been consumed. The slice aliases the block like next()'s.
//
//kd:hotpath
func (p *roundEngine) peekNext() []int {
	i := p.idx
	if i >= p.rounds {
		return nil
	}
	return p.blk.samples[i*p.d : (i+1)*p.d]
}

// peekNonce returns the nonce of the round peekNext returns, at position
// pos+1; call it only when peekNext is non-nil.
//
//kd:hotpath
func (p *roundEngine) peekNonce() uint64 {
	return p.blk.nonces[p.idx]
}

// nextBlock returns the whole next block at once: the drawn-ahead block
// when drawAhead drew one, else a block drawn now. The sharded superstep
// engine (shard.go) consumes blocks wholesale — it decides every round of a
// block in one parallel phase — so it bypasses the per-round cursor; next()
// and nextBlock() must not be mixed on one engine. The returned pointer
// stays put; the block it points at is valid until the following nextBlock
// call.
func (p *roundEngine) nextBlock() *kdBlock {
	if p.drawn {
		p.blk, p.ahead = p.ahead, p.blk
		p.drawn = false
	} else {
		p.advance()
	}
	p.idx = p.rounds // keep the per-round cursor poisoned (exhausted)
	return &p.blk
}

// drawAhead draws the block the following nextBlock call returns, unless
// it is drawn already, into the engine's second block; the current block
// is left untouched, so the sharded engine calls it on one worker while the
// others decide the current block. Blocks are drawn in the same stream
// order either way, so drawing ahead changes no word of any block. The
// second block is allocated on the first call: the serial engine never
// draws ahead.
func (p *roundEngine) drawAhead() {
	if p.drawn {
		return
	}
	if p.ahead.nonces == nil {
		p.ahead = newKDBlock(p.rounds, p.d)
	}
	p.rng.FillRounds(p.ahead.samples, p.ahead.nonces, p.d, p.n)
	p.drawn = true
}

// advance draws the next block: per round, exactly FillIntn(samples, n)
// then one Uint64 nonce — the serial prologue — via the unrolled bulk fill.
func (p *roundEngine) advance() {
	p.rng.FillRounds(p.blk.samples, p.blk.nonces, p.d, p.n)
	p.idx = 0
}
