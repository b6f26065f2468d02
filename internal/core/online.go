package core

// This file is the online-serving layer of the process: instead of
// simulating "n placements and stop", a process serves an operation stream
// of inserts, deletes and rebalances, with every surviving ball addressable
// through a handle. The placement decisions are exactly the per-ball
// policies' (SingleChoice, DChoice, OnePlusBeta — the (1+β)-capable family:
// β = 0 is single choice, β = 1 with D = d probes is d-choice, anything
// between interpolates — plus the limited-memory pair ThresholdChoice and
// CoarseDChoice of limited.go), drawing from the same deterministic stream
// discipline as the one-shot path: Place runs one decide() per ball too
// (Process.ballDecide), so an insert stream with unit weights and no
// deletes is bit-identical to Place on the same seed.
//
// Deletion-aware accounting: every mutation goes through the store's
// Sub/AddN bookkeeping, so MaxLoad, Gap and ν_y stay correct as bins
// drain — the property Narang & Dutta's deletion-surviving gap bounds are
// about. Weighted balls add w load units atomically; vector-load mode
// (Params.VecDims) keeps a []float64 load per bin and decides on the
// aggregated norm instead of the scalar store.

import "fmt"

// Op identifies the kind of operation behind a round/observer event.
type Op int

// Operation kinds.
const (
	// OpInsert is a ball arrival (also the kind of every one-shot round).
	OpInsert Op = iota
	// OpDelete is a ball departure.
	OpDelete
	// OpRebalance is a ball migration probe (which may or may not move).
	OpRebalance
)

var opNames = [...]string{OpInsert: "insert", OpDelete: "delete", OpRebalance: "rebalance"}

// String returns the canonical name of the operation kind.
func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Ball is a handle to a live ball returned by the insert operations. A
// handle stays valid until the ball is deleted (or the process is reset);
// handles to deleted balls are detected and rejected, even when their
// registry slot has been recycled, via a per-slot generation counter.
type Ball int64

// NoBall is the zero-value invalid handle.
const NoBall Ball = -1

func makeBall(idx int32, gen uint32) Ball {
	return Ball(uint64(gen)<<32 | uint64(uint32(idx)))
}

func (b Ball) slot() int32 { return int32(uint32(uint64(b))) }
func (b Ball) gen() uint32 { return uint32(uint64(b) >> 32) }

// onlineEligible reports whether the policy places balls one at a time
// with no cross-ball round state — the precondition for serving an
// insert/delete stream.
func onlineEligible(policy Policy) bool {
	switch policy {
	case SingleChoice, DChoice, OnePlusBeta, ThresholdChoice, CoarseDChoice:
		return true
	default:
		return false
	}
}

// vecEligible reports whether the policy supports vector-load mode: the
// (1+β)-capable family, whose decisions reduce to aggregated-load argmins.
// The limited-memory policies stay scalar (their decisions read the scalar
// store's integer loads and thresholds).
func vecEligible(policy Policy) bool {
	switch policy {
	case SingleChoice, DChoice, OnePlusBeta:
		return true
	default:
		return false
	}
}

// checkOnline rejects online operations on round-based policies.
func (pr *Process) checkOnline() error {
	if !onlineEligible(pr.policy) {
		return fmt.Errorf("core: online serving requires a per-ball policy (single, dchoice, oneplusbeta, threshold, dchoice-coarse), process runs %v", pr.policy)
	}
	return nil
}

// Live returns the number of live (inserted and not yet deleted) balls.
func (pr *Process) Live() int { return pr.reg.live }

// LastOp returns the operation kind behind the most recent observer
// notification. Observers read it synchronously from their callback.
func (pr *Process) LastOp() Op { return pr.curOp }

// LastOpWeight returns the weight of the most recent operation; 0 means
// "one unit per placed ball" (the one-shot rounds, which never set it).
func (pr *Process) LastOpWeight() int { return pr.curWeight }

// Reserve pre-sizes the ball registry for n live balls, so a serving loop
// of known size never grows a registry slice mid-measurement. It never
// shrinks.
func (pr *Process) Reserve(n int) { pr.reg.reserve(n) }

// decide runs one placement decision of the per-ball policy family and
// returns the chosen bin plus the number of bins probed. In scalar mode the
// sampled loads are gathered from the store in one call; in vector mode the
// aggregated loads are compared with the same keyed-hash tie discipline.
// Under a fault plan it runs the degraded decision (decideFaulty).
//
// It is the one decision behind both Insert and the one-shot per-ball
// rounds (ballDecide), so an insert-only stream reproduces Place bit for
// bit. DChoice is greedy[d] of Azar, Broder, Karlin and Upfal,
// distributionally identical to (k,d)-choice with k = 1 but implemented
// independently so the two cross-validate. OnePlusBeta sends the ball,
// with probability β, to the lesser loaded of two uniform probes, and
// otherwise to one uniform probe; for D > 2 the β coin chooses between one
// uniform probe and a D-probe argmin scan (D <= 2, the classical process
// of Peres et al., keeps the exact two-probe draws).
func (pr *Process) decide() (bin, probes int) {
	if pr.flt != nil {
		return pr.decideFaulty()
	}
	pr.obsPairBuf = pr.obsPairBuf[:0]
	switch pr.policy {
	case DChoice:
		nonce := pr.roundPrologue()
		return pr.argminSamples(nonce), pr.p.D
	case CoarseDChoice:
		// The same scan over loads quantized by Quantum (limited.go); at
		// Quantum = 1 it is DChoice's exactly.
		nonce := pr.roundPrologue()
		return pr.gatherArgmin(nonce, pr.quantum()), pr.p.D
	case ThresholdChoice:
		return pr.decideThreshold()
	case OnePlusBeta:
		if pr.rng.Bernoulli(pr.p.Beta) {
			if d := pr.p.D; d > 2 {
				pr.rng.FillIntn(pr.samples, pr.n)
				nonce := pr.rng.Uint64()
				return pr.argminSamples(nonce), d
			}
			a := pr.rng.Intn(pr.n)
			b := pr.rng.Intn(pr.n)
			best := a
			la, lb := pr.loadOf(a), pr.loadOf(b)
			if lb < la || (lb == la && pr.rng.Bool()) {
				best = b
			}
			pr.obsPair(a, b)
			return best, 2
		}
		fallthrough
	default: // SingleChoice
		b := pr.rng.Intn(pr.n)
		pr.obsPair(b, -1)
		return b, 1
	}
}

// loadOf reads one bin's decision load: the scalar store's load, or the
// aggregated vector load widened to a comparison on float64s (the
// two-probe path only; argmin scans gather their loads in one call).
func (pr *Process) loadOf(bin int) float64 {
	if pr.vec != nil {
		return pr.vec.RawAgg()[bin]
	}
	return float64(pr.store.Load(bin))
}

// argminSamples returns the least-loaded bin of pr.samples with the keyed
// per-round tie hash — argminLdv over the gathered loads at ball 0 in
// scalar mode, the same scan over the aggregated loads in vector mode.
func (pr *Process) argminSamples(nonce uint64) int {
	if pr.vec == nil {
		return pr.gatherArgmin(nonce, 1)
	}
	agg := pr.vec.RawAgg()
	samples := pr.samples
	best := samples[0]
	bestLoad := agg[best]
	bestTie := mix64(nonce ^ uint64(best)*0x9e3779b97f4a7c15)
	for _, cand := range samples[1:] {
		if cand == best {
			continue
		}
		load := agg[cand]
		switch {
		case load < bestLoad:
			best, bestLoad = cand, load
			bestTie = mix64(nonce ^ uint64(cand)*0x9e3779b97f4a7c15)
		case load == bestLoad:
			if tie := mix64(nonce ^ uint64(cand)*0x9e3779b97f4a7c15); tie < bestTie {
				best = cand
				bestTie = tie
			}
		}
	}
	return best
}

// obsPair stashes up to two sampled bins for the observer notification of
// per-ball decisions that do not go through pr.samples (b == -1 means one
// sample). No-op when unobserved; decide clears the buffer at entry, so a
// populated buffer always describes the current decision.
func (pr *Process) obsPair(a, b int) {
	if pr.obs == nil {
		return
	}
	if cap(pr.obsPairBuf) < 2 {
		pr.obsPairBuf = make([]int, 0, 2)
	}
	pr.obsPairBuf = append(pr.obsPairBuf, a)
	if b >= 0 {
		pr.obsPairBuf = append(pr.obsPairBuf, b)
	}
}

// obsSamples returns the sample list of the decision just made, for
// observer notification.
func (pr *Process) obsSamples() []int {
	if len(pr.obsPairBuf) > 0 {
		return pr.obsPairBuf
	}
	return pr.samples
}

// notifyOp reports one online operation to the observer, if any, tagging
// it with kind and weight.
func (pr *Process) notifyOp(op Op, weight int, samples, placed, heights []int) {
	if pr.obs == nil {
		return
	}
	pr.curOp, pr.curWeight = op, weight
	pr.obs.RoundPlaced(pr.rounds, samples, placed, heights)
	pr.curOp, pr.curWeight = OpInsert, 0
}

// Insert places one unit-weight ball and returns its handle.
func (pr *Process) Insert() (Ball, error) { return pr.InsertW(1) }

// InsertW places one ball of weight w >= 1 (w load units added atomically
// to the chosen bin) and returns its handle. The decision probes loads,
// not weights: like Narang & Dutta's weighted process, the ball lands in
// the least-loaded probed bin regardless of its own size.
func (pr *Process) InsertW(w int) (Ball, error) {
	if err := pr.checkOnline(); err != nil {
		return NoBall, err
	}
	if pr.vec != nil {
		return NoBall, fmt.Errorf("core: InsertW on a vector-load process; use InsertVec")
	}
	if w < 1 || w > maxBallWeight {
		return NoBall, fmt.Errorf("core: ball weight %d out of range [1, %d]", w, maxBallWeight)
	}
	pr.faultTick()
	pr.rounds++
	bin, probes := pr.decide()
	h := pr.store.AddN(bin, w)
	pr.balls++
	pr.messages += int64(probes)
	idx := pr.reg.add(bin, w)
	if pr.obs != nil {
		pr.notifyOp(OpInsert, w, pr.obsSamples(), []int{bin}, []int{h})
	}
	return pr.reg.handle(idx), nil
}

// InsertVec places one ball carrying the weight vector w (len VecDims,
// non-negative finite components) and returns its handle. Vector mode
// only.
func (pr *Process) InsertVec(w []float64) (Ball, error) {
	if err := pr.checkOnline(); err != nil {
		return NoBall, err
	}
	if pr.vec == nil {
		return NoBall, fmt.Errorf("core: InsertVec on a scalar process; use Insert/InsertW (or set Params.VecDims)")
	}
	if len(w) != pr.p.VecDims {
		return NoBall, fmt.Errorf("core: weight vector has %d components, process has VecDims = %d", len(w), pr.p.VecDims)
	}
	pr.faultTick() // vector mode rejects fault plans; kept for symmetry
	pr.rounds++
	bin, probes := pr.decide()
	pr.vec.AddVec(bin, w)
	pr.balls++
	pr.messages += int64(probes)
	idx := pr.reg.add(bin, 1)
	copy(pr.reg.vecOf(idx), w)
	if pr.obs != nil {
		pr.notifyOp(OpInsert, 1, pr.obsSamples(), []int{bin}, nil)
	}
	return pr.reg.handle(idx), nil
}

// Delete removes a live ball, draining its weight from its bin with full
// aggregate bookkeeping (MaxLoad, Gap and ν_y stay correct as the bin
// drains). The handle becomes invalid; its registry slot is recycled.
func (pr *Process) Delete(b Ball) error {
	idx, err := pr.reg.resolve(b)
	if err != nil {
		return err
	}
	pr.faultTick()
	bin := pr.reg.bin(idx)
	w := pr.reg.weight(idx)
	if pr.vec != nil {
		pr.vec.SubVec(bin, pr.reg.vecOf(idx))
	} else {
		pr.store.Sub(bin, w)
	}
	pr.reg.release(idx)
	pr.balls--
	pr.rounds++
	if pr.obs != nil {
		pr.notifyOp(OpDelete, w, nil, []int{bin}, nil)
	}
	return nil
}

// BallBin returns the bin currently holding a live ball.
func (pr *Process) BallBin(b Ball) (int, error) {
	idx, err := pr.reg.resolve(b)
	if err != nil {
		return 0, err
	}
	return pr.reg.bin(idx), nil
}

// BallWeight returns a live ball's scalar weight (1 for vector-mode
// balls).
func (pr *Process) BallWeight(b Ball) (int, error) {
	idx, err := pr.reg.resolve(b)
	if err != nil {
		return 0, err
	}
	return pr.reg.weight(idx), nil
}

// Rebalance re-probes for a live ball using the policy's decision rule and
// migrates it when the move strictly lowers the ball's landing height:
// load(best) + w < load(current bin). It returns whether the ball moved.
// Probes are charged at the policy's rate; a migration is one extra
// message.
func (pr *Process) Rebalance(b Ball) (bool, error) {
	idx, err := pr.reg.resolve(b)
	if err != nil {
		return false, err
	}
	pr.faultTick()
	cur := pr.reg.bin(idx)
	pr.rounds++
	best, probes := pr.decide()
	pr.messages += int64(probes)
	moved := false
	if best != cur {
		if pr.vec != nil {
			w := pr.reg.vecOf(idx)
			agg := pr.vec.RawAgg()
			// Move iff the destination is strictly less loaded than the
			// source even after receiving the ball's aggregate weight.
			if agg[best]+pr.p.VecNorm.Apply(w) < agg[cur] {
				pr.vec.SubVec(cur, w)
				pr.vec.AddVec(best, w)
				moved = true
			}
		} else {
			w := pr.reg.weight(idx)
			if pr.store.Load(best)+w < pr.store.Load(cur) {
				pr.store.Sub(cur, w)
				pr.store.AddN(best, w)
				moved = true
			}
		}
	}
	if moved {
		pr.reg.move(idx, best)
		pr.messages++
	}
	if pr.obs != nil {
		placed := []int{cur}
		if moved {
			placed = []int{best}
		}
		pr.notifyOp(OpRebalance, pr.reg.weight(idx), pr.obsSamples(), placed, nil)
	}
	return moved, nil
}

// maxBallWeight bounds a scalar ball's weight; it keeps per-ball weights
// within the registry's int32 slots with a wide safety margin.
const maxBallWeight = 1 << 30

// MaxAggLoad returns vector mode's maximum aggregated bin load (0 for
// scalar processes).
func (pr *Process) MaxAggLoad() float64 {
	if pr.vec == nil {
		return 0
	}
	return pr.vec.MaxAgg()
}

// GapAgg returns vector mode's max-minus-mean aggregated load (0 for
// scalar processes).
func (pr *Process) GapAgg() float64 {
	if pr.vec == nil {
		return 0
	}
	return pr.vec.GapAgg()
}

// AggLoad returns one bin's aggregated vector load (0 for scalar
// processes).
func (pr *Process) AggLoad(bin int) float64 {
	if pr.vec == nil {
		return 0
	}
	return pr.vec.AggLoad(bin)
}

// VecLoad returns a copy of one bin's load vector (nil for scalar
// processes).
func (pr *Process) VecLoad(bin int) []float64 {
	if pr.vec == nil {
		return nil
	}
	return pr.vec.VecLoad(bin)
}
