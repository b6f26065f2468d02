package core

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/xrand"
)

// blockOracle is the process the engine is tested against, written on a
// plain []int straight from the definitions and sharing nothing with the
// engine but the definitions of the random stream and of the tie order
// (xrand, tieKey, slotLess, mix64): no Process, no store, no round engine,
// no selector and no observer path.
//
// A (k,d) round is Park's reformulation (arXiv:1201.3310, Section 1.1): d
// conceptual balls, the c-th sample of bin b at height load(b)+c, of which
// the d−k highest are removed (refRank). A DynamicKD round ranks all d and
// keeps the prefix at or below its ceiling. A d-choice ball goes to the
// least loaded sample, and a StaleBatch round decides every ball against
// its round-start loads.
//
// Every round is decided against the loads as of its block start: at
// Block <= 1 that is the live load vector, and the oracle is the serial
// process; at Block >= 2 it is snap, the copy taken at the block's first
// round, which is the sharded engine's law. The oracle draws the serial
// per-round prologue from its own stream: d samples then the nonce
// (StaleBatch: the nonce, then each ball's samples, one ball at a time).
// It records every round's receiving bins and their heights in the order
// the round delivers them: rank order, σ order for kd-serialized, ball
// order for StaleBatch.
type blockOracle struct {
	policy Policy
	p      Params
	rng    *xrand.Rand
	loads  []int
	snap   []int // block-start loads (Block >= 2 only)
	balls  int
	round  int // rounds drawn so far; Reset does not rewind it
	log    roundLog
}

// newOracle returns the oracle of (policy, p) on a stream seeded like
// xrand.New(seed), starting from loads (nil: all bins empty).
func newOracle(policy Policy, p Params, seed uint64, loads []int) *blockOracle {
	o := &blockOracle{policy: policy, p: p, rng: xrand.New(seed), loads: make([]int, p.N)}
	if p.Block > 1 {
		o.snap = make([]int, p.N)
	}
	copy(o.loads, loads)
	for _, l := range o.loads {
		o.balls += l
	}
	return o
}

func (o *blockOracle) reset() {
	clear(o.loads)
	clear(o.snap) // the rest of the block is re-decided against empty bins
	o.balls = 0
}

// place runs rounds until m more balls are placed; a final partial round
// places the rest.
func (o *blockOracle) place(m int) {
	for m > 0 {
		m -= o.roundOf(m)
	}
}

// roundOf draws and applies one round that places at most left balls, and
// returns the number it placed.
func (o *blockOracle) roundOf(left int) int {
	if o.p.Block > 1 && o.round%o.p.Block == 0 {
		copy(o.snap, o.loads)
	}
	o.round++
	samples := make([]int, o.p.D)
	if o.policy == StaleBatch {
		// Decide every ball before applying any: each sees the round-start
		// loads.
		nonce := o.rng.Uint64()
		dests := make([]int, min(o.p.K, left))
		for b := range dests {
			o.rng.FillIntn(samples, o.p.N)
			dests[b] = o.argmin(samples, nonce, b)
		}
		return o.apply(dests)
	}
	o.rng.FillIntn(samples, o.p.N)
	nonce := o.rng.Uint64()
	if o.policy == DChoice {
		return o.apply([]int{o.argmin(samples, nonce, 0)})
	}
	return o.kdRound(samples, nonce, left)
}

// view is the load vector the current round decides against.
func (o *blockOracle) view() []int {
	if o.snap != nil {
		return o.snap
	}
	return o.loads
}

// kdRound decides and applies one (k,d)-family round on the given samples
// and nonce, placing at most left balls, and returns the number placed.
func (o *blockOracle) kdRound(samples []int, nonce uint64, left int) int {
	view := o.view()
	ldv := make([]int, len(samples))
	for i, b := range samples {
		ldv[i] = view[b]
	}
	slots := refRank(samples, ldv, nonce, len(samples))
	var dests []int
	switch o.policy {
	case DynamicKD:
		// Every slot at or below the ceiling, at least the lowest one.
		ceiling := o.balls/o.p.N + 1
		for _, s := range slots[:min(left, len(slots))] {
			if len(dests) > 0 && s.height > ceiling {
				break
			}
			dests = append(dests, s.bin)
		}
	case SerializedKD:
		// The j-th ball goes to the slot of rank σ(j), σ restricted to the
		// ranks a partial round places.
		toPlace := min(o.p.K, left)
		for j := 0; j < o.p.K; j++ {
			rank := j
			if o.p.Sigma != nil {
				rank = o.p.Sigma[j]
			}
			if rank < toPlace {
				dests = append(dests, slots[rank].bin)
			}
		}
	default: // KDChoice
		for _, s := range slots[:min(o.p.K, left)] {
			dests = append(dests, s.bin)
		}
	}
	return o.apply(dests)
}

// apply places one ball in each of dests, in order, and records the round.
func (o *blockOracle) apply(dests []int) int {
	heights := make([]int, len(dests))
	for i, b := range dests {
		o.loads[b]++
		heights[i] = o.loads[b]
	}
	o.balls += len(dests)
	o.log.placed = append(o.log.placed, dests)
	o.log.heights = append(o.log.heights, heights)
	return len(dests)
}

// argmin is the least loaded sample, ties between distinct bins broken by
// the ball-keyed hash of the bin (ball = 0 for d-choice).
func (o *blockOracle) argmin(samples []int, nonce uint64, ball int) int {
	view := o.view()
	key := func(b int) uint64 { return mix64(nonce ^ uint64(ball)<<32 ^ uint64(b)*0x9e3779b97f4a7c15) }
	best := samples[0]
	for _, b := range samples[1:] {
		if view[b] < view[best] || (view[b] == view[best] && key(b) < key(best)) {
			best = b
		}
	}
	return best
}

// refRank ranks a round's slots by the definition: the c-th sample of bin
// b in draw order is the slot (b, ldv+c), where ldv is the load that sample
// read, and slots order by (height, tie key, bin). It returns the toPlace
// smallest.
func refRank(samples, ldv []int, nonce uint64, toPlace int) []slot {
	seen := make(map[int]int, len(samples))
	slots := make([]slot, len(samples))
	for i, b := range samples {
		seen[b]++
		h := ldv[i] + seen[b]
		slots[i] = slot{bin: b, height: h, tie: tieKey(nonce, b, h)}
	}
	slices.SortFunc(slots, func(a, b slot) int {
		switch {
		case slotLess(a, b):
			return -1
		case slotLess(b, a):
			return 1
		}
		return 0
	})
	return slots[:toPlace]
}

// roundLog records every round's receiving bins and their heights, in the
// order the round delivered them.
type roundLog struct {
	placed, heights [][]int
}

func (rl *roundLog) RoundPlaced(round int, samples, placed, heights []int) {
	rl.placed = append(rl.placed, append([]int(nil), placed...))
	rl.heights = append(rl.heights, append([]int(nil), heights...))
}

// matchOracle places m balls on pr and on o and reports the first round in
// which they delivered different bins or heights, or differing final
// loads. It replaces pr's observer.
func matchOracle(pr *Process, o *blockOracle, m int) error {
	return o.match(pr, func() {
		pr.Place(m)
		o.place(m)
	})
}

// matchOracleRound sets pr's loads to o's and runs one (k,d)-family round
// of K balls on the given samples on both, each drawing only the round's
// nonce, then compares them as matchOracle does.
func matchOracleRound(pr *Process, o *blockOracle, samples []int) error {
	pr.setLoads(o.loads)
	return o.match(pr, func() {
		copy(pr.samples, samples)
		pr.roundKDFromSamples(o.p.K)
		o.kdRound(samples, o.rng.Uint64(), o.p.K)
	})
}

// match runs step with an observer on pr and compares the rounds pr
// delivered during step with the ones o recorded, then the final loads.
func (o *blockOracle) match(pr *Process, step func()) error {
	got := &roundLog{}
	pr.SetObserver(got)
	defer pr.SetObserver(nil)
	first := len(o.log.placed)
	step()
	want := roundLog{placed: o.log.placed[first:], heights: o.log.heights[first:]}
	if len(got.placed) != len(want.placed) {
		return fmt.Errorf("%d rounds, oracle %d", len(got.placed), len(want.placed))
	}
	for r := range want.placed {
		if !reflect.DeepEqual(got.placed[r], want.placed[r]) || !reflect.DeepEqual(got.heights[r], want.heights[r]) {
			return fmt.Errorf("round %d: placed %v heights %v, oracle %v heights %v",
				first+r+1, got.placed[r], got.heights[r], want.placed[r], want.heights[r])
		}
	}
	return o.sameLoads(pr)
}

// sameLoads reports the first bin whose load differs between pr and o.
func (o *blockOracle) sameLoads(pr *Process) error {
	loads := pr.Loads()
	for b, want := range o.loads {
		if loads[b] != want {
			return fmt.Errorf("bin %d load %d, oracle %d", b, loads[b], want)
		}
	}
	return nil
}
