package core

// This file implements the limited-memory decision policies motivated by
// the choice-memory tradeoff of Alon, Gurel-Gurevich and Lubetzky
// (arXiv:0901.4056): allocators that decide with O(1) working state or
// with only coarse (sketch-compatible) load information, positioned
// against Park's exact (k,d)-choice baseline.
//
//   - ThresholdChoice: sequential accept/reject. The ball probes up to D
//     bins one at a time and commits to the FIRST whose load is below the
//     running ceiling T = floor(balls/n) + 1 — the best possible max load
//     if the current balls were spread evenly, plus the ball being placed.
//     If no probe qualifies the ball stays in the last probed bin (the
//     process always makes progress). The decision state is one candidate
//     bin and one threshold — O(1) memory, no ranking, no tie lottery —
//     and the message cost is the number of probes actually issued, so
//     lightly loaded phases pay ~1 probe per ball. The draw count is
//     data-dependent, which excludes the fixed-prologue superstep engine:
//     like the other adaptive policies it draws from the stream per probe.
//
//   - CoarseDChoice: d-choice over QUANTIZED loads. The round draws d
//     samples and a nonce exactly like DChoice, but the argmin compares
//     floor(load / Quantum) instead of the load itself, breaking
//     bucket-ties with the same per-(round, bin) keyed hash. Loads that
//     differ by less than a quantum are deliberately indistinguishable —
//     exactly the information a sub-quantum-accurate sketch can still
//     provide, so the policy's behavior is insensitive to bounded sketch
//     overestimates. With Quantum = 1 the bucket IS the load and the
//     policy is bit-identical to DChoice (pinned in tests); the prologue
//     is the fixed FillIntn-then-nonce sequence, so CoarseDChoice rides
//     the superstep engine like DChoice.
//
// Both decide inside the serving layer's decide() (online.go), which Place
// and Insert share: ThresholdChoice through decideThreshold below,
// CoarseDChoice through the shared argmin over the gathered loads
// (argminLdv in kernel.go, at q = Quantum).

// defaultQuantum is the CoarseDChoice bucket width when Params.Quantum is
// left zero: coarse enough that a defensible sketch geometry (inflation of
// a few units) rarely crosses a bucket boundary, fine enough to keep the
// gap within a few units of exact d-choice.
const defaultQuantum = 4

// quantum returns the effective CoarseDChoice bucket width.
func (pr *Process) quantum() int {
	if q := pr.p.Quantum; q > 0 {
		return q
	}
	return defaultQuantum
}

// decideThreshold runs one ThresholdChoice decision and returns the chosen
// bin plus the number of probes issued (decide's ThresholdChoice case,
// behind both Place and Insert). Probed bins are recorded in
// pr.obsPairBuf only when an observer is installed (the hot path stays
// allocation-free).
func (pr *Process) decideThreshold() (bin, probes int) {
	t := pr.store.Balls()/pr.n + 1
	d := pr.p.D
	b := 0
	for i := 1; i <= d; i++ {
		b = pr.rng.Intn(pr.n)
		if pr.obs != nil {
			pr.obsPairBuf = append(pr.obsPairBuf, b)
		}
		if pr.store.Load(b) < t {
			return b, i
		}
	}
	return b, d
}
