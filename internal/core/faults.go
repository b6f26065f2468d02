package core

// This file threads the deterministic fault layer (internal/faults)
// through the process: degraded rounds for the (k,d) family, degraded
// per-ball decisions for the serving family, and the EvictRecover path
// that re-places live balls out of failing bins.
//
// Contract (mirrors the observer contract): pr.flt is nil whenever no
// plan — or an empty plan — is attached, every hook below is guarded by
// that nil check, and the guarded paths draw nothing from the main
// stream, so a no-plan process is bit-identical to one built before the
// fault layer existed and costs 0 allocs/round extra. With a plan
// attached, all fault randomness comes from streams split off the root
// seed (never the main stream) and every fault decision is serial:
// faulty runs are bit-identical for ANY Workers/Shards/Block setting
// (effectiveShards forces the serial engine under a plan).

import (
	"sort"

	"repro/internal/faults"
)

// FaultCounters returns the cumulative fault counters (zero when no
// fault plan is attached).
func (pr *Process) FaultCounters() faults.Counters {
	if pr.flt == nil {
		return faults.Counters{}
	}
	return pr.flt.Counters
}

// faultTick advances the fault schedule by one serving operation; the
// one-shot rounds tick in stepFaulty instead. Eviction callbacks run
// synchronously from inside the tick, before the operation proceeds.
func (pr *Process) faultTick() {
	if pr.flt != nil {
		pr.flt.Tick()
	}
}

// stepFaulty is the round dispatch under an active fault plan: one
// injector tick per round, then the policy's degraded round. Only the
// policies Validate admits for fault injection reach here.
func (pr *Process) stepFaulty(toPlace int) {
	pr.flt.Tick()
	switch pr.policy {
	case KDChoice, SerializedKD:
		pr.faultyRoundKD(toPlace)
	default:
		// Per-ball policies place one ball per round; decide() runs
		// decideFaulty under the plan.
		pr.ballDecide()
	}
}

// faultyRoundKD is one degraded (k,d) round: the d probes are censored
// through the plan (down bins and loss coins), the retry budget replaces
// lost probes, and the surviving probes are materialized as slots exactly
// as makeSlots does — except each bin's base load is its noisy reading.
// The toPlace lowest slots receive balls; balls beyond the surviving
// slots fall back to uniform up bins. SerializedKD degrades identically
// (σ only permutes the placement order within a round, which the
// degraded multiset rule subsumes; Validate pins σ fixed under a plan).
func (pr *Process) faultyRoundKD(toPlace int) {
	nonce := pr.roundPrologue()
	surv, probes := pr.survivors(pr.samples)
	if len(surv) < len(pr.samples) {
		pr.flt.Counters.Degraded++
	}
	srt := append(pr.fltSort[:0], surv...)
	sort.Ints(srt)
	pr.fltSort = srt
	slots := pr.fltSlots[:0]
	for i := 0; i < len(srt); {
		b := srt[i]
		j := i
		for j < len(srt) && srt[j] == b {
			j++
		}
		load := pr.store.Load(b) - pr.flt.Noise()
		if load < 0 {
			load = 0
		}
		for c := 1; c <= j-i; c++ {
			slots = append(slots, slot{bin: b, height: load + c, tie: tieKey(nonce, b, load+c)})
		}
		i = j
	}
	pr.fltSlots = slots
	sortSlots(slots)
	sel := slots
	if toPlace < len(sel) {
		sel = sel[:toPlace]
	}
	placed, heights := pr.beginObs(toPlace)
	j := 0
	for _, s := range sel {
		h := pr.place(s.bin)
		if placed != nil {
			placed[j], heights[j] = s.bin, h
		}
		j++
	}
	for ; j < toPlace; j++ {
		b := pr.flt.FallbackBin()
		probes++
		h := pr.place(b)
		if placed != nil {
			placed[j], heights[j] = b, h
		}
	}
	pr.messages += int64(probes)
	pr.notify(pr.samples, placed, heights)
}

// survivors censors a probe multiset through the plan and spends the
// retry budget replacing lost probes (replacement probes are subject to
// the same loss law and are not themselves replaced beyond the budget).
// It returns the surviving multiset (in pr.fltSamples) and the total
// probe messages issued.
func (pr *Process) survivors(samples []int) ([]int, int) {
	in := pr.flt
	surv := pr.fltSamples[:0]
	for _, b := range samples {
		if !in.LoseProbe(b) {
			surv = append(surv, b)
		}
	}
	probes := len(samples)
	budget := in.RetryBudget()
	for lost := len(samples) - len(surv); lost > 0 && budget > 0; budget-- {
		b := in.Retry()
		probes++
		if !in.LoseProbe(b) {
			surv = append(surv, b)
			lost--
		}
	}
	pr.fltSamples = surv
	return surv, probes
}

// decideFaulty is the degraded per-ball decision: the policy's probes
// are censored, retried, read with noise, and the decision proceeds over
// the survivors (DegradeD); a decision whose every probe is lost falls
// back to a uniform up bin. The main-stream draw pattern matches the
// fault-free decide wherever the policy's probes are drawn from it, so
// faulty serving runs are deterministic under any engine configuration.
func (pr *Process) decideFaulty() (bin, probes int) {
	pr.obsPairBuf = pr.obsPairBuf[:0]
	switch pr.policy {
	case DChoice:
		nonce := pr.roundPrologue()
		return pr.faultyPickFrom(pr.samples, nonce, 1)
	case CoarseDChoice:
		nonce := pr.roundPrologue()
		return pr.faultyPickFrom(pr.samples, nonce, pr.quantum())
	case ThresholdChoice:
		return pr.faultyThreshold()
	case OnePlusBeta:
		if pr.rng.Bernoulli(pr.p.Beta) {
			if d := pr.p.D; d > 2 {
				pr.rng.FillIntn(pr.samples, pr.n)
				nonce := pr.rng.Uint64()
				return pr.faultyPickFrom(pr.samples, nonce, 1)
			}
			pair := pr.fltPair[:2]
			pair[0] = pr.rng.Intn(pr.n)
			pair[1] = pr.rng.Intn(pr.n)
			nonce := pr.rng.Uint64()
			return pr.faultyPickFrom(pair, nonce, 1)
		}
		fallthrough
	default: // SingleChoice
		b := pr.rng.Intn(pr.n)
		probes = 1
		in := pr.flt
		if in.LoseProbe(b) {
			in.Counters.Degraded++
			ok := false
			for budget := in.RetryBudget(); budget > 0; budget-- {
				b = in.Retry()
				probes++
				if !in.LoseProbe(b) {
					ok = true
					break
				}
			}
			if !ok {
				b = in.FallbackBin()
				probes++
			}
		}
		pr.obsPair(b, -1)
		return b, probes
	}
}

// faultyPickFrom censors the given probe multiset, replaces lost probes
// from the retry budget, and returns the noisy-load argmin among the
// survivors — loads quantized by q (CoarseDChoice), ties broken by the
// keyed per-decision hash — plus the probes issued.
func (pr *Process) faultyPickFrom(samples []int, nonce uint64, q int) (int, int) {
	surv, probes := pr.survivors(samples)
	if len(surv) < len(samples) {
		pr.flt.Counters.Degraded++
	}
	if len(surv) == 0 {
		return pr.flt.FallbackBin(), probes + 1
	}
	best := -1
	bestLoad := 0
	var bestTie uint64
	for _, cand := range surv {
		load := pr.store.Load(cand) - pr.flt.Noise()
		if load < 0 {
			load = 0
		}
		load /= q
		tie := mix64(nonce ^ uint64(cand)*0x9e3779b97f4a7c15)
		if best == -1 || load < bestLoad || (load == bestLoad && tie < bestTie) {
			best, bestLoad, bestTie = cand, load, tie
		}
	}
	if pr.obs != nil {
		pr.obsPairBuf = append(pr.obsPairBuf[:0], surv...)
	}
	return best, probes
}

// faultyThreshold is the degraded O(1)-memory accept/reject scan: up to
// D sequential probes against the running ceiling, lost probes replaced
// from the retry budget (the replacement destination comes from the
// retry stream), noisy reads compared against the exact threshold. When
// no probe accepts, the ball lands in the last surviving bin; when every
// probe was lost, in a uniform up bin.
func (pr *Process) faultyThreshold() (int, int) {
	t := pr.store.Balls()/pr.n + 1
	in := pr.flt
	budget := in.RetryBudget()
	probes := 0
	last := -1
	survived := 0
	for i := 0; i < pr.p.D; i++ {
		b := pr.rng.Intn(pr.n)
		probes++
		if in.LoseProbe(b) {
			if budget > 0 {
				budget--
				b = in.Retry()
				probes++
				if in.LoseProbe(b) {
					continue
				}
			} else {
				continue
			}
		}
		survived++
		if pr.obs != nil {
			if cap(pr.obsPairBuf) < pr.p.D {
				pr.obsPairBuf = make([]int, len(pr.obsPairBuf), pr.p.D)
			}
			pr.obsPairBuf = append(pr.obsPairBuf, b)
		}
		load := pr.store.Load(b) - in.Noise()
		if load < 0 {
			load = 0
		}
		last = b
		if load < t {
			return b, probes
		}
	}
	if survived < pr.p.D {
		in.Counters.Degraded++
	}
	if last >= 0 {
		return last, probes
	}
	return in.FallbackBin(), probes + 1
}

// evictBin is the EvictRecover hook (Injector.OnFail): every live ball
// registered in the failing bin is re-placed through a degraded decision
// — down bins, including the failing one, are invisible to its probes —
// conserving total ball count and weight. Handles stay valid (the
// generation is untouched). Round-mode processes have no registry, so
// their balls stay pinned in down bins (documented; the serving layer is
// where eviction is meaningful).
func (pr *Process) evictBin(bin int) {
	for idx := range pr.ballBin {
		if pr.ballWt[idx] <= 0 || int(pr.ballBin[idx]) != bin {
			continue
		}
		pr.flt.Counters.Evictions++
		w := int(pr.ballWt[idx])
		pr.store.Sub(bin, w)
		nb, probes := pr.decideFaulty()
		pr.messages += int64(probes)
		pr.store.AddN(nb, w)
		pr.ballBin[idx] = int32(nb)
		pr.flt.Counters.Replacements++
	}
}
