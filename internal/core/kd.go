package core

// roundPrologue materializes the round's d samples into pr.samples and
// returns the round nonce: from the superstep engine's pre-drawn records
// when the policy has one, otherwise drawn directly — the identical
// FillIntn-then-nonce sequence either way.
func (pr *Process) roundPrologue() uint64 {
	if pr.eng != nil {
		r := pr.eng.next()
		pr.samples = r.samples // observers see the round's raw samples
		return r.nonce
	}
	pr.rng.FillIntn(pr.samples, pr.n)
	return pr.rng.Uint64()
}

// peekNext returns the next pre-drawn round's samples (nil when there is
// none; see roundEngine.peekNext): the prefetch target of the current
// round's selection.
//
//kd:hotpath
func (pr *Process) peekNext() []int {
	if pr.eng == nil {
		return nil
	}
	return pr.eng.peekNext()
}

// roundKD executes one round of the (k,d)-choice process, placing toPlace
// balls (toPlace = k except possibly in a final partial round).
//
// Implementation of the paper's disambiguated policy: the d samples are
// materialized as slots, where the i-th sample of bin b this round has
// height load(b)+i; the toPlace slots of minimum height survive, with ties
// between bins broken uniformly at random. Because same-bin slot heights
// are consecutive and distinct, the surviving slots of any bin always form
// a prefix of its slots, which is exactly the rule "a bin sampled m times
// receives at most m balls". Slot selection is delegated to the fast
// kernel (the empty-leader walk at light load, else one Store.Gather and
// the store-free ranking of select.go).
func (pr *Process) roundKD(toPlace int) {
	nonce := pr.roundPrologue()
	pr.placeSelected(pr.rankSelectWith(nonce, toPlace))
}

// roundKDFromSamples is roundKD with pr.samples already drawn; it is the
// seam that lets tests replay the paper's worked scenarios with fixed
// samples.
func (pr *Process) roundKDFromSamples(toPlace int) {
	pr.placeSelected(pr.rankSelect(toPlace))
}

// placeSelected commits the round's ranked slots and accounts the round.
func (pr *Process) placeSelected(sel []slot) {
	placed, heights := pr.placeSlots(sel)
	pr.messages += int64(pr.p.D)
	pr.notify(pr.samples, placed, heights)
}

// roundSerialized executes one round of Aσ(k,d) (Definition 1): the slots
// are ranked exactly as in roundKD, and the j-th ball of the round is placed
// into the slot of rank σ_r(j). The multiset of receiving bins is identical
// to roundKD under the same random draws; only the placement order (and so
// the per-ball height labels) differs — this is Property (i).
func (pr *Process) roundSerialized(toPlace int) {
	sel := pr.rankSelectWith(pr.roundPrologue(), toPlace)
	toPlace = len(sel)
	sigma := pr.sigmaBuf
	if pr.p.RandomSigma {
		for i := range sigma {
			sigma[i] = i
		}
		pr.rng.Shuffle(len(sigma), func(i, j int) { sigma[i], sigma[j] = sigma[j], sigma[i] })
	}
	placed, heights := pr.beginObs(toPlace)
	// In a partial round (toPlace < K) only ranks below toPlace exist; σ is
	// restricted to those values with its relative order preserved, which
	// keeps the placed rank set exactly {0..toPlace-1} as in roundKD.
	j := 0
	for _, rank := range sigma {
		if rank >= toPlace {
			continue
		}
		b := sel[rank].bin
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
	pr.messages += int64(pr.p.D)
	pr.notify(pr.samples, placed, heights)
}

// roundAdaptive executes one round of the Section 7 water-filling variant:
// d bins are sampled as usual, but the k balls are placed one at a time,
// each into the currently least-loaded DISTINCT sampled bin regardless of
// how many times it was sampled (ties broken uniformly at random). In the
// paper's (2,3) example with sampled loads {0,2,3} both balls land in the
// empty bin.
func (pr *Process) roundAdaptive(toPlace int) {
	pr.rng.FillIntn(pr.samples, pr.n)
	cands := pr.cands[:0]
	for _, b := range pr.samples {
		seen := false
		for _, c := range cands {
			if c == b {
				seen = true
				break
			}
		}
		if !seen {
			cands = append(cands, b)
		}
	}
	pr.cands = cands
	placed, heights := pr.beginObs(toPlace)
	for j := 0; j < toPlace; j++ {
		best := -1
		ties := 0
		for _, b := range cands {
			switch {
			case best == -1 || pr.store.Load(b) < pr.store.Load(best):
				best = b
				ties = 1
			case pr.store.Load(b) == pr.store.Load(best):
				// Reservoir sampling over ties keeps the choice uniform.
				ties++
				if pr.rng.Intn(ties) == 0 {
					best = b
				}
			}
		}
		h := pr.place(best)
		if placed != nil {
			placed[j] = best
			heights[j] = h
		}
	}
	pr.messages += int64(pr.p.D)
	pr.notify(pr.samples, placed, heights)
}

// beginObs returns per-round observation buffers (nil when no observer is
// installed, keeping the hot path allocation-free). The capacity miss is
// the one amortized allocation of the placement path; noinline keeps it
// out of the //kd:hotpath callers' bodies so scripts/escapecheck.sh can
// account escapes per function instead of chasing inlined copies.
//
//go:noinline
func (pr *Process) beginObs(toPlace int) (placed, heights []int) {
	if pr.obs == nil {
		return nil, nil
	}
	if cap(pr.obsPlaced) < toPlace {
		pr.obsPlaced = make([]int, toPlace)
		pr.obsHeights = make([]int, toPlace)
	}
	return pr.obsPlaced[:toPlace], pr.obsHeights[:toPlace]
}
