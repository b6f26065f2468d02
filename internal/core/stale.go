package core

// StaleBatch is the parallel-allocation counterpoint to (k,d)-choice: the
// k balls of a round probe INDEPENDENTLY (PerBallD probes each) and every
// ball commits to the least loaded of its own probes as of the START of
// the round — no information is shared between the balls, and loads update
// only after all k have decided. This is the round-synchronous model of
// the parallel balanced-allocation literature the paper contrasts with
// (Adler et al., Stemann; the paper's references [1, 16]): collisions are
// possible, and the paper's point is precisely that sharing one probe
// batch across the k balls avoids them.
//
// Message cost is k·PerBallD per round; to compare against A(k,d) at equal
// budget choose PerBallD = d/k.
//
// Because every ball decides against the frozen round-start loads, a round
// reads all of its probes in one pass: it draws the nonce, then every
// ball's samples with one FillIntn (the same words as one fill per ball),
// gathers their loads with one Store.Gather, and takes each ball's argmin
// (argminLdv, kernel.go) over its own D-wide slice of the snapshot. The
// round runs on the serial engine only, and Validate rejects Shards >= 2:
// a one-round superstep would pay a pool barrier for every k balls, and
// the one gather already reads every probe of the round at once.

// roundStaleBatch places toPlace balls, each with its own D probes judged
// against the stale round-start loads, then commits the decisions in ball
// order (the round-synchronous update). Unobserved rounds use the store's
// batch increment (dests is already the plain bin list BulkAdd wants);
// observed rounds record per-ball heights.
func (pr *Process) roundStaleBatch(toPlace int) {
	d := pr.p.D
	nonce := pr.rng.Uint64()
	samples := pr.samples[:toPlace*d]
	ldv := pr.ldv[:toPlace*d]
	pr.rng.FillIntn(samples, pr.n)
	pr.store.Gather(samples, ldv)
	dests := pr.cands[:toPlace]
	for b := range dests {
		dests[b] = argminLdv(samples[b*d:(b+1)*d], ldv[b*d:(b+1)*d], nonce, b)
	}
	placed, heights := pr.beginObs(toPlace)
	if placed == nil {
		pr.store.BulkAdd(dests)
		pr.balls += toPlace
	} else {
		for i, dst := range dests {
			placed[i] = dst
			heights[i] = pr.place(dst)
		}
	}
	pr.messages += int64(toPlace) * int64(d)
	pr.notify(nil, placed, heights)
}
