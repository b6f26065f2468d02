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
// Because every ball decides against the frozen round-start loads with no
// shared state, the decision phase is embarrassingly parallel: with
// Params.Shards > 1 (or 0 = auto on a multi-CPU host) the round runs as a
// one-round-wide superstep of the sharded engine (shard.go) — all
// randomness drawn serially up front in the exact serial order, then one
// gather-and-argmin phase over contiguous chunks of the round's balls on
// the persistent worker pool — so the sharded round is bit-identical to
// the serial one (pinned by TestStaleBatchShardedMatchesSerial, including
// under -race) and allocation-free in steady state. Placements are applied
// serially in ball order afterwards, exactly as in the serial path.
// StaleBatch is the one policy whose sharding is exact for any block size;
// the load-coupled round policies shard under the same engine with a
// within-block staleness tradeoff instead (see shard.go).

// The per-ball decision scan lives in kernel.go: kern.staleDecide for the
// serial store-reading path, argminLdv over the gathered snapshot for the
// sharded one — identical arithmetic, pinned by the equivalence tests.

// roundStaleBatch places toPlace balls, each with its own perBall probes
// judged against the stale round-start loads.
func (pr *Process) roundStaleBatch(toPlace int) {
	if pr.shard != nil && toPlace > 1 {
		pr.shard.staleRound(pr, toPlace)
		return
	}
	perBall := pr.p.D
	nonce := pr.rng.Uint64()
	placed, heights := pr.beginObs(toPlace)
	// Decide all destinations against stale loads first.
	if cap(pr.cands) < toPlace {
		pr.cands = make([]int, toPlace)
	}
	dests := pr.cands[:toPlace]
	for b := 0; b < toPlace; b++ {
		pr.rng.FillIntn(pr.samples[:perBall], pr.n)
		dests[b] = pr.kern.staleDecide(nonce, b, pr.samples[:perBall])
	}
	pr.applyStaleDests(dests, placed, heights)
}

// applyStaleDests commits the round's decisions in ball order (the
// round-synchronous update) and accounts messages. Unobserved rounds use
// the store-specific batch increment (dests is already the plain bin list
// BulkAdd wants); observed rounds record per-ball heights.
func (pr *Process) applyStaleDests(dests, placed, heights []int) {
	if placed == nil {
		pr.kern.bulkAdd(dests)
		pr.balls += len(dests)
	} else {
		for i, dst := range dests {
			h := pr.place(dst)
			placed[i] = dst
			heights[i] = h
		}
	}
	pr.messages += int64(len(dests)) * int64(pr.p.D)
	pr.notify(nil, placed, heights)
}
