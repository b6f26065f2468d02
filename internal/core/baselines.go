package core

// This file implements two of the baseline processes the paper positions
// (k,d)-choice against: Vöcking's Always-Go-Left and the SAx0 discard
// process from the paper's own lower-bound analysis (Definition 3). Single
// choice, d-choice (Azar et al.) and the (1+β) process (Peres et al.) place
// one ball per round through the serving layer's decide() (online.go), so
// Place and an insert-only stream share one decision.

// mix64 is the splitmix64 finalizer: a fast bijective mixer used to derive
// per-(round, bin) tie-break keys.
//
//kd:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ballAlwaysGoLeft places one ball following Vöcking's asymmetric scheme:
// the bins are split into d contiguous groups, one uniform sample is drawn
// from each group, and the ball goes to the least loaded sample with ties
// broken in favor of the leftmost group.
func (pr *Process) ballAlwaysGoLeft() {
	d := pr.p.D
	best := -1
	for g := 0; g < d; g++ {
		lo, hi := pr.groupStart[g], pr.groupStart[g+1]
		if lo == hi {
			continue // empty group (d > n cannot happen, but stay safe)
		}
		b := lo + pr.rng.Intn(hi-lo)
		pr.samples[g] = b
		if best == -1 || pr.store.Load(b) < pr.store.Load(best) {
			best = b // strict inequality: ties stay with the leftmost group
		}
	}
	h := pr.place(best)
	pr.messages += int64(d)
	if pr.obs != nil {
		pr.notify(pr.samples[:d], []int{best}, []int{h})
	}
}

// ballSAx0 runs one step of Definition 3's SAx0 process: the ball picks a
// uniformly random bin; if that bin ranks among the x0 most loaded (rank
// ties broken uniformly at random) the ball is discarded, otherwise it is
// placed. Rank computation uses the maintained load histogram, so each step
// costs O(max load).
func (pr *Process) ballSAx0() {
	b := pr.rng.Intn(pr.n)
	load := pr.store.Load(b)
	// Number of bins strictly more loaded than b.
	greater := 0
	for y := load + 1; y <= pr.store.MaxLoad(); y++ {
		greater += pr.loadCount[y]
	}
	equal := pr.loadCount[load]
	// The rank of b among the equally loaded bins is uniform.
	rank := greater + 1 + pr.rng.Intn(equal)
	pr.messages++
	if rank <= pr.p.X0 {
		pr.discarded++
		if pr.obs != nil {
			pr.notify([]int{b}, nil, nil)
		}
		return
	}
	pr.loadCount[load]--
	if load+1 >= len(pr.loadCount) {
		pr.loadCount = append(pr.loadCount, 0)
	}
	pr.loadCount[load+1]++
	h := pr.place(b)
	if pr.obs != nil {
		pr.notify([]int{b}, []int{b}, []int{h})
	}
}
