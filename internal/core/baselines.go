package core

// This file implements the classical baseline processes the paper positions
// (k,d)-choice against: single choice, d-choice (Azar et al.), the (1+β)
// process (Peres et al.), Vöcking's Always-Go-Left, and the SAx0 discard
// process from the paper's own lower-bound analysis (Definition 3).

// ballSingle places one ball into a bin chosen uniformly at random.
func (pr *Process) ballSingle() {
	b := pr.rng.Intn(pr.n)
	h := pr.place(b)
	pr.messages++
	if pr.obs != nil {
		pr.notify([]int{b}, []int{b}, []int{h})
	}
}

// ballDChoice places one ball into the least loaded of d uniform samples
// (with replacement), ties broken uniformly at random among the DISTINCT
// sampled bins. This is greedy[d] of Azar, Broder, Karlin and Upfal, and is
// distributionally identical to (k,d)-choice with k = 1; it is implemented
// independently so the two can cross-validate each other.
//
// Tie-breaking uses a per-round keyed hash of the bin id, which gives every
// distinct bin exactly one uniform lottery ticket even when it is sampled
// several times, in O(d) per ball.
func (pr *Process) ballDChoice() {
	nonce := pr.roundPrologue()
	best := pr.kern.staleDecide(nonce, 0, pr.samples)
	h := pr.place(best)
	pr.messages += int64(pr.p.D)
	if pr.obs != nil {
		pr.notify(pr.samples, []int{best}, []int{h})
	}
}

// mix64 is the splitmix64 finalizer: a fast bijective mixer used to derive
// per-(round, bin) tie-break keys.
//
//kd:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ballOnePlusBeta places one ball following the (1+β)-choice process: with
// probability β the ball goes to the lesser loaded of two uniform samples,
// otherwise to a single uniform sample.
func (pr *Process) ballOnePlusBeta() {
	if pr.rng.Bernoulli(pr.p.Beta) {
		a := pr.rng.Intn(pr.n)
		b := pr.rng.Intn(pr.n)
		pr.messages += 2
		best := a
		la, lb := pr.store.Load(a), pr.store.Load(b)
		if lb < la || (lb == la && pr.rng.Bool()) {
			best = b
		}
		h := pr.place(best)
		if pr.obs != nil {
			pr.notify([]int{a, b}, []int{best}, []int{h})
		}
		return
	}
	pr.ballSingle()
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
