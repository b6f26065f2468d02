// Package core implements the paper's primary contribution — the
// (k,d)-choice allocation process — together with every allocation process
// the paper defines, uses in its analysis, or compares against:
//
//   - KDChoice: the (k,d)-choice process (Section 1.1). In each round d bins
//     are sampled independently and uniformly at random WITH replacement and
//     k < d balls are placed into the k least-loaded sampled bins, under the
//     disambiguation rule that a bin sampled m times receives at most m
//     balls. Operationally (and exactly as the paper reformulates it): d
//     conceptual balls are placed one per sample, and the d−k of maximal
//     height are removed.
//   - SerializedKD: Aσ(k,d), Definition 1 — the serialization of a round by
//     a permutation σ_r of {1..k}. Property (i) states Aσ ≡ A for every σ.
//   - DChoice: the classical multiple-choice process of Azar et al. (k = 1).
//   - SingleChoice: the classical single-choice process.
//   - OnePlusBeta: the (1+β)-choice process of Peres, Talwar and Wieder,
//     discussed by the paper as the other known single/multi mix.
//   - AlwaysGoLeft: Vöcking's asymmetric d-choice, a classical baseline.
//   - AdaptiveKD: the Section 7 future-work policy in which less-loaded
//     sampled bins may receive more balls than their sample multiplicity
//     (greedy water-filling over the distinct sampled bins).
//   - SAx0: Definition 3 — single choice where a ball landing in one of the
//     x0 most loaded bins is discarded; used by the paper's lower-bound
//     machinery and exposed here for completeness and testing.
//   - ThresholdChoice / CoarseDChoice: the limited-memory policies of
//     limited.go — O(1)-state sequential accept/reject and d-choice over
//     quantized loads — motivated by the choice-memory tradeoff literature
//     and designed to run on the approximate sketch store.
//
// All processes run over n bins, support m ≥ n balls (the heavily loaded
// case of Theorem 2), count message cost (number of bin probes, the paper's
// cost measure), and draw all randomness from an explicit *xrand.Rand so
// every run is reproducible.
//
// The bin-load state lives behind the loadvec.Store abstraction
// (Params.Store): the dense []int reference, the 2-bytes/bin compact store
// and the histogram-indexed store all produce bit-identical results for
// equal seeds, so production-scale runs (10⁷–10⁸ bins) can pick the memory
// layout without changing a single result. A round reads the store once,
// gathering its samples' loads with one Store.Gather call, and decides on
// those loads with store-free code shared by every engine (kernel.go);
// fixed-prologue round policies batch their randomness into supersteps of
// Params.Block rounds (bit-identical to drawing per round). Params.Shards
// engages the sharded superstep engine (shard.go): each superstep's
// randomness is pre-drawn in the serial stream order, the workers of a
// persistent pool claim the block's rounds from a shared cursor, each
// gathering its rounds' loads from the unchanging store and deciding them
// against that frozen snapshot, and placements apply serially in round
// order. Sharded results are bit-identical for ANY worker count (snapshot
// cells are positional, not scheduling-dependent); relative to the serial
// process they are bit-identical wherever the policy's semantics allow
// (StaleBatch and SingleChoice always; the load-coupled round policies at
// Block = 1) and diverge only by bounded within-block staleness otherwise.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// Policy identifies an allocation process.
type Policy int

// Supported allocation policies.
const (
	// KDChoice is the paper's (k,d)-choice process.
	KDChoice Policy = iota + 1
	// SerializedKD is Aσ(k,d) (Definition 1).
	SerializedKD
	// DChoice is the classical d-choice (greedy[d]) process.
	DChoice
	// SingleChoice is the classical 1-choice process.
	SingleChoice
	// OnePlusBeta is the (1+β)-choice process of Peres et al.
	OnePlusBeta
	// AlwaysGoLeft is Vöcking's asymmetric d-choice process.
	AlwaysGoLeft
	// AdaptiveKD is the Section 7 water-filling variant of (k,d)-choice.
	AdaptiveKD
	// SAx0 is the discard process of Definition 3.
	SAx0
	// StaleBatch is the parallel-allocation baseline: k balls per round,
	// each independently probing D bins and deciding against the
	// round-start loads with no information sharing (collisions possible).
	StaleBatch
	// DynamicKD adjusts k per round (Section 7 future work): every sampled
	// slot at or below the current ceiling floor(m/n)+1 receives a ball.
	DynamicKD
	// ThresholdChoice is the O(1)-memory accept/reject policy (limited.go):
	// up to D sequential probes, the ball accepting the first bin under the
	// running ceiling floor(balls/n)+1.
	ThresholdChoice
	// CoarseDChoice is d-choice over quantized loads (limited.go): the
	// argmin compares floor(load/Quantum), tolerating bounded sketch
	// overestimates. Quantum = 1 is bit-identical to DChoice.
	CoarseDChoice
)

var policyNames = map[Policy]string{
	KDChoice:        "kd",
	SerializedKD:    "kd-serialized",
	DChoice:         "dchoice",
	SingleChoice:    "single",
	OnePlusBeta:     "oneplusbeta",
	AlwaysGoLeft:    "alwaysgoleft",
	AdaptiveKD:      "kd-adaptive",
	SAx0:            "sax0",
	StaleBatch:      "stale-batch",
	DynamicKD:       "kd-dynamic",
	ThresholdChoice: "threshold",
	CoarseDChoice:   "dchoice-coarse",
}

// policyNotes carries the one-line memory/accuracy note printed next to
// each policy name in command help output.
var policyNotes = map[Policy]string{
	KDChoice:        "the paper's (k,d)-choice rounds",
	SerializedKD:    "Aσ(k,d), serialized round placement",
	DChoice:         "classical greedy[d] of Azar et al.",
	SingleChoice:    "classical 1-choice",
	OnePlusBeta:     "(1+β)-choice of Peres et al.",
	AlwaysGoLeft:    "Vöcking's asymmetric d-choice",
	AdaptiveKD:      "water-filling (k,d) variant",
	SAx0:            "Definition 3 discard process; needs an exact store",
	StaleBatch:      "parallel balls on round-start loads",
	DynamicKD:       "per-round adaptive k under the running ceiling",
	ThresholdChoice: "O(1)-memory accept/reject under the running ceiling",
	CoarseDChoice:   "d-choice on quantized loads; sketch-tolerant",
}

// String returns the canonical short name of the policy.
func (p Policy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// PolicyNames returns the canonical names of every supported policy in
// sorted order — the deterministic list used by error messages and command
// usage strings (policyNames is a map, so ranging it directly would print a
// different order on every run).
func PolicyNames() []string {
	names := make([]string, 0, len(policyNames))
	for _, n := range policyNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PolicyHelp returns one "name — note" line per policy in sorted name
// order, for command flag help.
func PolicyHelp() []string {
	lines := make([]string, 0, len(policyNames))
	for p, n := range policyNames {
		lines = append(lines, n+" — "+policyNotes[p])
	}
	sort.Strings(lines)
	return lines
}

// ParsePolicy converts a short name (as printed by Policy.String) back into
// a Policy. Unknown names list the valid policies in sorted order.
func ParsePolicy(s string) (Policy, error) {
	//kdlint:ordered policy names are unique, so the first (only) match is independent of iteration order
	for p, name := range policyNames {
		if name == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (valid: %s)", s, strings.Join(PolicyNames(), ", "))
}

// Params configures a process. Fields not used by the selected policy are
// ignored (but still validated when they are meaningful).
type Params struct {
	// N is the number of bins (required, >= 1).
	N int
	// K is the number of balls placed per round (KDChoice, SerializedKD,
	// AdaptiveKD).
	K int
	// D is the number of probes per round (KDChoice, SerializedKD,
	// AdaptiveKD, DChoice, AlwaysGoLeft).
	D int
	// Beta is the probability of probing a second bin (OnePlusBeta).
	Beta float64
	// X0 is the discard threshold of SAx0: a ball whose uniformly random
	// bin ranks among the X0 most loaded is discarded.
	X0 int
	// Sigma is the fixed serialization permutation of {0,..,K-1} used by
	// SerializedKD for every round. Nil means the identity permutation.
	Sigma []int
	// RandomSigma makes SerializedKD draw a fresh uniformly random σ_r each
	// round (overrides Sigma).
	RandomSigma bool
	// ReferenceSelect switches the round-based policies (KDChoice,
	// SerializedKD) to the reference sort-based slot-selection kernel
	// instead of the default O(d + k log k) counting kernel. Both kernels
	// consume the random stream identically and induce the same allocation
	// law (see select.go); the reference kernel exists as the oracle for
	// equivalence testing and debugging. It runs on the serial engine only:
	// Validate rejects it with Shards > 1.
	ReferenceSelect bool
	// Store selects the bin-load representation: the dense []int reference
	// (zero value), the compact 2-bytes/bin store with overflow escape,
	// the histogram-indexed store with O(1) occupancy statistics, the
	// exact ~0.5-bytes/bin nibble store, or the approximate count-min
	// sketch store. Every exact store produces bit-identical results for
	// equal seeds; the sketch store's loads are one-sided overestimates.
	Store loadvec.StoreKind
	// SketchWidth is the count-min row width of the sketch store (cells
	// per row, rounded up to a power of two). 0 auto-sizes to N/8. Ignored
	// by the other stores.
	SketchWidth int
	// SketchDepth is the count-min row count of the sketch store. 0
	// defaults to 2. Ignored by the other stores.
	SketchDepth int
	// Quantum is the load-bucket width of CoarseDChoice: the argmin
	// compares floor(load/Quantum). 0 defaults to 4; 1 reproduces DChoice
	// bit for bit. Ignored by the other policies.
	Quantum int
	// Block is the superstep size of the fixed-prologue round policies
	// (KDChoice, fixed-σ SerializedKD, DChoice, CoarseDChoice, DynamicKD):
	// rounds are pre-drawn in blocks of Block rounds — one bulk random
	// fill and one group-table epoch per round instead of per-round setup
	// — which is bit-identical to per-round drawing for any value. 0
	// auto-sizes the superstep (~4096 samples); explicit values must be
	// >= 1. Policies without a fixed prologue ignore Block.
	Block int
	// Shards engages the sharded superstep engine with this many workers:
	// each superstep's randomness is pre-drawn in the serial stream order
	// (KDChoice and fixed-σ SerializedKD draw the next block on worker 0
	// during the current decide phase), then in one parallel phase the
	// workers claim the block's rounds from a shared cursor, roundClaim at a
	// time (a StaleBatch round's balls in contiguous chunks), gather their
	// loads — the store is read-only until the phase ends, so every worker
	// sees the block-start loads — and decide them; placements then apply
	// serially in round order. Results are bit-identical across ANY shard
	// count >= 2 (which worker decides a round cannot reach the decision).
	// Relative to the serial process: StaleBatch and SingleChoice are
	// bit-identical always; KDChoice, fixed-σ SerializedKD, DChoice, and
	// CoarseDChoice are bit-identical at Block = 1 and otherwise see each
	// round's loads as of its block start (bounded within-block
	// staleness); OnePlusBeta shards under its own two-probe prologue
	// (D <= 2 only) and matches the serial law only in distribution.
	// Policies with data-dependent prologues (AdaptiveKD, DynamicKD,
	// random-σ SerializedKD, AlwaysGoLeft, SAx0) reject Shards > 1.
	//
	// 0 = auto: GOMAXPROCS workers for StaleBatch — whose sharding is
	// exact at any count — and serial for every other policy, so that an
	// auto-shard config can never change the allocation law between
	// hosts. Sharding a staleness-coupled policy is an explicit opt-in.
	Shards int
	// VecDims switches the process into vector-load mode when > 0: every
	// bin carries a VecDims-component []float64 load vector, balls arrive
	// through InsertVec with a weight vector each, and placement decisions
	// compare the bins' aggregated loads under VecNorm. Vector mode is an
	// online-serving mode: only the per-ball policies (SingleChoice,
	// DChoice, OnePlusBeta) support it, and the scalar round entry points
	// (Place, Round) reject it.
	VecDims int
	// VecNorm is the aggregation norm of vector mode (zero value: the
	// bottleneck-resource max-component norm, loadvec.NormLInf).
	VecNorm loadvec.Norm
	// Faults attaches a deterministic fault-injection plan (faults.go):
	// seeded bin outages with recovery, per-probe loss, bounded read
	// noise, and the graceful-degradation policies (retry / degrade-d /
	// evict-recover). Nil or empty means no faults — bit-identical to a
	// process built without the field, at zero extra cost. A non-empty
	// plan forces serial decisions: results are then bit-identical for
	// ANY Shards/Block setting. Supported by the (k,d) round family (kd,
	// fixed-σ kd-serialized) and the per-ball serving family (single,
	// dchoice, dchoice-coarse, oneplusbeta, threshold), scalar mode only.
	Faults *faults.Plan
}

// faultsActive reports whether p carries a non-empty fault plan.
func faultsActive(p Params) bool {
	return p.Faults != nil && !p.Faults.Empty()
}

// Observer receives a callback after every round. It is intended for tests
// and instrumentation; the hot path skips all bookkeeping when no observer
// is installed.
type Observer interface {
	// RoundPlaced reports the 1-based round number, the sampled bin ids (in
	// the order drawn, length d for round-based policies), the bins that
	// received balls (one entry per placed ball), and the height at which
	// each ball landed.
	RoundPlaced(round int, samples, placed, heights []int)
}

// Process is a single allocation process instance. Construct with New; the
// zero value is not usable. A Process is not safe for concurrent use.
type Process struct {
	policy Policy
	p      Params
	rng    *xrand.Rand
	eng    *roundEngine // superstep engine (fixed-prologue policies)

	store     loadvec.Store
	n         int
	balls     int
	messages  int64
	discarded int
	rounds    int

	obs Observer

	// Reused per-round buffers (never escape a round).
	samples  []int
	sortBuf  []int // bin-sorted copy of samples (reference kernel)
	slots    []slot
	ldv      []int // per-sample loads (kernel gather pass)
	sigmaBuf []int
	cands    []int // distinct candidate bins (AdaptiveKD) / dests (StaleBatch)

	// selsc is the process's serial selection lane (select.go): a small
	// epoch-stamped open-addressed hash table groups the d samples by bin
	// in O(d) space — no O(n) scratch, which is what keeps the compact
	// store's bytes/bin budget intact at 10⁸ bins. The sharded superstep
	// engine gives every worker its own selector instead.
	selsc   *selector
	binsBuf []int // receiving-bin scratch for batch placement

	// pfBase and pfBits are the prefetch view of the store's load array
	// (prefetchView): a nil pfBase turns the next-round prefetch off.
	pfBase unsafe.Pointer
	pfBits uint

	// shard is the sharded superstep engine (shard.go), non-nil when the
	// effective shard count is >= 2: the decision phase of every
	// fixed-prologue round fans out over a persistent worker pool while
	// randomness stays serially pre-drawn and placements apply serially.
	shard *shardEngine

	// StaleBatch sharded rounds: all k·D samples of a round, drawn up
	// front so the decision phase is read-only.
	shardBuf []int

	// SAx0 bookkeeping: loadCount[y] = number of bins with load exactly y.
	loadCount []int

	// Online-serving state (online.go). The ball registry is lazily
	// allocated on the first Insert and recycled through a free list, so a
	// steady-state churn workload allocates nothing per operation. A slot's
	// generation increments on delete, which invalidates every outstanding
	// handle to it.
	ballBin  []int32
	ballWt   []int32
	ballGen  []uint32
	ballVec  []float64 // flat live weight vectors (vector mode), dims per slot
	ballFree []int32
	live     int

	// vec is the multidimensional bin state of vector-load mode (nil in
	// scalar mode); the scalar store stays empty alongside it.
	vec *loadvec.VecStore

	// curOp and curWeight describe the operation behind the most recent
	// observer notification: the public bridge reads them synchronously
	// from inside the callback. One-shot rounds leave curWeight 0, meaning
	// "one unit per placed ball".
	curOp     Op
	curWeight int

	// AlwaysGoLeft group boundaries: group g covers
	// [groupStart[g], groupStart[g+1]).
	groupStart []int

	obsPlaced  []int
	obsHeights []int
	obsPairBuf []int // 1-2 sampled bins of a per-ball online decision

	// flt is the fault injector (faults.go), non-nil only when a
	// non-empty Params.Faults plan is attached. Every fault hook on the
	// hot path is guarded by a flt == nil check, so no-plan processes pay
	// nothing. The flt* slices are the degraded paths' pre-allocated
	// scratch (probe survivors, their sorted copy, the degraded slot
	// list, the two-probe pair).
	flt        *faults.Injector
	fltSamples []int
	fltSort    []int
	fltSlots   []slot
	fltPair    []int
}

// slot is one conceptual ball of a round: the i-th sample of bin b this
// round lands at height load(b)+i. tie implements uniform random
// tie-breaking between equal heights in different bins (equal heights can
// never occur within one bin).
type slot struct {
	bin    int
	height int
	tie    uint64
}

// New validates params and returns a ready process with all-empty bins.
func New(policy Policy, p Params, rng *xrand.Rand) (*Process, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: nil rng")
	}
	if err := Validate(policy, p); err != nil {
		return nil, err
	}
	var store loadvec.Store
	var err error
	if p.Store == loadvec.StoreSketch {
		// The sketch store is the one kind with geometry parameters.
		store, err = loadvec.NewSketch(p.N, p.SketchWidth, p.SketchDepth)
	} else {
		store, err = loadvec.NewStore(p.Store, p.N)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	pr := &Process{
		policy: policy,
		p:      p,
		rng:    rng,
		store:  store,
		n:      p.N,
	}
	pr.pfBase, pr.pfBits = prefetchView(store)
	if faultsActive(p) {
		// The injector's streams are split off the root stream WITHOUT
		// advancing it.
		pr.flt = faults.NewInjector(*p.Faults, p.N, rng)
		if p.Faults.Evict {
			pr.flt.OnFail = pr.evictBin
		}
		width := p.D + p.Faults.Retry
		if width < 2 {
			width = 2
		}
		pr.fltSamples = make([]int, 0, width)
		pr.fltSort = make([]int, 0, width)
		pr.fltSlots = make([]slot, 0, width)
		pr.fltPair = make([]int, 2)
	}
	shards := effectiveShards(policy, p)
	if shards > 1 {
		// Sharded superstep engine: randomness stays serially pre-drawn (a
		// round engine for the fixed-d policies, pr.rng for the rest) and
		// the decision phase fans out over a persistent worker pool.
		pr.shard = newShardEngine(policy, p, rng, shards, store)
	} else if blockEligible(policy, p) {
		// Fixed round prologue: pre-draw whole supersteps of rounds from
		// the shared pr.rng.
		pr.eng = newRoundEngine(rng, p.N, p.D, blockRounds(p.D, p.Block))
	}
	if d := p.D; d > 0 {
		pr.samples = make([]int, d)
		pr.sortBuf = make([]int, d)
		pr.slots = make([]slot, 0, d)
		pr.ldv = make([]int, d)
	}
	if policy == KDChoice || policy == SerializedKD {
		pr.selsc = newSelector(p.D)
		pr.binsBuf = make([]int, 0, p.D)
	}
	if policy == SerializedKD {
		pr.sigmaBuf = make([]int, p.K)
		if p.Sigma != nil {
			copy(pr.sigmaBuf, p.Sigma)
		} else {
			for i := range pr.sigmaBuf {
				pr.sigmaBuf[i] = i
			}
		}
	}
	if policy == AdaptiveKD {
		pr.cands = make([]int, 0, p.D)
	}
	if policy == StaleBatch {
		pr.cands = make([]int, p.K)
		if shards > 1 {
			pr.shardBuf = make([]int, p.K*p.D)
		}
	}
	if policy == SAx0 {
		pr.loadCount = make([]int, 8)
		pr.loadCount[0] = p.N
	}
	if p.VecDims > 0 {
		vs, err := loadvec.NewVecStore(p.N, p.VecDims, p.VecNorm)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		pr.vec = vs
	}
	if policy == AlwaysGoLeft {
		pr.groupStart = make([]int, p.D+1)
		base, rem := p.N/p.D, p.N%p.D
		pos := 0
		for g := 0; g < p.D; g++ {
			pr.groupStart[g] = pos
			pos += base
			if g < rem {
				pos++
			}
		}
		pr.groupStart[p.D] = p.N
	}
	return pr, nil
}

// groupTableSize returns the power-of-two hash-table size for grouping d
// samples: at most quarter full, so linear probing almost never collides
// (the table is a few KB regardless — epoch stamping means it is never
// cleared, so a larger table costs nothing per round).
func groupTableSize(d int) int {
	size := 8
	for size < 4*d {
		size *= 2
	}
	return size
}

// Validate checks policy and params exactly as New does, without allocating
// a process. It lets batch schedulers reject a bad configuration up front —
// even one with a large N — before spinning up workers.
func Validate(policy Policy, p Params) error {
	if p.N < 1 {
		return fmt.Errorf("core: N = %d, need N >= 1", p.N)
	}
	if p.N > math.MaxInt32 {
		return fmt.Errorf("core: N = %d exceeds the supported maximum %d", p.N, math.MaxInt32)
	}
	switch p.Store {
	case loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreHist, loadvec.StoreNibble, loadvec.StoreSketch:
	default:
		return fmt.Errorf("core: unknown store %d (valid: %s)", int(p.Store), strings.Join(loadvec.StoreNames(), ", "))
	}
	if p.SketchWidth < 0 {
		return fmt.Errorf("core: SketchWidth = %d, must be non-negative", p.SketchWidth)
	}
	if p.SketchDepth < 0 || p.SketchDepth > 8 {
		return fmt.Errorf("core: SketchDepth = %d, must be in [0, 8] (0 = default)", p.SketchDepth)
	}
	if p.Quantum < 0 {
		return fmt.Errorf("core: Quantum = %d, must be non-negative (0 = default %d)", p.Quantum, defaultQuantum)
	}
	if policy == SAx0 && p.Store == loadvec.StoreSketch {
		// SAx0's rank bookkeeping (loadCount) indexes by true loads; sketch
		// estimates would desynchronize (and can exceed) it.
		return fmt.Errorf("core: SAx0 requires an exact store, got %v (its load-rank bookkeeping breaks under approximate loads)", p.Store)
	}
	if p.ReferenceSelect && p.Shards > 1 && (policy == KDChoice || policy == SerializedKD) {
		// The sharded decide lane ranks with the counting kernel only;
		// accepting the pair would silently run that kernel instead.
		return fmt.Errorf("core: ReferenceSelect runs on the serial engine only; got Shards = %d (use Shards <= 1 with ReferenceSelect)", p.Shards)
	}
	if p.Shards < 0 {
		return fmt.Errorf("core: Shards = %d, must be non-negative", p.Shards)
	}
	if p.Block < 0 {
		return fmt.Errorf("core: Block = %d, must be >= 1 (or 0 for the auto-sized superstep)", p.Block)
	}
	if p.Block > 0 && blockEligible(policy, p) {
		// A superstep buffers Block*D samples; reject sizes that could
		// only end in an opaque allocation failure. The product is what
		// matters, so the cap scales down with D. Policies without a fixed
		// prologue never allocate a superstep, so Block stays ignored there.
		d := p.D
		if d < 1 {
			d = 1
		}
		if p.Block > maxBlockSamples/d {
			return fmt.Errorf("core: Block = %d with D = %d exceeds the supported superstep size (%d samples)", p.Block, p.D, maxBlockSamples)
		}
	}
	if p.Shards > 1 {
		if !shardEligible(policy, p) {
			return fmt.Errorf("core: Shards > 1 requires a fixed-prologue policy (kd, fixed-σ kd-serialized, dchoice, dchoice-coarse, single, oneplusbeta, stale-batch); %v rounds cannot be pre-drawn", policy)
		}
		if policy == OnePlusBeta && p.D > 2 {
			// The sharded prologue draws two probes per ball, which matches
			// neither the serial D-probe law nor the classical two-probe one.
			return fmt.Errorf("core: Shards = %d with oneplusbeta D = %d: the sharded (1+β) engine probes two bins, so Shards > 1 requires D <= 2", p.Shards, p.D)
		}
		if p.VecDims > 0 {
			return fmt.Errorf("core: Shards > 1 is a round-mode knob; vector-load mode places per ball and cannot shard")
		}
		if p.Block > 0 && !blockEligible(policy, p) && policy != StaleBatch {
			// SingleChoice / OnePlusBeta supersteps buffer Block rounds of
			// width 1 / 2; apply the same product cap as the block engine.
			d := shardDrawWidth(policy)
			if p.Block > maxBlockSamples/d {
				return fmt.Errorf("core: Block = %d with sharded %v exceeds the supported superstep size (%d samples)", p.Block, policy, maxBlockSamples)
			}
		}
	}
	if p.VecDims < 0 {
		return fmt.Errorf("core: VecDims = %d, must be non-negative", p.VecDims)
	}
	if faultsActive(p) {
		if err := p.Faults.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		switch policy {
		case KDChoice, SerializedKD, DChoice, SingleChoice, OnePlusBeta, ThresholdChoice, CoarseDChoice:
		default:
			return fmt.Errorf("core: fault injection supports kd, kd-serialized, dchoice, dchoice-coarse, single, oneplusbeta and threshold; %v has no degraded path", policy)
		}
		if p.VecDims > 0 {
			return fmt.Errorf("core: fault injection is scalar-mode only (degraded vector-load decisions are not defined)")
		}
		if policy == SerializedKD && p.RandomSigma {
			return fmt.Errorf("core: fault injection requires a fixed σ for kd-serialized (the degraded round subsumes the placement order)")
		}
		if p.Faults.Evict && !onlineEligible(policy) {
			return fmt.Errorf("core: faults clause \"evict\" requires an online-serving policy (single, dchoice, oneplusbeta, threshold, dchoice-coarse); %v does not register balls", policy)
		}
	}
	if p.VecDims > 0 {
		if !vecEligible(policy) {
			return fmt.Errorf("core: vector-load mode requires a per-ball policy of the (1+β) family (single, dchoice, oneplusbeta), got %v", policy)
		}
		switch p.VecNorm {
		case loadvec.NormLInf, loadvec.NormL1, loadvec.NormL2:
		default:
			return fmt.Errorf("core: unknown norm %d (valid: %s)", int(p.VecNorm), strings.Join(loadvec.NormNames(), ", "))
		}
	}
	switch policy {
	case KDChoice, SerializedKD, AdaptiveKD:
		if p.K < 1 {
			return fmt.Errorf("core: %v requires K >= 1, got %d", policy, p.K)
		}
		if p.D <= p.K {
			return fmt.Errorf("core: %v requires D > K, got K=%d D=%d", policy, p.K, p.D)
		}
		if p.D > p.N {
			return fmt.Errorf("core: %v requires D <= N, got D=%d N=%d", policy, p.D, p.N)
		}
		if policy == SerializedKD && !p.RandomSigma && p.Sigma != nil {
			if err := checkPermutation(p.Sigma, p.K); err != nil {
				return err
			}
		}
	case DynamicKD:
		if p.D < 2 {
			return fmt.Errorf("core: DynamicKD requires D >= 2, got %d", p.D)
		}
		if p.D > p.N {
			return fmt.Errorf("core: DynamicKD requires D <= N, got D=%d N=%d", p.D, p.N)
		}
	case DChoice, AlwaysGoLeft, ThresholdChoice, CoarseDChoice:
		if p.D < 1 {
			return fmt.Errorf("core: %v requires D >= 1, got %d", policy, p.D)
		}
		if p.D > p.N {
			return fmt.Errorf("core: %v requires D <= N, got D=%d N=%d", policy, p.D, p.N)
		}
	case StaleBatch:
		if p.K < 1 {
			return fmt.Errorf("core: StaleBatch requires K >= 1, got %d", p.K)
		}
		if p.D < 1 {
			return fmt.Errorf("core: StaleBatch requires D >= 1 probes per ball, got %d", p.D)
		}
		if p.D > p.N {
			return fmt.Errorf("core: StaleBatch requires D <= N, got D=%d N=%d", p.D, p.N)
		}
	case SingleChoice:
		// No extra parameters.
	case OnePlusBeta:
		if p.Beta < 0 || p.Beta > 1 {
			return fmt.Errorf("core: OnePlusBeta requires Beta in [0,1], got %v", p.Beta)
		}
		if p.D < 0 {
			return fmt.Errorf("core: OnePlusBeta requires D >= 0 probes, got %d", p.D)
		}
	case SAx0:
		if p.X0 < 0 || p.X0 > p.N {
			return fmt.Errorf("core: SAx0 requires X0 in [0,N], got X0=%d N=%d", p.X0, p.N)
		}
	default:
		return fmt.Errorf("core: unknown policy %d", int(policy))
	}

	return nil
}

func checkPermutation(sigma []int, k int) error {
	if len(sigma) != k {
		return fmt.Errorf("core: Sigma has length %d, want K=%d", len(sigma), k)
	}
	seen := make([]bool, k)
	for _, v := range sigma {
		if v < 0 || v >= k || seen[v] {
			return fmt.Errorf("core: Sigma %v is not a permutation of 0..%d", sigma, k-1)
		}
		seen[v] = true
	}
	return nil
}

// MustNew is New but panics on error; intended for tests and examples with
// constant parameters.
func MustNew(policy Policy, p Params, rng *xrand.Rand) *Process {
	pr, err := New(policy, p, rng)
	if err != nil {
		panic(err)
	}
	return pr
}

// Close stops the sharded engine's worker goroutines (Params.Shards >= 2).
// It is a no-op for serial processes and is idempotent. A closed process
// stays fully usable: a sharded process then runs every worker's share of
// a superstep on the calling goroutine, with unchanged results.
func (pr *Process) Close() {
	if pr.shard != nil {
		pr.shard.Close()
	}
}

// SetObserver installs (or removes, with nil) the round observer.
func (pr *Process) SetObserver(o Observer) { pr.obs = o }

// Policy returns the process policy.
func (pr *Process) Policy() Policy { return pr.policy }

// Params returns the process parameters (Sigma is not copied; treat as
// read-only).
func (pr *Process) Params() Params { return pr.p }

// N returns the number of bins.
func (pr *Process) N() int { return pr.n }

// Balls returns the number of balls placed so far (discarded balls in SAx0
// are not counted as placed).
func (pr *Process) Balls() int { return pr.balls }

// Rounds returns the number of completed rounds.
func (pr *Process) Rounds() int { return pr.rounds }

// Messages returns the cumulative message cost: the number of bin probes
// issued, the cost measure of the paper.
func (pr *Process) Messages() int64 { return pr.messages }

// Discarded returns the number of balls discarded by the SAx0 policy (zero
// for all other policies).
func (pr *Process) Discarded() int { return pr.discarded }

// MaxLoad returns the current maximum bin load (O(1) on every store).
func (pr *Process) MaxLoad() int { return pr.store.MaxLoad() }

// Load returns the load of the bin with the given id.
func (pr *Process) Load(bin int) int { return pr.store.Load(bin) }

// Store returns the process's bin-load store (read-only access; mutating
// it directly desynchronizes the process counters).
func (pr *Process) Store() loadvec.Store { return pr.store }

// Loads returns a copy of the load vector indexed by bin id.
func (pr *Process) Loads() loadvec.Vector {
	return pr.store.Vector()
}

// Gap returns max load minus average load. Both terms are measured in load
// units (store totals), so the reading stays correct under weighted balls
// and deletions; for unweighted one-shot runs it coincides with the
// ball-count definition.
func (pr *Process) Gap() float64 {
	return float64(pr.store.MaxLoad()) - float64(pr.store.Balls())/float64(pr.n)
}

// NuY returns ν_y, the number of bins with at least y balls. On the
// histogram store this never scans the bins.
func (pr *Process) NuY(y int) int { return pr.store.NuY(y) }

// setLoads overwrites the per-bin loads, keeping the store's aggregate
// bookkeeping consistent and syncing the ball counter. It is the seam the
// scenario tests use to start a round from a prescribed load vector.
func (pr *Process) setLoads(loads []int) {
	for b, v := range loads {
		pr.store.Set(b, v)
	}
	pr.balls = pr.store.Balls()
}

// Reset restores all bins to empty and zeroes the counters, dropping every
// live ball (outstanding handles stop resolving). The random stream is NOT
// rewound; reuse the process for an independent run.
func (pr *Process) Reset() {
	pr.store.Reset()
	pr.balls = 0
	pr.messages = 0
	pr.discarded = 0
	pr.rounds = 0
	pr.ballBin = pr.ballBin[:0]
	pr.ballWt = pr.ballWt[:0]
	pr.ballGen = pr.ballGen[:0]
	pr.ballVec = pr.ballVec[:0]
	pr.ballFree = pr.ballFree[:0]
	pr.live = 0
	pr.curOp, pr.curWeight = OpInsert, 0
	if pr.vec != nil {
		pr.vec.Reset()
	}
	if pr.policy == SAx0 {
		for i := range pr.loadCount {
			pr.loadCount[i] = 0
		}
		pr.loadCount[0] = pr.n
	}
	if pr.shard != nil {
		// Decisions buffered against the pre-reset loads are stale;
		// re-decide the rest of the window against the fresh bins. The
		// drawn randomness is kept (the stream is not rewound).
		pr.shard.invalidate()
	}
	if pr.flt != nil {
		// All bins come back up and the fault counters zero; like the
		// main stream, the fault streams are not rewound.
		pr.flt.Reset()
	}
}

// RoundSize returns the number of balls a full round places: K for the
// round-based policies and 1 for the per-ball policies.
func (pr *Process) RoundSize() int {
	switch pr.policy {
	case KDChoice, SerializedKD, AdaptiveKD, StaleBatch:
		return pr.p.K
	default:
		return 1
	}
}

// Round executes one full round (RoundSize balls; an SAx0 round may discard
// its ball; a DynamicKD round places a data-dependent number of balls up to
// d).
func (pr *Process) Round() {
	if pr.policy == DynamicKD {
		pr.rounds++
		pr.roundDynamic(pr.p.D)
		return
	}
	pr.step(pr.RoundSize())
}

// Place runs the process until m additional balls have been placed. For the
// round-based policies a final partial round (fewer than K balls, still
// probing D bins) is used when K does not divide m, mirroring the paper's
// convention that k divides n while still supporting arbitrary m for the
// heavily loaded case. For SAx0, m counts attempted balls (discards count
// as attempts).
func (pr *Process) Place(m int) {
	if m < 0 {
		panic("core: Place with negative ball count")
	}
	if pr.policy == DynamicKD {
		// The round size adapts; each round reports how many balls it
		// actually placed (at least one).
		for m > 0 {
			pr.rounds++
			m -= pr.roundDynamic(m)
		}
		return
	}
	size := pr.RoundSize()
	for m > 0 {
		batch := size
		if m < batch {
			batch = m
		}
		pr.step(batch)
		m -= batch
	}
}

// step executes one round placing toPlace balls (1 <= toPlace <= RoundSize).
func (pr *Process) step(toPlace int) {
	if pr.vec != nil {
		panic("core: scalar rounds on a vector-load process; use InsertVec")
	}
	pr.rounds++
	if pr.flt != nil {
		// Degraded rounds are always serial (effectiveShards forces the
		// serial engine whenever a plan is active).
		pr.stepFaulty(toPlace)
		return
	}
	if pr.shard != nil && pr.policy != StaleBatch {
		// Sharded superstep engine: decisions were (or will be) made in
		// parallel for the whole block; apply this round's serially.
		// StaleBatch keeps its own dispatch below — its superstep is one
		// round wide and runs gather + decide phases on the same pool.
		pr.shard.step(pr, toPlace)
		return
	}
	switch pr.policy {
	case KDChoice:
		pr.roundKD(toPlace)
	case SerializedKD:
		pr.roundSerialized(toPlace)
	case AdaptiveKD:
		pr.roundAdaptive(toPlace)
	case StaleBatch:
		pr.roundStaleBatch(toPlace)
	case AlwaysGoLeft:
		pr.ballAlwaysGoLeft()
	case SAx0:
		pr.ballSAx0()
	default: // the per-ball serving family (onlineEligible)
		pr.ballDecide()
	}
}

// ballDecide places one ball of a per-ball policy (single, dchoice,
// oneplusbeta, threshold, dchoice-coarse) by the same decide() an Insert
// makes, which is what keeps an insert-only stream bit-identical to Place;
// under a fault plan decide() runs the degraded decision.
func (pr *Process) ballDecide() {
	bin, probes := pr.decide()
	h := pr.place(bin)
	pr.messages += int64(probes)
	placed, heights := pr.beginObs(1)
	if placed != nil {
		placed[0], heights[0] = bin, h
	}
	pr.notify(pr.obsSamples(), placed, heights)
}

// place adds one ball to bin b and returns its height (the bin's load after
// placement).
func (pr *Process) place(b int) int {
	h := pr.store.Add(b)
	pr.balls++
	return h
}

// notify reports a finished round to the observer, if any.
func (pr *Process) notify(samples, placed, heights []int) {
	if pr.obs == nil {
		return
	}
	pr.obs.RoundPlaced(pr.rounds, samples, placed, heights)
}
