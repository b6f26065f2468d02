// Package kdchoice is a library for the (k,d)-choice balanced-allocation
// process and its classical relatives, reproducing "A Generalization of
// Multiple Choice Balls-into-Bins: Tight Bounds" (Gahyun Park; brief
// announcement in PODC'11, full version arXiv:1201.3310).
//
// In the (k,d)-choice process, n balls are placed into n bins over n/k
// rounds: each round samples d bins independently and uniformly at random
// (with replacement) and places k < d balls into the k least-loaded sampled
// bins, where a bin sampled m times receives at most m balls. Choosing k
// and d trades maximum load against message cost (total bins probed):
//
//   - d = 2k with k = Θ(polylog n): constant maximum load at 2n messages;
//   - d − k = Θ(ln n) with k ≥ Θ(ln² n): o(ln ln n) maximum load at
//     (1+o(1))n messages;
//   - k = 1: the classical d-choice of Azar et al.;
//   - k = d−1 with large d: approaches classical single choice.
//
// The package is organized in four layers:
//
//   - Process: Allocator runs one allocation process instance (New, NewKD,
//     Place, Round, MaxLoad, Gap, Messages, ...), alongside the paper's
//     theoretical bound terms (Dk, PredictMaxLoad, Regime, ...).
//   - Observers: Attach streams a RoundEvent to any number of Observer
//     implementations after every round. HeightRecorder reconstructs the
//     occupancy statistics ν_y/µ_y from the height stream, and
//     TimeSeriesRecorder records the per-round max-load/gap/message
//     trajectory. Unobserved allocators pay no instrumentation cost.
//   - Experiments: Experiment runs many cells × runs on one shared bounded
//     worker pool with deterministic per-(cell,run) random streams; Sweep
//     builds experiment cells over a (N, K, D, Policy) grid; Report carries
//     the per-cell results plus cross-cell tradeoff summaries (the paper's
//     max-load vs message-cost frontier). Simulate remains as the one-cell
//     convenience wrapper.
//   - Application studies: Study runs the paper's Section 1.3 application
//     substrates — cluster job scheduling (SchedulerCell), replicated
//     storage (StorageCell), and the message-level protocol
//     (ProtocolCell) — as cells on the same shared worker pool with the
//     same seed-stream determinism, and carries the Observer contract
//     through to their per-round (per-job, per-file) events.
//     StorageSystem is the interactive handle for failure-injection
//     scenarios.
//
// All randomness is drawn from explicitly seeded deterministic generators:
// the same configuration and seed always reproduce the same results, for
// any worker count.
package kdchoice

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/loadvec"
)

// Policy selects the allocation process run by an Allocator.
type Policy int

// Supported allocation policies.
const (
	// KDChoice is the paper's (k,d)-choice process (default).
	KDChoice Policy = iota + 1
	// Serialized is Aσ(k,d), the serialized (k,d)-choice of Definition 1;
	// it is distributionally equivalent to KDChoice for every σ
	// (Property (i)) and exists for experimentation.
	Serialized
	// DChoice is the classical d-choice process (k = 1) of Azar et al.
	DChoice
	// SingleChoice is the classical single-choice process.
	SingleChoice
	// OnePlusBeta is the (1+β)-choice process of Peres, Talwar and Wieder.
	OnePlusBeta
	// AlwaysGoLeft is Vöcking's asymmetric d-choice process.
	AlwaysGoLeft
	// AdaptiveKD is the paper's Section 7 water-filling variant.
	AdaptiveKD
	// StaleBatch is the parallel-allocation baseline: the K balls of a
	// round probe independently (D probes each) against round-start loads
	// with no information sharing — the model the paper's intro contrasts
	// (k,d)-choice against.
	StaleBatch
	// DynamicKD adapts k per round (the paper's Section 7 future-work
	// sketch): every sampled slot at or below the running ceiling
	// floor(m/n)+1 receives a ball.
	DynamicKD
	// ThresholdChoice is the limited-memory accept/reject policy: probe up
	// to D bins one at a time and take the first whose load is under the
	// running ceiling floor(m/n)+1, falling back to the last probe. O(1)
	// decision state — the choice–memory tradeoff's low-memory end — and
	// tolerant of approximate stores (a sketch overestimate only makes the
	// accept test conservative).
	ThresholdChoice
	// CoarseDChoice is d-choice on quantized loads: the argmin compares
	// floor(load/Quantum) buckets and breaks bucket ties by deterministic
	// hash. With Quantum=1 it reproduces DChoice bit for bit; larger quanta
	// need only the information a sketch store can actually provide.
	CoarseDChoice
)

// String returns the canonical short name of the policy.
func (p Policy) String() string {
	if cp, err := p.toCore(); err == nil {
		return cp.String()
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// PolicyNames returns the canonical names of every public policy in sorted
// order — the deterministic list for usage strings and error messages.
func PolicyNames() []string {
	names := make([]string, 0, len(core.PolicyNames()))
	for _, name := range core.PolicyNames() {
		cp, err := core.ParsePolicy(name)
		if err != nil {
			continue
		}
		if _, ok := policyFromCore(cp); ok {
			names = append(names, name)
		}
	}
	return names
}

// PolicyHelp returns one sorted "name — note" line per public policy,
// summarizing each policy's decision rule and memory/accuracy profile —
// the deterministic list for CLI usage strings.
func PolicyHelp() []string {
	help := make([]string, 0, len(core.PolicyHelp()))
	for _, line := range core.PolicyHelp() {
		name, _, ok := strings.Cut(line, " — ")
		if !ok {
			continue
		}
		if cp, err := core.ParsePolicy(name); err == nil {
			if _, public := policyFromCore(cp); public {
				help = append(help, line)
			}
		}
	}
	return help
}

// ParsePolicy converts a short policy name (as printed by Policy.String,
// e.g. "kd", "dchoice", "single") back into a Policy. Unknown names list
// the valid policies in sorted order.
func ParsePolicy(s string) (Policy, error) {
	cp, err := core.ParsePolicy(s)
	if err != nil {
		return 0, fmt.Errorf("kdchoice: unknown policy %q (valid: %s)", s, strings.Join(PolicyNames(), ", "))
	}
	p, ok := policyFromCore(cp)
	if !ok {
		return 0, fmt.Errorf("kdchoice: policy %q is not part of the public API (valid: %s)", s, strings.Join(PolicyNames(), ", "))
	}
	return p, nil
}

// Store selects the bin-load representation backing an Allocator or
// experiment cell. All stores produce bit-identical results for equal
// seeds; they trade memory for statistics cost:
//
//   - StoreDense (default): one int per bin, 8 bytes/bin.
//   - StoreCompact: one uint16 per bin, 2 bytes/bin; a bin whose load
//     reaches 65535 escapes losslessly to a wide side table, so loads stay
//     exact at every magnitude. The right choice for 10⁷–10⁸ bin runs.
//   - StoreHist: int32 loads plus a maintained load histogram, 4 bytes/bin;
//     max load, gap and the occupancy counts ν_y come from the histogram
//     without ever scanning the bins.
//   - StoreNibble: 4 bits per bin (two bins per byte), ~0.5 bytes/bin; a
//     bin whose load reaches 15 escapes losslessly to a wide side table,
//     so loads stay exact at every magnitude. Under the paper's bounds the
//     escape table stays tiny, making this the 10⁸–10⁹ bin choice.
//   - StoreSketch: approximate count-min counters, under 0.5 bytes/bin at
//     the default geometry. The only non-exact store: per-bin loads are
//     one-sided overestimates (never under the true load), so results are
//     not bit-identical to the exact stores; pair it with the
//     sketch-tolerant policies (ThresholdChoice, CoarseDChoice).
type Store int

// Supported bin-load stores.
const (
	// StoreDense is the reference []int representation.
	StoreDense Store = iota
	// StoreCompact is the 2-bytes/bin representation with overflow escape.
	StoreCompact
	// StoreHist is the histogram-indexed representation.
	StoreHist
	// StoreNibble is the 4-bits/bin representation with overflow escape.
	StoreNibble
	// StoreSketch is the approximate count-min representation.
	StoreSketch
)

// String returns the canonical short name of the store.
func (s Store) String() string { return s.toKind().String() }

func (s Store) toKind() loadvec.StoreKind {
	switch s {
	case StoreCompact:
		return loadvec.StoreCompact
	case StoreHist:
		return loadvec.StoreHist
	case StoreNibble:
		return loadvec.StoreNibble
	case StoreSketch:
		return loadvec.StoreSketch
	default:
		return loadvec.StoreKind(s) // dense, or out of range (rejected by Validate)
	}
}

// StoreNames returns the canonical store names in sorted order.
func StoreNames() []string { return loadvec.StoreNames() }

// StoreHelp returns one sorted "name — note" line per store, summarizing
// each store's memory budget and accuracy contract — the deterministic list
// for CLI usage strings.
func StoreHelp() []string { return loadvec.StoreHelp() }

// ParseStore converts a short store name ("dense", "compact", "hist",
// "nibble", "sketch") back into a Store. Unknown names list the valid
// stores in sorted order.
func ParseStore(s string) (Store, error) {
	k, err := loadvec.ParseStoreKind(s)
	if err != nil {
		return 0, fmt.Errorf("kdchoice: unknown store %q (valid: %s)", s, strings.Join(StoreNames(), ", "))
	}
	switch k {
	case loadvec.StoreCompact:
		return StoreCompact, nil
	case loadvec.StoreHist:
		return StoreHist, nil
	case loadvec.StoreNibble:
		return StoreNibble, nil
	case loadvec.StoreSketch:
		return StoreSketch, nil
	default:
		return StoreDense, nil
	}
}

// policyFromCore maps a core policy back onto its public counterpart.
func policyFromCore(cp core.Policy) (Policy, bool) {
	switch cp {
	case core.KDChoice:
		return KDChoice, true
	case core.SerializedKD:
		return Serialized, true
	case core.DChoice:
		return DChoice, true
	case core.SingleChoice:
		return SingleChoice, true
	case core.OnePlusBeta:
		return OnePlusBeta, true
	case core.AlwaysGoLeft:
		return AlwaysGoLeft, true
	case core.AdaptiveKD:
		return AdaptiveKD, true
	case core.StaleBatch:
		return StaleBatch, true
	case core.DynamicKD:
		return DynamicKD, true
	case core.ThresholdChoice:
		return ThresholdChoice, true
	case core.CoarseDChoice:
		return CoarseDChoice, true
	default:
		return 0, false
	}
}

func (p Policy) toCore() (core.Policy, error) {
	switch p {
	case KDChoice:
		return core.KDChoice, nil
	case Serialized:
		return core.SerializedKD, nil
	case DChoice:
		return core.DChoice, nil
	case SingleChoice:
		return core.SingleChoice, nil
	case OnePlusBeta:
		return core.OnePlusBeta, nil
	case AlwaysGoLeft:
		return core.AlwaysGoLeft, nil
	case AdaptiveKD:
		return core.AdaptiveKD, nil
	case StaleBatch:
		return core.StaleBatch, nil
	case DynamicKD:
		return core.DynamicKD, nil
	case ThresholdChoice:
		return core.ThresholdChoice, nil
	case CoarseDChoice:
		return core.CoarseDChoice, nil
	default:
		return 0, fmt.Errorf("kdchoice: unknown policy %d", int(p))
	}
}

// Config fully describes an Allocator. The zero value is not valid: Bins
// must be positive and K/D set for the round-based policies (New applies
// defaults where documented).
type Config struct {
	// Bins is the number of bins n (required, >= 1).
	Bins int
	// K is the number of balls per round (KDChoice, Serialized,
	// AdaptiveKD).
	K int
	// D is the number of probes per round (all multi-choice policies).
	D int
	// Policy selects the process; zero value means KDChoice.
	Policy Policy
	// Seed makes the allocator deterministic; allocators with equal
	// Config produce identical sequences.
	Seed uint64
	// Beta is the two-choice probability for OnePlusBeta (in [0, 1]).
	Beta float64
	// Sigma is a fixed serialization permutation of {0..K-1} for the
	// Serialized policy (nil = identity).
	Sigma []int
	// RandomSigma draws a fresh random σ every round (Serialized).
	RandomSigma bool
	// Store selects the bin-load representation (StoreDense, StoreCompact,
	// StoreHist). The zero value is the dense reference; all stores are
	// bit-identical in outcome for equal seeds.
	Store Store
	// Block is the superstep size of the fixed-prologue round policies
	// (KDChoice, fixed-σ Serialized, DChoice, CoarseDChoice, DynamicKD):
	// randomness is pre-drawn in blocks of Block rounds, amortizing
	// per-round generator and scratch setup. Results are bit-identical for
	// every value. 0 (the default) auto-sizes the superstep to ~4096
	// samples; explicit values must be >= 1. Policies without a fixed round
	// prologue ignore Block.
	Block int
	// VecDims > 0 switches the allocator to vector-load mode: every bin
	// carries a []float64 load vector of this many components, balls arrive
	// via InsertVec, and decisions compare the VecNorm aggregation of the
	// vectors. Vector mode is online-only (per-ball policies); the scalar
	// round entry points reject it.
	VecDims int
	// VecNorm is vector mode's aggregation norm (zero value NormLInf, the
	// bottleneck-resource reading).
	VecNorm Norm
	// Quantum is CoarseDChoice's load-bucket width: decisions compare
	// floor(load/Quantum). 0 applies the default (4); 1 reproduces exact
	// d-choice bit for bit. Other policies ignore it.
	Quantum int
	// SketchWidth is the count-min row width (counters per hash row) when
	// Store is StoreSketch; 0 auto-sizes to Bins/8, rounded up to a power
	// of two. More width means tighter estimates and more memory.
	SketchWidth int
	// SketchDepth is the count-min row count (independent hash rows, at
	// most 8) when Store is StoreSketch; 0 applies the default (2).
	SketchDepth int
	// Shards >= 2 engages the sharded superstep engine with this many
	// workers: the workers claim a block's rounds from a shared cursor, a
	// few at a time, and gather and decide them in one parallel phase
	// against the block-start loads, and placements apply serially in
	// round order. All randomness is pre-drawn in the serial stream order,
	// so the stream never depends on the worker count; kd and fixed-σ
	// kd-serialized draw the next block on one worker while the others
	// decide. Results are bit-identical across ANY shard count >= 2.
	// Relative to serial: SingleChoice is bit-identical at any Block for
	// streams of Place calls alone, and at Block = 1 when Inserts
	// interleave (a sharded refill pre-draws its whole block, so an Insert
	// draws after that block in the stream); KDChoice and fixed-σ
	// Serialized are bit-identical at Block = 1 and otherwise see each
	// round's loads as of its block start (the staleness horizon is
	// exactly Block rounds); OnePlusBeta matches the serial law in
	// distribution only, and shards at D <= 2 only (its sharded prologue
	// probes two bins). StaleBatch, whose serial round already gathers all
	// of a round's probes in one pass, DChoice and CoarseDChoice, which
	// two workers never ran faster than serial, and the policies with
	// data-dependent draw patterns reject Shards > 1.
	//
	// 0 (the default) and 1 run the serial engine for every policy, so the
	// engine never depends on the host; sharding is an explicit opt-in.
	Shards int
	// Faults attaches a deterministic fault-injection plan (see
	// ParseFaults and faults.go): seeded bin outages with recovery,
	// per-probe loss, bounded read noise, and graceful degradation
	// (bounded retries, deciding with the surviving d' < d probes,
	// evict-recover for serving). All fault randomness comes from
	// dedicated streams split off Seed, so faulty runs are bit-identical
	// for any Workers/Shards setting (a non-empty plan forces serial
	// decisions). Nil or empty is bit-identical to a fault-free
	// allocator at zero extra cost. Supported by KDChoice, fixed-σ
	// Serialized and the per-ball serving family, scalar mode only.
	Faults *FaultPlan
}

// withDefaults returns cfg with the documented zero-value defaults applied
// (Policy zero means KDChoice). New and Simulate share this normalization,
// so the two entry points can never disagree about what a zero field means.
func (cfg Config) withDefaults() Config {
	if cfg.Policy == 0 {
		cfg.Policy = KDChoice
	}
	return cfg
}

// coreConfig validates the fields core cannot diagnose clearly (negative
// K/D would otherwise surface as confusing "requires K >= 1" errors even
// for policies that ignore K) and maps cfg onto the core process
// parameters. cfg must already be normalized by withDefaults.
func (cfg Config) coreConfig() (core.Policy, core.Params, error) {
	cp, err := cfg.Policy.toCore()
	if err != nil {
		return 0, core.Params{}, err
	}
	if cfg.K < 0 {
		return 0, core.Params{}, fmt.Errorf("kdchoice: K = %d, must be non-negative", cfg.K)
	}
	if cfg.D < 0 {
		return 0, core.Params{}, fmt.Errorf("kdchoice: D = %d, must be non-negative", cfg.D)
	}
	return cp, core.Params{
		N:           cfg.Bins,
		K:           cfg.K,
		D:           cfg.D,
		Beta:        cfg.Beta,
		Sigma:       cfg.Sigma,
		RandomSigma: cfg.RandomSigma,
		Store:       cfg.Store.toKind(),
		VecDims:     cfg.VecDims,
		VecNorm:     cfg.VecNorm.toLoadvec(),
		Block:       cfg.Block,
		Shards:      cfg.Shards,
		Quantum:     cfg.Quantum,
		SketchWidth: cfg.SketchWidth,
		SketchDepth: cfg.SketchDepth,
		Faults:      cfg.Faults,
	}, nil
}

// validate checks cfg end to end — the public-layer checks plus the process
// parameter validation — without constructing an allocator (no N-sized
// allocations). Sweep uses it to classify grid cells.
func (cfg Config) validate() error {
	cp, params, err := cfg.withDefaults().coreConfig()
	if err != nil {
		return err
	}
	if err := core.Validate(cp, params); err != nil {
		return fmt.Errorf("kdchoice: %w", err)
	}
	return nil
}

// Allocator runs one allocation process instance. Construct with New or
// NewKD. Not safe for concurrent use; run one Allocator per goroutine.
type Allocator struct {
	pr        *core.Process
	cfg       Config
	observers []Observer
}

// New creates an Allocator from cfg.
func New(cfg Config) (*Allocator, error) {
	cfg = cfg.withDefaults()
	cp, params, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	pr, err := core.New(cp, params, newRNG(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("kdchoice: %w", err)
	}
	return &Allocator{pr: pr, cfg: cfg}, nil
}

// NewKD creates a (k,d)-choice allocator over n bins — the common case.
func NewKD(n, k, d int, seed uint64) (*Allocator, error) {
	return New(Config{Bins: n, K: k, D: d, Seed: seed})
}

// Config returns the configuration the allocator was built with.
func (a *Allocator) Config() Config { return a.cfg }

// Place places m more balls (m >= 0). For round-based policies a final
// partial round is used when the round size does not divide m.
func (a *Allocator) Place(m int) error {
	if m < 0 {
		return fmt.Errorf("kdchoice: Place(%d): ball count must be non-negative", m)
	}
	a.pr.Place(m)
	return nil
}

// PlaceAll places one ball per bin (the paper's canonical n-balls-into-
// n-bins experiment).
func (a *Allocator) PlaceAll() {
	a.pr.Place(a.pr.N())
}

// Round advances the process by one full round (K balls for round-based
// policies, 1 ball otherwise).
func (a *Allocator) Round() { a.pr.Round() }

// N returns the number of bins.
func (a *Allocator) N() int { return a.pr.N() }

// Balls returns the number of balls placed.
func (a *Allocator) Balls() int { return a.pr.Balls() }

// Rounds returns the number of completed rounds.
func (a *Allocator) Rounds() int { return a.pr.Rounds() }

// MaxLoad returns the current maximum bin load — the quantity bounded by
// the paper's Theorem 1 and Theorem 2.
func (a *Allocator) MaxLoad() int { return a.pr.MaxLoad() }

// Gap returns max load minus average load, the heavily-loaded-case metric.
func (a *Allocator) Gap() float64 { return a.pr.Gap() }

// Messages returns the cumulative message cost (total bins probed).
func (a *Allocator) Messages() int64 { return a.pr.Messages() }

// Load returns the load of bin id (0-based). It panics when bin is out of
// range, consistent with the rest of the API's explicit validation — a bad
// index is a caller bug, not an empty bin.
func (a *Allocator) Load(bin int) int {
	if bin < 0 || bin >= a.pr.N() {
		panic(fmt.Sprintf("kdchoice: Load(%d): bin index out of range [0, %d)", bin, a.pr.N()))
	}
	return a.pr.Load(bin)
}

// Loads returns a copy of the per-bin load vector.
func (a *Allocator) Loads() []int { return a.pr.Loads() }

// SortedLoads returns the loads in decreasing order, so SortedLoads()[x-1]
// is B_x in the paper's notation (the x-th most loaded bin).
func (a *Allocator) SortedLoads() []int { return a.pr.Loads().Sorted() }

// BinsWithAtLeast returns ν_y: the number of bins holding at least y balls.
func (a *Allocator) BinsWithAtLeast(y int) int { return a.pr.NuY(y) }

// BytesPerBin returns the measured memory cost of the bin-load store in
// bytes per bin, including any overflow-escape surcharge — the quantity
// the approximate-store frontier trades against max-load accuracy.
func (a *Allocator) BytesPerBin() float64 { return a.pr.Store().BytesPerBin() }

// Reset empties all bins and zeroes the counters without rewinding the
// random stream, giving an independent fresh run.
func (a *Allocator) Reset() { a.pr.Reset() }

// Close stops the sharded engine's worker goroutines (Config.Shards >= 2).
// It is a no-op for serial allocators and is idempotent. A closed
// allocator stays fully usable: a sharded one then decides every block on
// the calling goroutine, with unchanged results.
func (a *Allocator) Close() { a.pr.Close() }
