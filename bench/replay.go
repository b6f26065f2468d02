package main

// This file is the traced run's layer replay. It prices each layer from
// outside, by timing calls into that layer's exported functions on inputs
// the benchmark prepares; no engine code is instrumented.
//
//   - Round workloads replay one engine block per step: xrand.FillRounds on
//     a twin stream (xrand.New(seed) is exactly the allocator's own stream,
//     so the twin draws the engine's samples), a gather of as many uniform
//     probes through the twin process's RawLoads view, core.Process.Place
//     of the block on that twin process (built with the workload's
//     parameters), and BulkAdd of k bins per round into a twin store.
//   - Serving workloads replay one operation chunk per step, drawn from the
//     same operation stream as the timed run: the chunk's deletes then its
//     inserts on a twin core.Process, with the same number of probe samples
//     drawn (FillIntn), gathered, and applied (AddN/Sub) on a twin store
//     that holds one unit per live ball of the twin process.
//
// The round gather reads fresh uniform probes, not the engine's samples:
// those would already sit in cache when Place reads them (or be left there
// by Place), and reading a second large store instead would halve the share
// of the cache Place sees. Uniform probes of the process's own store cost
// what the engine's gather costs and touch nothing Place reuses.

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// Span names; each is the exported call the span times.
const (
	spanRun         = "run"
	spanSetup       = "setup"
	spanNew         = "kdchoice.New"
	spanWarm        = "warm"
	spanTimed       = "timed"
	spanPlaceWindow = "kdchoice.Allocator.Place"
	spanOpsWindow   = "kdchoice.Allocator.Insert+Delete"
	spanReplay      = "replay"
	spanBlock       = "replay.block"
	spanFillRounds  = "xrand.Rand.FillRounds"
	spanFillIntn    = "xrand.Rand.FillIntn"
	spanGather      = "loadvec.RawLoads.gather"
	spanBulkAdd     = "loadvec.Store.BulkAdd"
	spanAddN        = "loadvec.Store.AddN"
	spanSub         = "loadvec.Store.Sub"
	spanPlace       = "core.Process.Place"
	spanPlaceSerial = "core.Process.Place.serial"
	spanInsert      = "core.Process.Insert"
	spanDelete      = "core.Process.Delete"
	spanTick        = "faults.Injector.Tick"
)

// maxReplayBlocks caps the replay so a traced run stays a few seconds and
// its span file a few MB.
const maxReplayBlocks = 8192

// probeStreamID names the stream of the round replay's gather probes.
const probeStreamID = 0x70726f6265 // "probe"

// fillStreamID names the stream the serving replay draws its probe samples
// from. The twin process's own draws are data-dependent (tie coins), so no
// stream can shadow them word for word; this one draws the same number of
// samples.
const fillStreamID = 0x66696c6c // "fill"

// coreConfig maps a workload onto the core process it runs.
func coreConfig(wl workload) (core.Policy, core.Params, error) {
	policy, err := core.ParsePolicy(wl.cfg.Policy.String())
	if err != nil {
		return 0, core.Params{}, err
	}
	kind, err := loadvec.ParseStoreKind(wl.cfg.Store.String())
	if err != nil {
		return 0, core.Params{}, err
	}
	return policy, core.Params{
		N: wl.cfg.Bins, K: wl.cfg.K, D: wl.cfg.D, Beta: wl.cfg.Beta,
		Store: kind, Shards: wl.cfg.Shards, Faults: wl.cfg.Faults,
	}, nil
}

// engineBlockRounds mirrors core's auto superstep size (4096/d rounds
// serial, 32768/d sharded). Replaying in the engine's own blocks keeps the
// twin stream aligned with the rounds each Place call draws.
func engineBlockRounds(d, shards int) int {
	if shards > 1 {
		return max(32768/d, 32)
	}
	return max(4096/d, 4)
}

// replayItems returns the balls (serve: operations) one replay step covers.
func replayItems(wl workload) int {
	if wl.serve {
		return wl.window
	}
	return engineBlockRounds(wl.cfg.D, wl.cfg.Shards) * wl.cfg.K
}

// replayBlocks sizes the replay at a quarter of the timed work, capped.
func replayBlocks(wl workload, timedItems int64) int {
	per := int64(replayItems(wl))
	return int(min((timedItems/4+per-1)/per, maxReplayBlocks))
}

// elemSize is the bytes one gathered load occupies in the store.
func elemSize(kind loadvec.StoreKind) int {
	switch kind {
	case loadvec.StoreCompact:
		return 2
	case loadvec.StoreHist:
		return 4
	default:
		return 8
	}
}

// gather reads the loads of samples through the store's raw view, the
// way the engine's gather pass does. Compact escapes are not followed:
// no load in these workloads comes near 65535.
func gather(st loadvec.Store, samples, ldv []int) {
	switch s := st.(type) {
	case *loadvec.DenseStore:
		gatherRaw(s.RawLoads(), samples, ldv)
	case *loadvec.CompactStore:
		small, _ := s.RawLoads()
		gatherRaw(small, samples, ldv)
	case *loadvec.HistStore:
		gatherRaw(s.RawLoads(), samples, ldv)
	}
}

func gatherRaw[E ~int | ~int32 | ~uint16](raw []E, samples, ldv []int) {
	ldv = ldv[:len(samples)]
	for i, b := range samples {
		ldv[i] = int(raw[b])
	}
}

// replay runs the workload's layer replay under parent and returns the
// operations it issued and how many failed.
func replay(wl workload, seed uint64, blocks int, tr *tracer, parent int) (ops, failed int64, err error) {
	if wl.serve {
		return replayServe(wl, seed, blocks, tr, parent)
	}
	ops, err = replayRounds(wl, seed, blocks, tr, parent)
	return ops, 0, err
}

func replayRounds(wl workload, seed uint64, blocks int, tr *tracer, parent int) (int64, error) {
	policy, p, err := coreConfig(wl)
	if err != nil {
		return 0, err
	}
	goroutines := runtime.NumGoroutine()
	pr, err := core.New(policy, p, xrand.New(seed))
	if err != nil {
		return 0, fmt.Errorf("%s replay: %w", wl.name, err)
	}
	defer func() {
		if pr != nil {
			pr.Close()
		}
	}()
	st, err := loadvec.NewStore(p.Store, p.N)
	if err != nil {
		return 0, fmt.Errorf("%s replay: %w", wl.name, err)
	}
	k, d, n := p.K, p.D, p.N
	rounds := engineBlockRounds(d, p.Shards)
	twin := xrand.New(seed)
	probeRng := xrand.NewStream(seed, probeStreamID)
	samples := make([]int, rounds*d)
	nonces := make([]uint64, rounds)
	probes := make([]int, rounds*d)
	ldv := make([]int, rounds*d)
	dests := make([]int, rounds*k)

	// Bring process, stream and store to the set-up state of the timed run.
	pr.Place(wl.warm)
	for r := 0; r < wl.warm/k; r += rounds {
		twin.FillRounds(samples, nonces, d, n)
		probeRng.FillIntn(dests, n)
		st.BulkAdd(dests)
	}

	for b := 0; b < blocks; b++ {
		probeRng.FillIntn(probes, n)
		for r := 0; r < rounds; r++ {
			copy(dests[r*k:(r+1)*k], probes[r*d:r*d+k])
		}
		blk := tr.begin(spanBlock, parent)
		s := tr.begin(spanFillRounds, blk)
		twin.FillRounds(samples, nonces, d, n)
		tr.end(s, int64(len(samples)))
		s = tr.begin(spanGather, blk)
		gather(pr.Store(), probes, ldv)
		tr.end(s, int64(len(probes)))
		s = tr.begin(spanPlace, blk)
		pr.Place(rounds * k)
		tr.end(s, int64(rounds))
		// The engine applies to bins its gather just read; read them first
		// so the twin store's apply also finds them in cache.
		gather(st, dests, ldv)
		s = tr.begin(spanBulkAdd, blk)
		st.BulkAdd(dests)
		tr.end(s, int64(len(dests)))
		tr.end(blk, 1)
	}
	if p.Shards < 2 {
		return int64(blocks * rounds * k), nil
	}

	// The serial engine on the same state: same seed, same set-up, same
	// blocks. Built after the sharded twin is released, so the two never
	// hold their stores at once.
	st = nil
	release(pr.Close, goroutines)
	pr = nil
	p.Shards = 0
	serial, err := core.New(policy, p, xrand.New(seed))
	if err != nil {
		return 0, fmt.Errorf("%s replay: %w", wl.name, err)
	}
	defer serial.Close()
	serial.Place(wl.warm)
	for b := 0; b < blocks; b++ {
		s := tr.begin(spanPlaceSerial, parent)
		serial.Place(rounds * k)
		tr.end(s, int64(rounds))
	}
	return int64(2 * blocks * rounds * k), nil
}

func replayServe(wl workload, seed uint64, blocks int, tr *tracer, parent int) (ops, failed int64, err error) {
	policy, p, err := coreConfig(wl)
	if err != nil {
		return 0, 0, err
	}
	pr, err := core.New(policy, p, xrand.New(seed))
	if err != nil {
		return 0, 0, fmt.Errorf("%s replay: %w", wl.name, err)
	}
	defer pr.Close()
	st, err := loadvec.NewStore(p.Store, p.N)
	if err != nil {
		return 0, 0, fmt.Errorf("%s replay: %w", wl.name, err)
	}
	n, w := p.N, wl.window
	pr.Reserve(2 * n)
	draw := xrand.NewStream(seed, fillStreamID)
	opSrc := newOpStream(seed)
	chunk := make([]uint64, w)
	// live[i] is a live ball of the twin process and liveBin[i] the twin
	// store bin that holds its unit, so every Sub finds its unit.
	live := make([]core.Ball, 0, 2*n)
	liveBin := make([]int32, 0, 2*n)
	victims := make([]core.Ball, 0, w)
	delBins := make([]int, 0, w)
	insBins := make([]int, 0, w)
	handles := make([]core.Ball, 0, w)
	samples := make([]int, 2*w)
	ldv := make([]int, 2*w)
	// track registers an inserted ball; its twin store unit is added by
	// the caller.
	track := func(h core.Ball) (int, bool) {
		bin, err := pr.BallBin(h)
		if err != nil {
			failed++
			return 0, false
		}
		live = append(live, h)
		liveBin = append(liveBin, int32(bin))
		return bin, true
	}

	for i := 0; i < wl.warm; i++ {
		h, err := pr.Insert()
		if err != nil {
			return 0, 0, fmt.Errorf("%s replay warm-up: %w", wl.name, err)
		}
		if bin, ok := track(h); ok {
			st.AddN(bin, 1)
		}
	}

	for b := 0; b < blocks; b++ {
		opSrc.fill(chunk)
		victims, delBins = victims[:0], delBins[:0]
		inserts := 0
		for _, op := range chunk {
			if !isDelete(op) {
				inserts++
				continue
			}
			if len(live) == 0 {
				failed++
				continue
			}
			i, last := victim(op, len(live)), len(live)-1
			victims = append(victims, live[i])
			delBins = append(delBins, int(liveBin[i]))
			live[i], liveBin[i] = live[last], liveBin[last]
			live, liveBin = live[:last], liveBin[:last]
		}
		probes := samples[:2*inserts]

		blk := tr.begin(spanBlock, parent)
		s := tr.begin(spanFillIntn, blk)
		draw.FillIntn(probes, n)
		tr.end(s, int64(len(probes)))
		s = tr.begin(spanGather, blk)
		gather(st, probes, ldv)
		tr.end(s, int64(len(probes)))
		s = tr.begin(spanDelete, blk)
		for _, v := range victims {
			if pr.Delete(v) != nil {
				failed++
			}
		}
		tr.end(s, int64(len(victims)))
		s = tr.begin(spanInsert, blk)
		handles = handles[:0]
		for i := 0; i < inserts; i++ {
			h, err := pr.Insert()
			if err != nil {
				failed++
				continue
			}
			handles = append(handles, h)
		}
		tr.end(s, int64(inserts))
		insBins = insBins[:0]
		for _, h := range handles {
			if bin, ok := track(h); ok {
				insBins = append(insBins, bin)
			}
		}
		s = tr.begin(spanSub, blk)
		for _, bin := range delBins {
			st.Sub(bin, 1)
		}
		tr.end(s, int64(len(delBins)))
		s = tr.begin(spanAddN, blk)
		for _, bin := range insBins {
			st.AddN(bin, 1)
		}
		tr.end(s, int64(len(insBins)))
		tr.end(blk, 1)
		ops += int64(len(victims) + inserts)
	}
	return ops, failed, nil
}

// timeTicks prices Injector.Tick on a standalone injector with the
// workload's plan, ticks times under parent. With no plan the allocator
// holds no injector at all; the empty plan's Tick returns before touching
// bin state, so that injector is built over one bin.
func timeTicks(wl workload, seed uint64, ticks int64, tr *tracer, parent int) {
	var plan faults.Plan
	if wl.cfg.Faults != nil {
		plan = *wl.cfg.Faults
	}
	n := wl.cfg.Bins
	if plan.Empty() {
		n = 1
	}
	in := faults.NewInjector(plan, n, xrand.New(seed))
	s := tr.begin(spanTick, parent)
	for i := int64(0); i < ticks; i++ {
		in.Tick()
	}
	tr.end(s, ticks)
}
