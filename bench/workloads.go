package main

import (
	"fmt"
	"math"
	"time"

	kdchoice "repro"
)

// workload is one benchmark input: an allocator configuration plus the
// stream the benchmark drives it with. The benchmark is the only client: one
// goroutine issues the next call after the previous one returns (a closed
// loop), which is how every user of this in-process library calls it.
type workload struct {
	name string
	why  string
	cfg  kdchoice.Config
	// serve drives the online Insert/Delete path one ball at a time;
	// otherwise the benchmark places balls in windows through Place.
	serve bool
	// warm is the number of balls (serve: inserts) placed during set-up.
	warm int
	// window is the number of balls (serve: operations) per timed window.
	window int
	// heavyGap checks the final gap against Theorem 2's bound (heavily
	// loaded, d >= 2k).
	heavyGap bool
	// refRate is the workload's throughput in items/s on the reference host
	// (2-core Xeon, 105 MiB L3). The timed work is -seconds × refRate items,
	// a fixed amount for a given -seconds, so two commits do identical work
	// and the quality metrics are exact for a seed.
	refRate float64
}

// serveFaults is the fault plan of the serve-faults workload: bin outages
// of 200 ops at rate 0.0005 per op with eviction, 10% probe loss and two
// retries per decision. It exercises every fault hook.
var serveFaults = kdchoice.FaultPlan{FailRate: 0.0005, DownFor: 200, LossProb: 0.1, Retry: 2, Evict: true}

// workloads lists the benchmark's workloads in their canonical order. The
// names are a contract with BENCHMARK.json.
func workloads() []workload {
	bign := kdchoice.Config{Bins: 100_000_000, K: 2, D: 64, Policy: kdchoice.KDChoice, Store: kdchoice.StoreCompact}
	shard := bign
	shard.Shards = 2
	serve := kdchoice.Config{Bins: 100_000, D: 2, Policy: kdchoice.OnePlusBeta, Beta: 1, Store: kdchoice.StoreHist}
	faulty := serve
	plan := serveFaults
	faulty.Faults = &plan
	return []workload{
		{
			name: "bign", why: "light load at n=1e8 on the compact store: a 200 MB working set, so the random load gathers miss cache",
			cfg: bign, warm: 245 * 8192, window: 8192, refRate: 1.2e6,
		},
		{
			name: "bign-2shard", why: "bign on the sharded superstep engine with 2 workers: prices pool hand-off and merge against bign",
			cfg: shard, warm: 245 * 8192, window: 8192, refRate: 1.45e6,
		},
		{
			name: "heavy", why: "heavy load (m about 1500n, d=2k) on a cache-resident dense store: selection dominates and gather is cheap",
			cfg: kdchoice.Config{Bins: 100_000, K: 8, D: 16, Policy: kdchoice.KDChoice, Store: kdchoice.StoreDense}, warm: 16 * 65536, window: 65536, heavyGap: true, refRate: 15e6,
		},
		{
			name: "serve", why: "online serving, 50% inserts and 50% deletes of a uniform live ball, one ball at a time on the hist store",
			cfg: serve, serve: true, warm: 100_000, window: 256, refRate: 20e6,
		},
		{
			name: "serve-faults", why: "serve with outages, eviction, probe loss and retries: exercises every fault hook",
			cfg: faulty, serve: true, warm: 100_000, window: 256, refRate: 6.5e6,
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, wl := range workloads() {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// scaled shrinks the workload for tests: bins, warm-up and work scale by s.
// Bins stay at least 2^14 (and 64·D), where the configs stay valid and
// Theorem 2's leading term still bounds the heavy gap; the warm-up stays a
// whole number of windows.
func (wl workload) scaled(s float64) workload {
	if s == 1 {
		return wl
	}
	wl.cfg.Bins = max(int(float64(wl.cfg.Bins)*s), 64*wl.cfg.D, 1<<14)
	if wl.serve {
		wl.warm = wl.cfg.Bins
	} else {
		wl.warm = max(int(float64(wl.warm)*s)/wl.window, 1) * wl.window
	}
	wl.refRate *= s
	return wl
}

// windows returns the number of timed windows for a run of the given
// length: the work the reference host does in that time, at least one.
func (wl workload) windows(seconds float64) int {
	return max(int(math.Ceil(seconds*wl.refRate/float64(wl.window))), 1)
}

// client owns one allocator and the client state the benchmark keeps for
// it: the live-ball handles and the operation stream of the serving
// workloads.
type client struct {
	wl      workload
	a       *kdchoice.Allocator
	ops     *opStream
	chunk   []uint64
	live    []kdchoice.Ball
	inserts int64 // balls inserted so far (serve)
}

// newClient builds the allocator for seed. live is reused scratch for the
// handle list, so repeated set-ups allocate it once.
func newClient(wl workload, seed uint64, live []kdchoice.Ball, chunk []uint64) (*client, error) {
	cfg := wl.cfg
	cfg.Seed = seed
	a, err := kdchoice.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	return &client{wl: wl, a: a, ops: newOpStream(seed), chunk: chunk, live: live[:0]}, nil
}

// warmUp places the set-up balls.
func (c *client) warmUp() error {
	if !c.wl.serve {
		return c.a.Place(c.wl.warm)
	}
	c.a.Reserve(2 * c.wl.cfg.Bins)
	for i := 0; i < c.wl.warm; i++ {
		b, err := c.a.Insert()
		if err != nil {
			return fmt.Errorf("%s: warm-up insert: %w", c.wl.name, err)
		}
		c.live = append(c.live, b)
	}
	c.inserts += int64(c.wl.warm)
	return nil
}

// window runs one timed window and returns its duration, the balls it
// inserted and the operations that failed. The serving workloads draw the
// window's operations before the clock starts.
func (c *client) window() (dt time.Duration, inserted, failed int64) {
	if !c.wl.serve {
		t0 := time.Now()
		err := c.a.Place(c.wl.window)
		dt = time.Since(t0)
		if err != nil {
			return dt, 0, int64(c.wl.window)
		}
		return dt, int64(c.wl.window), 0
	}
	c.ops.fill(c.chunk)
	t0 := time.Now()
	for _, op := range c.chunk {
		if isDelete(op) {
			if len(c.live) == 0 {
				failed++
				continue
			}
			i := victim(op, len(c.live))
			if err := c.a.Delete(c.live[i]); err != nil {
				failed++
			}
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			continue
		}
		b, err := c.a.Insert()
		if err != nil {
			failed++
			continue
		}
		c.live = append(c.live, b)
		inserted++
	}
	dt = time.Since(t0)
	c.inserts += inserted
	return dt, inserted, failed
}

// placed returns the balls placed so far: Balls() for the one-shot rounds,
// every insert for the serving workloads (deletes do not un-place a ball's
// probes).
func (c *client) placed() int64 {
	if c.wl.serve {
		return c.inserts
	}
	return int64(c.a.Balls())
}
