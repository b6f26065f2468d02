package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	kdchoice "repro"
	"repro/internal/theory"
	"repro/internal/xrand"
)

// Set-up is repeated so setup_s is a median: at least minSetups times, and
// more (up to maxSetups) while the set-ups total under minSetupTime.
const (
	minSetups    = 3
	maxSetups    = 15
	minSetupTime = 500 * time.Millisecond
)

// phase is one measured set-up plus timed section of a workload.
type phase struct {
	setupS   []float64       // wall time of each set-up
	windows  []time.Duration // wall time of each timed window
	outages  []int64         // outages begun in each window (traced passes only)
	items    int64           // balls (serve: operations) attempted in the timed section
	inserted int64           // balls placed in the timed section
	failed   int64           // operations that returned an error

	bytesPerBin float64 // heap growth after GC ÷ bins
	maxLoad     int
	gap         float64
	msgsPerBall float64 // Messages() ÷ balls placed, set-up included
	messages    int64
	faults      kdchoice.FaultCounters
	rt          rtDelta // runtime activity during the timed section
}

// wall is the summed duration of the timed windows.
func (p phase) wall() time.Duration {
	var w time.Duration
	for _, d := range p.windows {
		w += d
	}
	return w
}

// nsPerItem returns each window's mean cost per ball or operation.
func (p phase) nsPerItem(window int) []float64 {
	out := make([]float64, len(p.windows))
	for i, d := range p.windows {
		out[i] = float64(d.Nanoseconds()) / float64(window)
	}
	return out
}

// runPhase sets the workload up between setups[0] and setups[1] times,
// keeping the last allocator, runs windows timed windows on it, and checks
// its outputs. A non-nil tracer records setup, window and per-window outage
// spans under parent.
func runPhase(wl workload, seed uint64, windows int, setups [2]int, tr *tracer, parent int) (phase, error) {
	var p phase
	var live []kdchoice.Ball
	var chunk []uint64
	if wl.serve {
		live = make([]kdchoice.Ball, 0, 2*wl.cfg.Bins)
		chunk = make([]uint64, wl.window)
	}
	p.windows = make([]time.Duration, windows)
	if tr != nil {
		p.outages = make([]int64, windows)
	}
	runtime.GC()
	base := heapAlloc()

	var c *client
	var total time.Duration
	goroutines := runtime.NumGoroutine()
	for i := 0; i < setups[1] && (i < setups[0] || total < minSetupTime); i++ {
		if c != nil {
			release(c.a.Close, goroutines)
			c = nil
		}
		sp := tr.begin(spanSetup, parent)
		t0 := time.Now()
		s := tr.begin(spanNew, sp)
		nd, err := newClient(wl, seed, live, chunk)
		tr.end(s, 1)
		if err != nil {
			return p, err
		}
		c = nd
		s = tr.begin(spanWarm, sp)
		err = c.warmUp()
		tr.end(s, int64(wl.warm))
		dt := time.Since(t0)
		tr.end(sp, 1)
		if err != nil {
			c.a.Close()
			return p, err
		}
		p.setupS = append(p.setupS, dt.Seconds())
		total += dt
	}
	defer c.a.Close()

	name := spanPlaceWindow
	if wl.serve {
		name = spanOpsWindow
	}
	outages := c.a.FaultCounters().Outages
	rt0 := readRuntime()
	timed := tr.begin(spanTimed, parent)
	for w := range p.windows {
		s := tr.begin(name, timed)
		dt, ins, failed := c.window()
		tr.end(s, int64(wl.window))
		p.windows[w] = dt
		p.inserted += ins
		p.failed += failed
		if p.outages != nil {
			o := c.a.FaultCounters().Outages
			p.outages[w], outages = o-outages, o
		}
	}
	tr.end(timed, int64(windows))
	p.rt = readRuntime().since(rt0)
	p.items = int64(windows) * int64(wl.window)

	p.maxLoad = c.a.MaxLoad()
	p.gap = c.a.Gap()
	p.messages = c.a.Messages()
	p.msgsPerBall = float64(p.messages) / float64(c.placed())
	p.faults = c.a.FaultCounters()
	if err := check(c, p); err != nil {
		return p, err
	}
	runtime.GC()
	p.bytesPerBin = float64(int64(heapAlloc())-int64(base)) / float64(wl.cfg.Bins)
	runtime.KeepAlive(c)
	return p, nil
}

// release closes an allocator or process and collects its memory before
// the next one is built. A sharded engine's pool goroutines exit after
// Close returns and hold the process until they do, so it first waits
// (at most a second) for the goroutine count to fall back to goroutines.
func release(close func(), goroutines int) {
	close()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	runtime.GC()
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// check verifies the allocator's output against what the benchmark did and
// what the paper's model guarantees. Any failure invalidates the run.
func check(c *client, p phase) error {
	wl, a := c.wl, c.a
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if wl.serve {
		if a.Live() != len(c.live) {
			fail("Live() = %d, benchmark holds %d live balls", a.Live(), len(c.live))
		}
		if a.Balls() != len(c.live) {
			fail("Balls() = %d, want the %d live unit balls", a.Balls(), len(c.live))
		}
	} else if want := wl.warm + int(p.inserted); a.Balls() != want {
		fail("Balls() = %d, want %d placed", a.Balls(), want)
	}
	if wl.cfg.Faults == nil {
		// Fault-free, every ball costs exactly D probes per round of K
		// (per ball for the serving policy, whose β = 1 always probes D).
		k := wl.cfg.K
		if wl.serve {
			k = 1
		}
		if want := theory.Messages(k, wl.cfg.D, int(c.placed())); a.Messages() != want {
			fail("Messages() = %d, want theory.Messages = %d", a.Messages(), want)
		}
	}
	if fc := a.FaultCounters(); fc.Evictions != fc.Replacements {
		fail("evictions %d != replacements %d", fc.Evictions, fc.Replacements)
	}
	if wl.heavyGap {
		if hi := theory.HeavyGapUpper(wl.cfg.K, wl.cfg.D, wl.cfg.Bins); p.gap < 0 || p.gap > hi {
			fail("gap %.3f outside Theorem 2's [0, %.3f]", p.gap, hi)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s: output check failed: %s", wl.name, strings.Join(errs, "; "))
	}
	return nil
}

// opStream is the serving workloads' operation mix: one raw word per
// operation from a stream split off the run seed, so the mix never shares
// draws with the allocator.
type opStream struct{ r *xrand.Rand }

const opStreamID = 0x6f7073 // "ops"

func newOpStream(seed uint64) *opStream { return &opStream{xrand.NewStream(seed, opStreamID)} }

func (s *opStream) fill(chunk []uint64) {
	for i := range chunk {
		chunk[i] = s.r.Uint64()
	}
}

// isDelete reports whether op deletes a ball (probability 1/2); otherwise
// it inserts one.
func isDelete(op uint64) bool { return op&1 == 1 }

// victim maps op's high 32 bits onto a uniform index in [0, live).
func victim(op uint64, live int) int { return int((op >> 32) * uint64(live) >> 32) }

// quantile returns the q-quantile of xs (not modified) by Python's
// statistics.quantiles method: linear interpolation at 1-based position
// q·(len+1), extrapolating from the two end values beyond them.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := q * float64(len(s)+1)
	j := min(max(int(pos), 1), len(s)-1)
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}
