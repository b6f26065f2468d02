package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// host describes the machine a run was measured on. Steal ticks count the
// time the hypervisor ran other guests on this one's CPUs during the run,
// so noisy-neighbour runs are visible beside their numbers.
type host struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	L3Bytes    int64  `json:"l3_bytes"`
	StealTicks int64  `json:"steal_ticks"`
}

func newHost(stealTicks int64) host {
	return host{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		L3Bytes:    l3Bytes(),
		StealTicks: stealTicks,
	}
}

// stealTicks returns the cumulative steal ticks of all CPUs from
// /proc/stat, or 0 where the file is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64) // user nice system idle iowait irq softirq steal
	return v
}

// l3Bytes returns CPU 0's level-3 cache size from sysfs, or 0 where it is
// not reported.
func l3Bytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range dirs {
		level, err := os.ReadFile(filepath.Join(dir, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "3" {
			continue
		}
		size, err := os.ReadFile(filepath.Join(dir, "size"))
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return v * mult
	}
	return 0
}

// rtSample is a snapshot of the Go runtime counters a timed section is
// charged with: heap allocations, GC cycles, and the scheduler latency
// histogram (time goroutines spent runnable before running).
type rtSample struct {
	mallocs uint64
	gcs     uint32
	sched   *metrics.Float64Histogram
}

const schedLatencies = "/sched/latencies:seconds"

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(s)
	var h *metrics.Float64Histogram
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h = s[0].Value.Float64Histogram()
	}
	return rtSample{mallocs: ms.Mallocs, gcs: ms.NumGC, sched: h}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	mallocs        uint64
	gcs            uint32
	schedP99Ns     float64
	schedLatencies uint64 // samples behind schedP99Ns
}

func (after rtSample) since(before rtSample) rtDelta {
	d := rtDelta{mallocs: after.mallocs - before.mallocs, gcs: after.gcs - before.gcs}
	if after.sched == nil || before.sched == nil || len(after.sched.Counts) != len(before.sched.Counts) {
		return d
	}
	counts := make([]uint64, len(after.sched.Counts))
	for i := range counts {
		counts[i] = after.sched.Counts[i] - before.sched.Counts[i]
		d.schedLatencies += counts[i]
	}
	d.schedP99Ns = histQuantile(counts, after.sched.Buckets, 0.99) * 1e9
	return d
}

// histQuantile returns quantile q of a runtime/metrics histogram,
// interpolating linearly inside the bucket that holds it (an infinite
// bucket edge is replaced by the finite one). It returns 0 for an empty
// histogram.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return buckets[len(buckets)-1]
}
