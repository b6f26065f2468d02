package loadvec

// This file holds the sub-byte stores behind the 10⁸-10⁹-bin regime:
//
//   - NibbleStore: 4 bits per bin (two bins per byte, ~0.5 B/bin), EXACT
//     at every magnitude: it is the escape-cell store of escape.go at the
//     4-bit width, sharing every method with CompactStore.
//   - SketchStore: the count-min approximate store (internal/sketch) —
//     configurable depth x width saturating uint8 counters, <0.5 B/bin at
//     the default geometry. Loads are ONE-SIDED ESTIMATES: Load/MaxLoad/
//     NuY never under-report (collisions inflate, never deflate), so a max
//     load read off a sketch is an upper bound on the true max. The ball
//     counter stays exact. This is the only store that breaks the
//     bit-identical-across-stores contract; its Gather is pinned to its own
//     Load instead (TestGatherMatchesLoad), and the count-min layout stays
//     behind this package: nothing else imports internal/sketch.

import (
	"fmt"

	"repro/internal/sketch"
)

// nibbleEscape marks a packed cell whose load outgrew 4 bits; the true
// load lives in the wide side table.
const nibbleEscape = 0xF

// NibbleStore packs two 4-bit cells per byte (~0.5 B/bin); a cell that
// reaches load 15 escapes to the wide side table of the escape-cell store
// it embeds (escape.go). Loads stay exact at every magnitude.
type NibbleStore struct{ escStore[uint8] }

// NewNibble returns an empty nibble-packed store over n bins.
func NewNibble(n int) *NibbleStore { return &NibbleStore{newEscStore[uint8](n)} }

// Kind implements Store.
func (s *NibbleStore) Kind() StoreKind { return StoreNibble }

// SketchStore is the count-min approximate store: Load returns a one-sided
// overestimate (never below the bin's true load), Balls stays exact, and
// MaxLoad is a running upper bound on the true maximum — on Add it tracks
// the largest post-add estimate, and draining the tracked maximum triggers
// a full estimate rescan, mirroring the dense store's discipline.
type SketchStore struct {
	cm    *sketch.CountMin
	n     int
	max   int
	balls int
}

// NewSketch returns an empty sketch store over n bins. width 0 auto-sizes
// to n/8 cells per row (~0.25 B/bin at the default depth) and depth 0
// defaults to 2 rows; explicit widths round up to a power of two.
func NewSketch(n, width, depth int) (*SketchStore, error) {
	if width == 0 {
		width = n / 8
	}
	if depth == 0 {
		depth = 2
	}
	cm, err := sketch.New(width, depth)
	if err != nil {
		return nil, fmt.Errorf("loadvec: %w", err)
	}
	adviseHuge(cm.Raw())
	return &SketchStore{cm: cm, n: n}, nil
}

// Kind implements Store.
func (s *SketchStore) Kind() StoreKind { return StoreSketch }

// Len implements Store.
func (s *SketchStore) Len() int { return s.n }

// Load implements Store: the bin's current estimate (>= its true load).
//
//kd:hotpath
func (s *SketchStore) Load(bin int) int { return s.cm.Estimate(bin) }

// Gather implements Store: one count-min estimate per read.
//
//kd:hotpath
func (s *SketchStore) Gather(bins, loads []int) {
	loads = loads[:len(bins)]
	for i, b := range bins {
		loads[i] = s.cm.Estimate(b)
	}
}

// Add implements Store.
//
//kd:hotpath
func (s *SketchStore) Add(bin int) int {
	h := s.cm.Add(bin, 1)
	if h > s.max {
		s.max = h
	}
	s.balls++
	return h
}

// AddN implements Store.
//
//kd:hotpath
func (s *SketchStore) AddN(bin, w int) int {
	checkWeight(w)
	h := s.cm.Add(bin, w)
	if h > s.max {
		s.max = h
	}
	s.balls += w
	return h
}

// Sub implements Store. The zero-load panic contract is enforced on the
// estimate: an estimate below w proves the true load is below w (estimates
// never under-report), so the caller is deleting a ball that is not there.
//
//kd:hotpath
func (s *SketchStore) Sub(bin, w int) int {
	checkWeight(w)
	old := s.cm.Estimate(bin)
	if old < w {
		panic("loadvec: Sub below zero load")
	}
	s.cm.Sub(bin, w)
	s.balls -= w
	if w > 0 && old == s.max {
		s.max = s.rescanMax()
	}
	return s.cm.Estimate(bin)
}

// BulkAdd implements Store: the max and ball counters stay in registers
// across the batch.
//
//kd:hotpath
func (s *SketchStore) BulkAdd(bins []int) {
	max := s.max
	for _, b := range bins {
		if h := s.cm.Add(b, 1); h > max {
			max = h
		}
	}
	s.max = max
	s.balls += len(bins)
}

// Set implements Store — approximately: the sketch cannot address one bin
// exclusively, so Set applies the delta between the target and the current
// ESTIMATE (colliding bins shift with it). Exact-restoration scenarios
// need an exact store; Set here keeps the Store contract total for generic
// store-iterating tests.
func (s *SketchStore) Set(bin, load int) {
	checkLoad(load)
	old := s.cm.Estimate(bin)
	switch {
	case load > old:
		s.cm.Add(bin, load-old)
	case load < old:
		s.cm.Sub(bin, old-load)
	}
	s.balls += load - old
	switch {
	case load > s.max:
		s.max = load
	case old == s.max && load < old:
		s.max = s.rescanMax()
	}
}

// rescanMax recomputes the maximum estimate over all bins — O(n · depth),
// paid only when a deletion drains the tracked maximum.
func (s *SketchStore) rescanMax() int {
	m := 0
	for bin := 0; bin < s.n; bin++ {
		if v := s.cm.Estimate(bin); v > m {
			m = v
		}
	}
	return m
}

// MaxLoad implements Store: an O(1) upper bound on the true maximum load
// (exact over the estimates after insert-only streams and after any
// deletion that drained the tracked maximum).
func (s *SketchStore) MaxLoad() int { return s.max }

// Balls implements Store (exact: ball accounting never routes through the
// counters).
func (s *SketchStore) Balls() int { return s.balls }

// NuY implements Store: the number of bins whose ESTIMATE is at least y —
// a one-sided overcount of the true ν_y. O(n · depth); a final-statistics
// operation, never on the placement path.
func (s *SketchStore) NuY(y int) int {
	if y <= 0 {
		return s.n
	}
	c := 0
	for bin := 0; bin < s.n; bin++ {
		if s.cm.Estimate(bin) >= y {
			c++
		}
	}
	return c
}

// Vector implements Store: the per-bin estimates.
func (s *SketchStore) Vector() Vector {
	out := make(Vector, s.n)
	for i := range out {
		out[i] = s.cm.Estimate(i)
	}
	return out
}

// Reset implements Store.
func (s *SketchStore) Reset() {
	s.cm.Reset()
	s.max, s.balls = 0, 0
}

// BytesPerBin implements Store.
func (s *SketchStore) BytesPerBin() float64 {
	return float64(s.cm.Bytes()) / float64(s.n)
}
