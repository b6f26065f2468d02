package loadvec

// This file holds the sub-byte stores behind the 10⁸-10⁹-bin regime:
//
//   - NibbleStore: 4 bits per bin (two bins per byte, ~0.5 B/bin) with the
//     same lossless overflow escape as CompactStore — a cell that reaches
//     load 15 moves to a wide side table and is reclaimed when it drains
//     back under the sentinel. The store stays EXACT at every magnitude;
//     the paper's regimes (Theorems 1-2) keep loads far below 15, so the
//     side table stays empty in practice.
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

// NibbleStore packs two bins per byte; cells that reach load 15 escape to
// a wide side table. Loads stay exact at every magnitude.
type NibbleStore struct {
	packed []uint8 // bin b occupies bits [4*(b&1), 4*(b&1)+4) of packed[b>>1]
	wide   map[int]int
	n      int
	max    int
	balls  int
}

// NewNibble returns an empty nibble-packed store over n bins.
func NewNibble(n int) *NibbleStore {
	s := &NibbleStore{packed: make([]uint8, (n+1)/2), wide: make(map[int]int), n: n}
	adviseHuge(s.packed)
	return s
}

// Kind implements Store.
func (s *NibbleStore) Kind() StoreKind { return StoreNibble }

// Len implements Store.
func (s *NibbleStore) Len() int { return s.n }

// nib reads bin's packed cell (possibly the escape sentinel).
//
//kd:hotpath
func (s *NibbleStore) nib(bin int) int {
	return int(s.packed[bin>>1]>>((bin&1)<<2)) & 0xF
}

// setNib overwrites bin's packed cell with v in [0, 15].
//
//kd:hotpath
func (s *NibbleStore) setNib(bin, v int) {
	sh := uint(bin&1) << 2
	s.packed[bin>>1] = s.packed[bin>>1]&^(0xF<<sh) | uint8(v)<<sh
}

// Load implements Store. The non-escaped fast path is small enough to
// inline into callers; the wide-table lookup is outlined so the map access
// cannot blow the inlining budget.
//
//kd:hotpath
func (s *NibbleStore) Load(bin int) int {
	if v := int(s.packed[bin>>1]>>((bin&1)<<2)) & 0xF; v != nibbleEscape {
		return v
	}
	return s.loadWide(bin)
}

// Gather implements Store: one shift+mask unpack per read, escape cells
// deferring to the wide side table.
//
//kd:hotpath
func (s *NibbleStore) Gather(bins, loads []int) {
	packed, wide := s.packed, s.wide
	loads = loads[:len(bins)]
	for i, b := range bins {
		v := int(packed[b>>1]>>((b&1)<<2)) & 0xF
		if v == nibbleEscape {
			v = wide[b]
		}
		loads[i] = v
	}
}

// loadWide returns the load of an escaped cell from the wide side table.
//
//kd:hotpath
func (s *NibbleStore) loadWide(bin int) int { return s.wide[bin] }

// Add implements Store. Like Load, the in-range increment stays inlinable
// and the escape transitions are outlined into addEscaped.
//
//kd:hotpath
func (s *NibbleStore) Add(bin int) int {
	if v := s.nib(bin); v < nibbleEscape-1 {
		v++
		s.setNib(bin, v)
		if v > s.max {
			s.max = v
		}
		s.balls++
		return v
	}
	return s.addEscaped(bin)
}

// addEscaped handles the two escape cases of Add — the cell is already
// wide, or this increment reaches the escape sentinel and moves it to the
// wide table — including the aggregate bookkeeping.
//
//kd:hotpath
func (s *NibbleStore) addEscaped(bin int) int {
	h := nibbleEscape
	if s.nib(bin) == nibbleEscape {
		h = s.wide[bin] + 1
		s.wide[bin] = h
	} else {
		s.setNib(bin, nibbleEscape)
		s.wide[bin] = nibbleEscape
	}
	if h > s.max {
		s.max = h
	}
	s.balls++
	return h
}

// AddN implements Store: a weighted add that stays in the packed cell
// whenever the result still fits under the escape sentinel, escaping
// otherwise.
//
//kd:hotpath
func (s *NibbleStore) AddN(bin, w int) int {
	checkWeight(w)
	if v := s.nib(bin); v != nibbleEscape && v+w < nibbleEscape {
		h := v + w
		s.setNib(bin, h)
		if h > s.max {
			s.max = h
		}
		s.balls += w
		return h
	}
	return s.addNEscaped(bin, w)
}

// addNEscaped handles the wide-table cases of AddN: the cell is already
// escaped, or this weighted add pushes it to (or past) the sentinel.
//
//kd:hotpath
func (s *NibbleStore) addNEscaped(bin, w int) int {
	var h int
	if s.nib(bin) == nibbleEscape {
		h = s.wide[bin] + w
	} else {
		h = s.nib(bin) + w
		s.setNib(bin, nibbleEscape)
	}
	s.wide[bin] = h
	if h > s.max {
		s.max = h
	}
	s.balls += w
	return h
}

// Sub implements Store. A wide cell that drains back under the escape
// sentinel is reclaimed into its packed cell and removed from the side
// table — the same no-leak discipline as CompactStore.Sub. Draining the
// maximum triggers a full rescan (HistStore remains the deletion-heavy
// choice).
//
//kd:hotpath
func (s *NibbleStore) Sub(bin, w int) int {
	checkWeight(w)
	old := s.Load(bin)
	v := old - w
	if v < 0 {
		panic("loadvec: Sub below zero load")
	}
	if s.nib(bin) == nibbleEscape {
		if v < nibbleEscape {
			// The cell fits in 4 bits again: reclaim it losslessly.
			delete(s.wide, bin)
			s.setNib(bin, v)
		} else {
			s.wide[bin] = v
		}
	} else {
		s.setNib(bin, v)
	}
	s.balls -= w
	if w > 0 && old == s.max {
		s.max = s.rescanMax()
	}
	return v
}

// BulkAdd implements Store: in-range cells increment with the max counter
// in a register; escaped cells fall back to addEscaped.
//
//kd:hotpath
func (s *NibbleStore) BulkAdd(bins []int) {
	max := s.max
	balls := s.balls
	for _, b := range bins {
		if v := s.nib(b); v < nibbleEscape-1 {
			s.setNib(b, v+1)
			if v+1 > max {
				max = v + 1
			}
			balls++
			continue
		}
		// Escape transition: flush the register copies so addEscaped sees
		// consistent state, then reload them.
		s.max, s.balls = max, balls
		s.addEscaped(b)
		max, balls = s.max, s.balls
	}
	s.max = max
	s.balls = balls
}

// Set implements Store.
func (s *NibbleStore) Set(bin, load int) {
	old := s.Load(bin)
	if s.nib(bin) == nibbleEscape {
		delete(s.wide, bin)
	}
	if load >= nibbleEscape {
		s.setNib(bin, nibbleEscape)
		s.wide[bin] = load
	} else {
		s.setNib(bin, load)
	}
	s.balls += load - old
	switch {
	case load > s.max:
		s.max = load
	case old == s.max && load < old:
		s.max = s.rescanMax()
	}
}

func (s *NibbleStore) rescanMax() int {
	m := 0
	for bin := 0; bin < s.n; bin++ {
		if v := s.Load(bin); v > m {
			m = v
		}
	}
	return m
}

// MaxLoad implements Store.
func (s *NibbleStore) MaxLoad() int { return s.max }

// Balls implements Store.
func (s *NibbleStore) Balls() int { return s.balls }

// NuY implements Store.
func (s *NibbleStore) NuY(y int) int {
	if y <= 0 {
		return s.n
	}
	c := 0
	if y >= nibbleEscape {
		// Only escaped cells can hold loads this large.
		for _, v := range s.wide {
			if v >= y {
				c++
			}
		}
		return c
	}
	for bin := 0; bin < s.n; bin++ {
		if s.nib(bin) >= y {
			c++ // escaped cells (nib == 15) hold >= 15 >= y
		}
	}
	return c
}

// Vector implements Store.
func (s *NibbleStore) Vector() Vector {
	out := make(Vector, s.n)
	for i := range out {
		out[i] = s.Load(i)
	}
	return out
}

// Reset implements Store.
func (s *NibbleStore) Reset() {
	for i := range s.packed {
		s.packed[i] = 0
	}
	s.wide = make(map[int]int)
	s.max, s.balls = 0, 0
}

// BytesPerBin implements Store.
func (s *NibbleStore) BytesPerBin() float64 {
	// ~48 bytes per escaped entry is a conservative map-overhead estimate.
	return 0.5 + float64(len(s.wide)*48)/float64(s.n)
}

// Escaped returns the number of bins currently in the wide side table.
func (s *NibbleStore) Escaped() int { return len(s.wide) }

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
	if load < 0 {
		panic("loadvec: negative load")
	}
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
