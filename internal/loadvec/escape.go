package loadvec

// This file holds escStore, the one implementation of the two exact
// escape-cell stores: CompactStore (one uint16 cell per bin, 2 B/bin) and
// NibbleStore (two 4-bit cells per byte, ~0.5 B/bin). A bin's load lives
// in its cell while it stays under the store's sentinel (65535 or 15). A
// load that reaches the sentinel moves losslessly to a wide side table
// behind a sentinel cell, and returns to its cell when it drains back
// under, so loads stay exact at every magnitude. The paper's regimes
// (Theorems 1-2: O(ln ln n) or m/n + O(1)) keep loads far below either
// sentinel, so the side table stays empty in practice.
//
// The cell width is the store's only parameter. E is the element type of
// the cell array, constrained by element types rather than methods, so Go
// compiles one instantiation per width in which the width test and the
// sentinel fold to constants: a cell read through getCell costs what a
// hand-written store's read does, with no dictionary call. The per-probe
// loops (Gather, BulkAdd) hoist the cell array, the wide table and the
// sentinel into locals. AddN and Sub keep an in-range path of one cell
// read and one cell write; only escaped or escaping cells take put, the
// one escape transition.

import "unsafe"

// cellWord enumerates the element types of an escape store's cell array:
// uint16 holds one cell per element; uint8 packs two 4-bit cells per byte,
// bin b in bits [4*(b&1), 4*(b&1)+4) of byte b>>1. Each helper below tells
// the two apart by unsafe.Sizeof, a constant in each instantiation, and
// calls no other generic function: a helper that did would load its
// callee's dictionary on every inlined call.
type cellWord interface {
	~uint8 | ~uint16
}

// sentinel returns the cell value that marks an escaped bin.
func sentinel[E cellWord]() int {
	var e E
	if unsafe.Sizeof(e) == 1 {
		return nibbleEscape
	}
	return escape16
}

// cellBits returns the width of one cell in bits.
func cellBits[E cellWord]() uint {
	var e E
	if unsafe.Sizeof(e) == 1 {
		return 4
	}
	return 16
}

// getCell reads bin b's cell (possibly the sentinel).
//
//kd:hotpath
func getCell[E cellWord](cells []E, b int) int {
	var e E
	if unsafe.Sizeof(e) == 1 {
		return int(cells[b>>1]>>((b&1)<<2)) & 0xF
	}
	return int(cells[b])
}

// setCell overwrites bin b's cell with v in [0, sentinel].
//
//kd:hotpath
func setCell[E cellWord](cells []E, b, v int) {
	var e E
	if unsafe.Sizeof(e) == 1 {
		sh := uint(b&1) << 2
		cells[b>>1] = cells[b>>1]&^(0xF<<sh) | E(v)<<sh
		return
	}
	cells[b] = E(v)
}

// escStore is the escape-cell store: the cell array, the wide side table
// of escaped loads, and the aggregates. CompactStore and NibbleStore embed
// it and add only their constructors, Kind and the compact store's
// RawLoads.
type escStore[E cellWord] struct {
	cells []E
	wide  map[int]int
	n     int
	max   int
	balls int
}

// newEscStore returns an empty escape store over n bins.
func newEscStore[E cellWord](n int) escStore[E] {
	size := n
	if cellBits[E]() == 4 {
		size = (n + 1) / 2
	}
	s := escStore[E]{cells: make([]E, size), wide: make(map[int]int), n: n}
	adviseHuge(s.cells)
	return s
}

// Len implements Store.
func (s *escStore[E]) Len() int { return s.n }

// Load implements Store.
//
//kd:hotpath
func (s *escStore[E]) Load(bin int) int {
	if v := getCell(s.cells, bin); v != sentinel[E]() {
		return v
	}
	return s.wide[bin]
}

// Gather implements Store: one cell read per probe, escaped cells
// deferring to the wide side table.
//
//kd:hotpath
func (s *escStore[E]) Gather(bins, loads []int) {
	cells, wide, esc := s.cells, s.wide, sentinel[E]()
	loads = loads[:len(bins)]
	for i, b := range bins {
		v := getCell(cells, b)
		if v == esc {
			v = wide[b]
		}
		loads[i] = v
	}
}

// Add implements Store. An escaped or escaping cell takes AddN's put.
//
//kd:hotpath
func (s *escStore[E]) Add(bin int) int {
	h := getCell(s.cells, bin) + 1
	if h >= sentinel[E]() {
		return s.AddN(bin, 1)
	}
	setCell(s.cells, bin, h)
	if h > s.max {
		s.max = h
	}
	s.balls++
	return h
}

// AddN implements Store: a weighted add that stays in the cell whenever
// the result still fits under the sentinel, and goes through put when the
// cell is escaped or the add escapes it.
//
//kd:hotpath
func (s *escStore[E]) AddN(bin, w int) int {
	checkWeight(w)
	esc := sentinel[E]()
	h := getCell(s.cells, bin)
	if h == esc {
		h = s.wide[bin]
	}
	h += w
	if h < esc {
		setCell(s.cells, bin, h)
	} else {
		s.put(bin, h)
	}
	if h > s.max {
		s.max = h
	}
	s.balls += w
	return h
}

// Sub implements Store. An escaped cell goes through put, which reclaims
// it into its cell once it drains under the sentinel, so deletion-heavy
// workloads cannot turn a transient load spike into permanent side-table
// growth. Draining the maximum triggers a rescan (see DenseStore.Sub;
// HistStore is the deletion-heavy choice).
//
//kd:hotpath
func (s *escStore[E]) Sub(bin, w int) int {
	checkWeight(w)
	old := getCell(s.cells, bin)
	escaped := old == sentinel[E]()
	if escaped {
		old = s.wide[bin]
	}
	v := old - w
	if v < 0 {
		panic("loadvec: Sub below zero load")
	}
	if escaped {
		s.put(bin, v)
	} else {
		setCell(s.cells, bin, v)
	}
	s.balls -= w
	if w > 0 && old == s.max {
		s.max = s.rescanMax()
	}
	return v
}

// put stores load v >= 0 in bin, whatever the bin held before: a load at
// or above the sentinel lives in the wide table behind a sentinel cell,
// and a load under it in the cell alone. So a cell escapes when its load
// reaches the sentinel and is reclaimed, its wide entry deleted, when the
// load drains under. The caller keeps the aggregates.
//
//kd:hotpath
func (s *escStore[E]) put(bin, v int) {
	esc := sentinel[E]()
	if v >= esc {
		setCell(s.cells, bin, esc)
		s.wide[bin] = v
		return
	}
	delete(s.wide, bin)
	setCell(s.cells, bin, v)
}

// BulkAdd implements Store: in-range cells increment with the max counter
// in a register; escaped and escaping cells go through put.
//
//kd:hotpath
func (s *escStore[E]) BulkAdd(bins []int) {
	cells, esc := s.cells, sentinel[E]()
	max := s.max
	for _, b := range bins {
		h := getCell(cells, b) + 1
		if h < esc {
			setCell(cells, b, h)
		} else {
			h = s.Load(b) + 1
			s.put(b, h)
		}
		if h > max {
			max = h
		}
	}
	s.max = max
	s.balls += len(bins)
}

// Set implements Store.
func (s *escStore[E]) Set(bin, load int) {
	checkLoad(load)
	old := s.Load(bin)
	s.put(bin, load)
	s.balls += load - old
	switch {
	case load > s.max:
		s.max = load
	case old == s.max && load < old:
		s.max = s.rescanMax()
	}
}

// rescanMax recomputes the maximum load after the tracked one drained. An
// escaped load is at least the sentinel, above every cell, so a non-empty
// wide table holds the maximum.
func (s *escStore[E]) rescanMax() int {
	m := 0
	if len(s.wide) > 0 {
		//kdlint:ordered the maximum of the values does not depend on the order they are visited in
		for _, v := range s.wide {
			m = max(m, v)
		}
		return m
	}
	cells := s.cells
	for b := 0; b < s.n; b++ {
		m = max(m, getCell(cells, b))
	}
	return m
}

// MaxLoad implements Store.
func (s *escStore[E]) MaxLoad() int { return s.max }

// Balls implements Store.
func (s *escStore[E]) Balls() int { return s.balls }

// NuY implements Store.
func (s *escStore[E]) NuY(y int) int {
	if y <= 0 {
		return s.n
	}
	c := 0
	if y >= sentinel[E]() {
		// Only escaped cells can hold loads this large.
		for _, v := range s.wide {
			if v >= y {
				c++
			}
		}
		return c
	}
	cells := s.cells
	for b := 0; b < s.n; b++ {
		if getCell(cells, b) >= y {
			c++ // escaped cells hold the sentinel, above y
		}
	}
	return c
}

// Vector implements Store.
func (s *escStore[E]) Vector() Vector {
	cells, wide, esc := s.cells, s.wide, sentinel[E]()
	out := make(Vector, s.n)
	for b := range out {
		v := getCell(cells, b)
		if v == esc {
			v = wide[b]
		}
		out[b] = v
	}
	return out
}

// Reset implements Store.
func (s *escStore[E]) Reset() {
	clear(s.cells)
	s.wide = make(map[int]int)
	s.max, s.balls = 0, 0
}

// BytesPerBin implements Store.
func (s *escStore[E]) BytesPerBin() float64 {
	// ~48 bytes per escaped entry is a conservative map-overhead estimate.
	return float64(cellBits[E]())/8 + float64(len(s.wide)*48)/float64(s.n)
}

// Escaped returns the number of bins currently in the wide side table.
func (s *escStore[E]) Escaped() int { return len(s.wide) }
