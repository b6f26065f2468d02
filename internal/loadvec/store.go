package loadvec

// This file defines Store, the bin-load state abstraction behind the core
// allocation engine. A Store holds the load of every bin and maintains the
// aggregate statistics the processes and experiments query after (or during)
// a run: maximum load, total balls, and the occupancy counts ν_y.
//
// Five implementations exist, selectable per run (the two sub-byte stores
// live in approx.go):
//
//   - DenseStore: the reference representation, one int per bin (8 B/bin).
//   - CompactStore: one uint16 per bin (2 B/bin) with an overflow escape —
//     a cell that reaches load 65535 is marked escaped and its true load
//     moves to a wide side table. The paper's regimes keep loads tiny
//     (Theorems 1-2: O(ln ln n) or m/n + O(1)), so in practice the side
//     table stays empty and a 10⁸-bin run fits in ~200 MB instead of 800.
//   - HistStore: int32 loads (4 B/bin) plus a maintained load histogram
//     (count[y] = bins with load exactly y), giving MaxLoad, Gap and NuY
//     without ever scanning the n bins — NuY costs O(max load − y), and max
//     load in the processes studied here is tiny compared to n.
//   - NibbleStore: 4 bits per bin (~0.5 B/bin) with the same lossless
//     escape discipline as CompactStore at sentinel load 15; still exact.
//   - SketchStore: count-min counters (<0.5 B/bin at the default geometry);
//     loads become one-sided overestimates, the ball counter stays exact.
//
// Every store except SketchStore is exact: loads never saturate or
// approximate, so every process produces bit-identical results on every
// exact store for equal seeds (pinned by the cross-store equivalence tests
// in internal/core). SketchStore trades that for sub-nibble memory; its
// estimates never under-report.
//
// The round engine reads a store in one way only: Gather fills the loads
// of a round's sampled bins in one call. Each store implements it as a
// plain loop over its own cell array and escape table (a dense, int32 or
// uint16 index; a nibble unpack; a count-min estimate), so the cell
// layouts stay private to this package. CellView lends the engine the one
// fact it needs beyond that: where the cell array lies, for prefetching.

import (
	"fmt"
	"math"
	"sort"
	"unsafe"
)

// StoreKind selects a Store implementation.
type StoreKind int

// Supported store kinds.
const (
	// StoreDense is the reference []int representation (8 bytes/bin).
	StoreDense StoreKind = iota
	// StoreCompact is the uint16-with-overflow-escape representation
	// (2 bytes/bin steady state).
	StoreCompact
	// StoreHist is the histogram-indexed representation (4 bytes/bin,
	// occupancy statistics without scanning the bins).
	StoreHist
	// StoreNibble is the 4-bits-per-bin packed representation with overflow
	// escape (~0.5 bytes/bin steady state, still exact).
	StoreNibble
	// StoreSketch is the count-min approximate representation (<0.5
	// bytes/bin at the default geometry; loads are one-sided overestimates).
	StoreSketch
)

var storeNames = map[StoreKind]string{
	StoreDense:   "dense",
	StoreCompact: "compact",
	StoreHist:    "hist",
	StoreNibble:  "nibble",
	StoreSketch:  "sketch",
}

// storeNotes carries the one-line memory/accuracy note printed next to each
// store name in command help output.
var storeNotes = map[StoreKind]string{
	StoreDense:   "exact []int reference, 8 B/bin",
	StoreCompact: "exact uint16 cells + overflow escape, 2 B/bin",
	StoreHist:    "exact int32 cells + load histogram, 4 B/bin, O(1) deletion stats",
	StoreNibble:  "exact 4-bit cells + overflow escape, ~0.5 B/bin",
	StoreSketch:  "approximate count-min counters, <0.5 B/bin, one-sided overestimates",
}

// String returns the canonical short name of the store kind.
func (k StoreKind) String() string {
	if s, ok := storeNames[k]; ok {
		return s
	}
	return fmt.Sprintf("store(%d)", int(k))
}

// StoreNames returns the canonical store names in sorted order.
func StoreNames() []string {
	names := make([]string, 0, len(storeNames))
	for _, n := range storeNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StoreHelp returns one "name — note" line per store in sorted name order,
// for command flag help.
func StoreHelp() []string {
	lines := make([]string, 0, len(storeNames))
	for k, n := range storeNames {
		lines = append(lines, n+" — "+storeNotes[k])
	}
	sort.Strings(lines)
	return lines
}

// ParseStoreKind converts a short name (as printed by StoreKind.String)
// back into a StoreKind.
func ParseStoreKind(s string) (StoreKind, error) {
	//kdlint:ordered store names are unique, so the first (only) match is independent of iteration order
	for k, name := range storeNames {
		if name == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("loadvec: unknown store %q (valid: %v)", s, StoreNames())
}

// Store is the bin-load state of an allocation process. One-shot
// simulations only grow loads through Add/AddN; the online-serving layer
// also drains bins through Sub as balls depart. Set exists for test
// scenarios and snapshot restoration. A Store is not safe for concurrent
// mutation, but concurrent reads (Load/Gather/MaxLoad/NuY) with no writer
// are safe — the sharded engine's decide phase relies on this: its workers
// Gather disjoint chunks of one frozen store at once.
type Store interface {
	// Kind identifies the implementation.
	Kind() StoreKind
	// Len returns the number of bins.
	Len() int
	// Load returns the load of the given bin.
	Load(bin int) int
	// Gather sets loads[i] = Load(bins[i]) for every i (bins may repeat;
	// loads must be at least as long as bins). It is the per-round read of
	// the round engine: one call per round instead of one per bin. Read-only
	// and safe for concurrent readers.
	Gather(bins, loads []int)
	// Add places one ball into the bin and returns its new load (the
	// ball's height).
	Add(bin int) int
	// AddN adds w >= 0 load units to the bin in one step — a weighted ball
	// — and returns the bin's new load. AddN(bin, 1) is Add(bin).
	AddN(bin, w int) int
	// Sub removes w >= 0 load units from the bin and returns its new load,
	// keeping every aggregate (balls, max load, histogram) consistent as
	// the bin drains. It panics if the bin holds fewer than w units:
	// deleting a ball that is not there is a caller bug, not an empty bin.
	Sub(bin, w int) int
	// BulkAdd places one ball into every listed bin (bins may repeat) with
	// a single aggregate-bookkeeping update — the store-specific bulk
	// increment used by the round engines when no per-ball height needs to
	// be observed. The final state is exactly that of calling Add once per
	// entry in order.
	BulkAdd(bins []int)
	// Set overwrites the bin's load, keeping the aggregate bookkeeping
	// (balls, max load, histogram) consistent. Not a hot-path operation.
	Set(bin, load int)
	// MaxLoad returns the current maximum load in O(1).
	MaxLoad() int
	// Balls returns the total number of balls held.
	Balls() int
	// NuY returns ν_y, the number of bins with at least y balls.
	NuY(y int) int
	// Vector returns a dense copy of the per-bin loads.
	Vector() Vector
	// Reset restores all bins to empty.
	Reset()
	// BytesPerBin reports the approximate steady-state memory cost per bin
	// of this store instance.
	BytesPerBin() float64
}

// NewStore constructs the store of the given kind over n bins.
func NewStore(kind StoreKind, n int) (Store, error) {
	switch kind {
	case StoreDense:
		return NewDense(n), nil
	case StoreCompact:
		return NewCompact(n), nil
	case StoreHist:
		return NewHist(n), nil
	case StoreNibble:
		return NewNibble(n), nil
	case StoreSketch:
		return NewSketch(n, 0, 0)
	default:
		return nil, fmt.Errorf("loadvec: unknown store kind %d (valid: %v)", int(kind), StoreNames())
	}
}

// checkWeight rejects negative weights for AddN/Sub; a negative w would
// silently invert the operation and desynchronize the ball counter's sign
// conventions.
func checkWeight(w int) {
	if w < 0 {
		panic("loadvec: negative weight")
	}
}

// DenseStore is the reference representation: one int per bin.
type DenseStore struct {
	loads []int
	max   int
	balls int
}

// NewDense returns an empty dense store over n bins.
func NewDense(n int) *DenseStore {
	s := &DenseStore{loads: make([]int, n)}
	adviseHuge(s.loads)
	return s
}

// Kind implements Store.
func (s *DenseStore) Kind() StoreKind { return StoreDense }

// Len implements Store.
func (s *DenseStore) Len() int { return len(s.loads) }

// Load implements Store.
//
//kd:hotpath
func (s *DenseStore) Load(bin int) int { return s.loads[bin] }

// Gather implements Store.
//
//kd:hotpath
func (s *DenseStore) Gather(bins, loads []int) { gatherCells(bins, loads, s.loads, -1, nil) }

// Add implements Store.
//
//kd:hotpath
func (s *DenseStore) Add(bin int) int {
	s.loads[bin]++
	h := s.loads[bin]
	if h > s.max {
		s.max = h
	}
	s.balls++
	return h
}

// AddN implements Store.
//
//kd:hotpath
func (s *DenseStore) AddN(bin, w int) int {
	checkWeight(w)
	v := s.loads[bin] + w
	s.loads[bin] = v
	if v > s.max {
		s.max = v
	}
	s.balls += w
	return v
}

// Sub implements Store. Draining the (possibly shared) maximum triggers a
// full rescan; deletion-heavy workloads that cannot afford O(n) rescans
// should run on HistStore, whose histogram walks the max down in O(1)
// amortized.
//
//kd:hotpath
func (s *DenseStore) Sub(bin, w int) int {
	checkWeight(w)
	old := s.loads[bin]
	v := old - w
	if v < 0 {
		panic("loadvec: Sub below zero load")
	}
	s.loads[bin] = v
	s.balls -= w
	if w > 0 && old == s.max {
		s.max = Vector(s.loads).Max()
	}
	return v
}

// BulkAdd implements Store: the max and ball counters stay in registers
// across the whole batch instead of being re-written per ball.
//
//kd:hotpath
func (s *DenseStore) BulkAdd(bins []int) {
	max := s.max
	for _, b := range bins {
		v := s.loads[b] + 1
		s.loads[b] = v
		if v > max {
			max = v
		}
	}
	s.max = max
	s.balls += len(bins)
}

// Set implements Store.
func (s *DenseStore) Set(bin, load int) {
	old := s.loads[bin]
	s.loads[bin] = load
	s.balls += load - old
	switch {
	case load > s.max:
		s.max = load
	case old == s.max && load < old:
		s.max = Vector(s.loads).Max()
	}
}

// MaxLoad implements Store.
func (s *DenseStore) MaxLoad() int { return s.max }

// Balls implements Store.
func (s *DenseStore) Balls() int { return s.balls }

// NuY implements Store.
func (s *DenseStore) NuY(y int) int { return Vector(s.loads).NuY(y) }

// Vector implements Store.
func (s *DenseStore) Vector() Vector { return Vector(s.loads).Clone() }

// Reset implements Store.
func (s *DenseStore) Reset() {
	for i := range s.loads {
		s.loads[i] = 0
	}
	s.max, s.balls = 0, 0
}

// BytesPerBin implements Store.
func (s *DenseStore) BytesPerBin() float64 { return 8 }

// escape16 marks a compact cell whose load outgrew uint16; the true load
// lives in the wide side table.
const escape16 = math.MaxUint16

// CompactStore holds one uint16 per bin; cells that reach load 65535 escape
// to a wide side table. Loads stay exact at every magnitude.
type CompactStore struct {
	small []uint16
	wide  map[int]int
	max   int
	balls int
}

// NewCompact returns an empty compact store over n bins.
func NewCompact(n int) *CompactStore {
	s := &CompactStore{small: make([]uint16, n), wide: make(map[int]int)}
	adviseHuge(s.small)
	return s
}

// Kind implements Store.
func (s *CompactStore) Kind() StoreKind { return StoreCompact }

// Len implements Store.
func (s *CompactStore) Len() int { return len(s.small) }

// Load implements Store. The non-escaped fast path is small enough to
// inline into callers; the wide-table lookup is outlined so the map access
// cannot blow the inlining budget.
//
//kd:hotpath
func (s *CompactStore) Load(bin int) int {
	if v := s.small[bin]; v != escape16 {
		return int(v)
	}
	return s.loadWide(bin)
}

// Gather implements Store.
//
//kd:hotpath
func (s *CompactStore) Gather(bins, loads []int) {
	gatherCells(bins, loads, s.small, escape16, s.wide)
}

// loadWide returns the load of an escaped cell from the wide side table.
//
//kd:hotpath
func (s *CompactStore) loadWide(bin int) int { return s.wide[bin] }

// Add implements Store. Like Load, the in-range increment stays inlinable
// and the escape transitions are outlined into addEscaped.
//
//kd:hotpath
func (s *CompactStore) Add(bin int) int {
	if v := s.small[bin]; v < escape16-1 {
		v++
		s.small[bin] = v
		h := int(v)
		if h > s.max {
			s.max = h
		}
		s.balls++
		return h
	}
	return s.addEscaped(bin)
}

// addEscaped handles the two escape cases of Add — the cell is already
// wide, or this increment reaches the escape sentinel and moves it to the
// wide table — including the aggregate bookkeeping.
//
//kd:hotpath
func (s *CompactStore) addEscaped(bin int) int {
	h := escape16
	if s.small[bin] == escape16 {
		h = s.wide[bin] + 1
		s.wide[bin] = h
	} else {
		s.small[bin] = escape16
		s.wide[bin] = escape16
	}
	if h > s.max {
		s.max = h
	}
	s.balls++
	return h
}

// AddN implements Store: a weighted add that stays in the small cell
// whenever the result still fits under the escape sentinel, escaping
// otherwise.
//
//kd:hotpath
func (s *CompactStore) AddN(bin, w int) int {
	checkWeight(w)
	if v := s.small[bin]; v != escape16 && int(v)+w < escape16 {
		h := int(v) + w
		s.small[bin] = uint16(h)
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
func (s *CompactStore) addNEscaped(bin, w int) int {
	var h int
	if s.small[bin] == escape16 {
		h = s.wide[bin] + w
	} else {
		h = int(s.small[bin]) + w
		s.small[bin] = escape16
	}
	s.wide[bin] = h
	if h > s.max {
		s.max = h
	}
	s.balls += w
	return h
}

// Sub implements Store. A wide cell that drains back under the escape
// sentinel is reclaimed into its small cell and removed from the side
// table, so deletion-heavy workloads cannot turn a transient load spike
// into permanent side-table growth. Draining the maximum triggers a full
// rescan (see DenseStore.Sub; HistStore is the deletion-heavy choice).
//
//kd:hotpath
func (s *CompactStore) Sub(bin, w int) int {
	checkWeight(w)
	old := s.Load(bin)
	v := old - w
	if v < 0 {
		panic("loadvec: Sub below zero load")
	}
	if s.small[bin] == escape16 {
		if v < escape16 {
			// The cell fits in uint16 again: reclaim it losslessly.
			delete(s.wide, bin)
			s.small[bin] = uint16(v)
		} else {
			s.wide[bin] = v
		}
	} else {
		s.small[bin] = uint16(v)
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
func (s *CompactStore) BulkAdd(bins []int) {
	max := s.max
	balls := s.balls
	for _, b := range bins {
		if v := s.small[b]; v < escape16-1 {
			s.small[b] = v + 1
			if h := int(v) + 1; h > max {
				max = h
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
func (s *CompactStore) Set(bin, load int) {
	old := s.Load(bin)
	if s.small[bin] == escape16 {
		delete(s.wide, bin)
	}
	if load >= escape16 {
		s.small[bin] = escape16
		s.wide[bin] = load
	} else {
		s.small[bin] = uint16(load)
	}
	s.balls += load - old
	switch {
	case load > s.max:
		s.max = load
	case old == s.max && load < old:
		s.max = s.rescanMax()
	}
}

func (s *CompactStore) rescanMax() int {
	m := 0
	for bin := range s.small {
		if v := s.Load(bin); v > m {
			m = v
		}
	}
	return m
}

// MaxLoad implements Store.
func (s *CompactStore) MaxLoad() int { return s.max }

// Balls implements Store.
func (s *CompactStore) Balls() int { return s.balls }

// NuY implements Store.
func (s *CompactStore) NuY(y int) int {
	if y <= 0 {
		return len(s.small)
	}
	c := 0
	if y >= escape16 {
		// Only escaped cells can hold loads this large.
		for _, v := range s.wide {
			if v >= y {
				c++
			}
		}
		return c
	}
	yy := uint16(y)
	for _, v := range s.small {
		if v >= yy {
			c++ // escaped cells (v == escape16) hold >= 65535 >= y
		}
	}
	return c
}

// Vector implements Store.
func (s *CompactStore) Vector() Vector {
	out := make(Vector, len(s.small))
	for i, v := range s.small {
		if v == escape16 {
			out[i] = s.wide[i]
		} else {
			out[i] = int(v)
		}
	}
	return out
}

// Reset implements Store.
func (s *CompactStore) Reset() {
	for i := range s.small {
		s.small[i] = 0
	}
	s.wide = make(map[int]int)
	s.max, s.balls = 0, 0
}

// BytesPerBin implements Store.
func (s *CompactStore) BytesPerBin() float64 {
	// ~48 bytes per escaped entry is a conservative map-overhead estimate.
	return 2 + float64(len(s.wide)*48)/float64(len(s.small))
}

// Escaped returns the number of bins currently in the wide side table.
func (s *CompactStore) Escaped() int { return len(s.wide) }

// HistStore keeps int32 loads plus a maintained histogram over load values,
// so MaxLoad, Balls and NuY never scan the bins: NuY(y) sums the histogram
// tail above y, which is O(max load − y) — and max load is exponentially
// smaller than n in every regime the paper studies.
type HistStore struct {
	loads []int32
	// count[y] = number of bins with load exactly y; len(count) = max+1
	// (grown on demand).
	count []int
	max   int
	balls int
}

// NewHist returns an empty histogram-indexed store over n bins.
func NewHist(n int) *HistStore {
	s := &HistStore{loads: make([]int32, n), count: []int{n}}
	adviseHuge(s.loads)
	return s
}

// Kind implements Store.
func (s *HistStore) Kind() StoreKind { return StoreHist }

// Len implements Store.
func (s *HistStore) Len() int { return len(s.loads) }

// Load implements Store.
//
//kd:hotpath
func (s *HistStore) Load(bin int) int { return int(s.loads[bin]) }

// Gather implements Store.
//
//kd:hotpath
func (s *HistStore) Gather(bins, loads []int) { gatherCells(bins, loads, s.loads, -1, nil) }

// Add implements Store. The histogram-growth path is outlined so the
// common increment stays small enough to inline into callers.
//
//kd:hotpath
func (s *HistStore) Add(bin int) int {
	y := int(s.loads[bin]) + 1
	s.loads[bin] = int32(y)
	s.count[y-1]--
	if y >= len(s.count) {
		s.grow(y)
	}
	s.count[y]++
	if y > s.max {
		s.max = y
	}
	s.balls++
	return y
}

// grow extends the histogram to cover load y.
func (s *HistStore) grow(y int) {
	for y >= len(s.count) {
		s.count = append(s.count, 0)
	}
}

// AddN implements Store: the bin's histogram cell moves from its old load
// to old+w in one step.
//
//kd:hotpath
func (s *HistStore) AddN(bin, w int) int {
	checkWeight(w)
	old := int(s.loads[bin])
	y := old + w
	if y > math.MaxInt32 {
		panic("loadvec: HistStore load exceeds int32")
	}
	s.loads[bin] = int32(y)
	s.count[old]--
	if y >= len(s.count) {
		s.grow(y)
	}
	s.count[y]++
	if y > s.max {
		s.max = y
	}
	s.balls += w
	return y
}

// Sub implements Store. This is the deletion-native store: draining the
// maximum walks the histogram down instead of scanning the bins, so a
// delete costs O(1) amortized even under adversarial delete-the-loaded
// workloads.
//
//kd:hotpath
func (s *HistStore) Sub(bin, w int) int {
	checkWeight(w)
	old := int(s.loads[bin])
	y := old - w
	if y < 0 {
		panic("loadvec: Sub below zero load")
	}
	s.loads[bin] = int32(y)
	s.count[old]--
	s.count[y]++
	s.balls -= w
	if old == s.max {
		for s.max > 0 && s.count[s.max] == 0 {
			s.max--
		}
	}
	return y
}

// BulkAdd implements Store. The histogram must move one unit per ball, so
// there is no cheaper aggregate form; the batch simply loops Add.
//
//kd:hotpath
func (s *HistStore) BulkAdd(bins []int) {
	for _, b := range bins {
		s.Add(b)
	}
}

// Set implements Store.
func (s *HistStore) Set(bin, load int) {
	if load > math.MaxInt32 {
		panic("loadvec: HistStore load exceeds int32")
	}
	old := int(s.loads[bin])
	s.loads[bin] = int32(load)
	s.count[old]--
	for load >= len(s.count) {
		s.count = append(s.count, 0)
	}
	s.count[load]++
	s.balls += load - old
	if load > s.max {
		s.max = load
	} else if old == s.max {
		// Walk the histogram down; no bin scan needed.
		for s.max > 0 && s.count[s.max] == 0 {
			s.max--
		}
	}
}

// MaxLoad implements Store.
func (s *HistStore) MaxLoad() int { return s.max }

// Balls implements Store.
func (s *HistStore) Balls() int { return s.balls }

// NuY implements Store.
func (s *HistStore) NuY(y int) int {
	if y <= 0 {
		return len(s.loads)
	}
	if y > s.max {
		return 0
	}
	c := 0
	for h := y; h <= s.max; h++ {
		c += s.count[h]
	}
	return c
}

// Histogram returns a copy of count[0..MaxLoad()], where count[y] is the
// number of bins holding exactly y balls.
func (s *HistStore) Histogram() []int {
	out := make([]int, s.max+1)
	copy(out, s.count[:s.max+1])
	return out
}

// Vector implements Store.
func (s *HistStore) Vector() Vector {
	out := make(Vector, len(s.loads))
	for i, v := range s.loads {
		out[i] = int(v)
	}
	return out
}

// Reset implements Store.
func (s *HistStore) Reset() {
	for i := range s.loads {
		s.loads[i] = 0
	}
	s.count = s.count[:1]
	s.count[0] = len(s.loads)
	s.max, s.balls = 0, 0
}

// BytesPerBin implements Store.
func (s *HistStore) BytesPerBin() float64 {
	return 4 + float64(8*len(s.count))/float64(len(s.loads))
}

// cell enumerates the per-bin cell types of the array stores; each has
// its own GC shape, so gatherCells compiles to one full instantiation per
// store whose cell read is a direct indexed load.
type cell interface {
	~int | ~int32 | ~uint16
}

// gatherCells is the gather loop of the array stores: loads[i] is the cell
// of bins[i], or its wide-table entry when the cell holds the escape
// sentinel esc (the compact store; the dense and hist stores pass -1,
// which no cell holds, and a nil table).
//
//kd:hotpath
func gatherCells[E cell](bins, loads []int, cells []E, esc int, wide map[int]int) {
	loads = loads[:len(bins)]
	for i, b := range bins {
		v := int(cells[b])
		if v == esc {
			v = wide[b]
		}
		loads[i] = v
	}
}

// CellView returns the address of the store's per-bin cell array and the
// width of one cell in bits, so that bin b's cell starts at byte b·bits/8:
// what a caller needs to prefetch the cells of the bins it will Gather
// next. The array is allocated once and Reset clears it in place, so the
// view holds for the store's life. A store whose load is not one cell per
// bin (the sketch) returns a nil base.
func CellView(s Store) (base unsafe.Pointer, bits uint) {
	switch s := s.(type) {
	case *DenseStore:
		return cellView(s.loads)
	case *CompactStore:
		return cellView(s.small)
	case *HistStore:
		return cellView(s.loads)
	case *NibbleStore:
		return unsafe.Pointer(unsafe.SliceData(s.packed)), 4
	}
	return nil, 0
}

func cellView[E cell](cells []E) (unsafe.Pointer, uint) {
	var e E
	return unsafe.Pointer(unsafe.SliceData(cells)), uint(unsafe.Sizeof(e)) * 8
}

// RawLoads exposes the dense store's backing load array to the benchmark
// module's layer replay. Read-only for callers: mutating it directly
// desynchronizes the aggregate bookkeeping.
func (s *DenseStore) RawLoads() []int { return s.loads }

// RawLoads exposes the compact store's small cells and wide side table to
// the benchmark module's layer replay: a cell equal to 65535 holds its
// true load in the map. Read-only for callers.
func (s *CompactStore) RawLoads() ([]uint16, map[int]int) { return s.small, s.wide }

// RawLoads exposes the histogram store's backing load array to the
// benchmark module's layer replay. Read-only for callers.
func (s *HistStore) RawLoads() []int32 { return s.loads }
