// Package sketch implements the saturating counting-Bloom / count-min
// counter array behind the approximate bin-load store (loadvec.SketchStore):
// depth independent hash rows of width uint8 counters. An increment of key b
// bumps one counter per row; the estimate for b is the minimum over its
// counters. Every counter is at least the sum of the true counts of the keys
// hashing to it, so estimates are ONE-SIDED: estimate(b) >= true count of b,
// always — collisions inflate, never deflate.
//
// Counters saturate at 255 and become sticky: once a counter saturates it
// never moves again (increments are dropped, decrements skip it). Stickiness
// preserves the one-sided invariant under deletions — decrementing a
// saturated counter could push it below the surviving keys' true sum —
// at the price of the estimate freezing at 255 for the affected keys. The
// processes this package serves keep loads O(ln ln n) (Park's Theorems 1-2),
// so with any reasonable width the per-counter sums stay far below 255 and
// saturation never triggers in practice; if a row is driven past 255 the
// one-sided guarantee degrades to "estimate >= min(true count, 255)".
//
// All hashing is the splitmix64 finalizer over a per-row seed derived from a
// fixed constant, so two sketches with equal geometry agree bit for bit on
// every operation sequence. The counter layout and hash recipe are private:
// loadvec.SketchStore, the package's one importer, reads loads through
// Estimate.
package sketch

import "fmt"

// Saturated is the sticky ceiling value of a counter.
const Saturated = 255

// baseSeed derives the per-row hash seeds; a fixed constant keeps equal
// geometries bit-reproducible across runs and processes.
const baseSeed = 0x5ca1ab1e0ddba11

// hashMul spreads the key before the per-row mix (the same multiplier the
// core tie-break hashes use).
const hashMul = 0x9e3779b97f4a7c15

// CountMin is a depth x width saturating counter array. The zero value is
// not usable; construct with New.
type CountMin struct {
	rows  []uint8 // depth rows of width counters, row r at [r*width, (r+1)*width)
	seeds []uint64
	width int // power of two
	mask  uint64
	depth int
}

// New returns an empty sketch with the given geometry. width is rounded up
// to a power of two (minimum 64); depth must be in [1, 8].
func New(width, depth int) (*CountMin, error) {
	if width < 0 {
		return nil, fmt.Errorf("sketch: width %d must be non-negative", width)
	}
	if depth < 1 || depth > 8 {
		return nil, fmt.Errorf("sketch: depth %d out of range [1, 8]", depth)
	}
	w := 64
	for w < width {
		w *= 2
	}
	c := &CountMin{
		rows:  make([]uint8, w*depth),
		seeds: make([]uint64, depth),
		width: w,
		mask:  uint64(w - 1),
		depth: depth,
	}
	for r := range c.seeds {
		c.seeds[r] = mix64(baseSeed + uint64(r)*hashMul)
	}
	return c, nil
}

// Width returns the (power-of-two) row width.
func (c *CountMin) Width() int { return c.width }

// Depth returns the number of hash rows.
func (c *CountMin) Depth() int { return c.depth }

// Bytes returns the counter-array footprint in bytes.
func (c *CountMin) Bytes() int { return len(c.rows) }

// mix64 is the splitmix64 finalizer, the bijective mixer behind the row
// hashes.
//
//kd:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cell returns the flat rows index of key's counter in row r.
//
//kd:hotpath
func (c *CountMin) cell(r, key int) int {
	return r*c.width + int(mix64(c.seeds[r]^uint64(key)*hashMul)&c.mask)
}

// Estimate returns the current estimate for key: the minimum of its
// counters, always >= the key's true count (subject to the saturation
// caveat in the package comment).
//
//kd:hotpath
func (c *CountMin) Estimate(key int) int {
	est := int(c.rows[c.cell(0, key)])
	for r := 1; r < c.depth; r++ {
		if v := int(c.rows[c.cell(r, key)]); v < est {
			est = v
		}
	}
	return est
}

// Add adds w >= 0 to key's counter in every row (saturating) and returns
// the post-add estimate.
//
//kd:hotpath
func (c *CountMin) Add(key, w int) int {
	est := Saturated
	for r := 0; r < c.depth; r++ {
		i := c.cell(r, key)
		v := int(c.rows[i])
		if v != Saturated {
			v += w
			if v >= Saturated {
				v = Saturated // sticky from here on
			}
			c.rows[i] = uint8(v)
		}
		if v < est {
			est = v
		}
	}
	return est
}

// Sub removes w >= 0 from key's counter in every non-saturated row.
// Saturated counters are sticky (see the package comment); counters clamp
// at zero defensively, though a caller that only ever removes weight it
// previously added can never drive one negative.
//
//kd:hotpath
func (c *CountMin) Sub(key, w int) {
	for r := 0; r < c.depth; r++ {
		i := c.cell(r, key)
		v := int(c.rows[i])
		if v == Saturated {
			continue
		}
		v -= w
		if v < 0 {
			v = 0
		}
		c.rows[i] = uint8(v)
	}
}

// Reset zeroes every counter.
func (c *CountMin) Reset() {
	for i := range c.rows {
		c.rows[i] = 0
	}
}

// Raw returns the flat counter array (depth rows of Width() counters), so
// the owner can advise its memory (loadvec.NewSketch asks for huge pages).
// Read-only for callers.
func (c *CountMin) Raw() []uint8 { return c.rows }
