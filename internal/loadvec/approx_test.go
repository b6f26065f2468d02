package loadvec

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestNibblePacking pins the two-bins-per-byte layout of the packed cells:
// even bins occupy the low nibble, odd bins the high nibble.
func TestNibblePacking(t *testing.T) {
	s := NewNibble(6)
	s.AddN(0, 3)
	s.AddN(1, 5)
	s.AddN(4, 14)
	packed, wide := s.cells, s.wide
	if len(packed) != 3 {
		t.Fatalf("packed length %d, want 3 bytes for 6 bins", len(packed))
	}
	if packed[0] != 0x53 {
		t.Fatalf("packed[0] = %#x, want 0x53 (bin0=3 low, bin1=5 high)", packed[0])
	}
	if packed[2] != 0x0e {
		t.Fatalf("packed[2] = %#x, want 0x0e", packed[2])
	}
	if len(wide) != 0 {
		t.Fatalf("wide table has %d entries before any escape", len(wide))
	}
	s.Add(4) // 14 -> 15: escapes
	packed, wide = s.cells, s.wide
	if packed[2]&0xF != nibbleEscape {
		t.Fatalf("bin 4 cell = %#x, want escape sentinel", packed[2]&0xF)
	}
	if wide[4] != 15 || s.Load(4) != 15 {
		t.Fatalf("escaped load = %d (wide %d), want 15", s.Load(4), wide[4])
	}
	if s.Escaped() != 1 {
		t.Fatalf("Escaped() = %d, want 1", s.Escaped())
	}
}

// TestNibbleEscapeReclaim drives one bin across the escape boundary in both
// directions and checks the wide cell is reclaimed losslessly — the PR 6
// compact-store reclaim discipline, extended to the nibble escape path.
func TestNibbleEscapeReclaim(t *testing.T) {
	s := NewNibble(4)
	for i := 0; i < 40; i++ {
		s.Add(2)
	}
	if s.Load(2) != 40 || s.Escaped() != 1 {
		t.Fatalf("load %d escaped %d, want 40/1", s.Load(2), s.Escaped())
	}
	s.Sub(2, 26) // 40 -> 14: back under the sentinel
	if s.Load(2) != 14 || s.Escaped() != 0 {
		t.Fatalf("after drain: load %d escaped %d, want 14/0", s.Load(2), s.Escaped())
	}
	if s.MaxLoad() != 14 || s.Balls() != 14 {
		t.Fatalf("aggregates max %d balls %d, want 14/14", s.MaxLoad(), s.Balls())
	}
}

// escapeStore is the common surface of the two overflow-escape stores.
type escapeStore interface {
	Store
	Escaped() int
}

// TestEscapeNeverLeaks is the escape regression guard: random interleaved
// Add/AddN/Sub/BulkAdd/Set traffic that repeatedly crosses the
// escape boundary must leave the wide side table holding EXACTLY the bins
// whose load is at or above the sentinel — no leaked entries from bins
// that drained back, for either escape store. The aggregates are checked
// against the shadow after every step too: MaxLoad (whose rescan after a
// drained maximum may read only the wide table while it is non-empty),
// Balls, and NuY on both sides of the sentinel.
func TestEscapeNeverLeaks(t *testing.T) {
	cases := []struct {
		name     string
		store    escapeStore
		sentinel int
	}{
		{"nibble", NewNibble(10), nibbleEscape},
		{"compact", NewCompact(10), escape16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 10
			rng := rand.New(rand.NewSource(11))
			s := tc.store
			shadow := make([]int, n)
			// Weights sized so loads regularly cross the sentinel.
			span := tc.sentinel + tc.sentinel/2 + 2
			for step := 0; step < 5000; step++ {
				b := rng.Intn(n)
				switch rng.Intn(5) {
				case 0:
					s.Add(b)
					shadow[b]++
				case 1:
					w := rng.Intn(span)
					s.AddN(b, w)
					shadow[b] += w
				case 2:
					if shadow[b] > 0 {
						w := 1 + rng.Intn(shadow[b])
						s.Sub(b, w)
						shadow[b] -= w
					}
				case 3:
					bins := make([]int, 1+rng.Intn(6))
					for i := range bins {
						bins[i] = rng.Intn(n)
						shadow[bins[i]]++
					}
					s.BulkAdd(bins)
				case 4:
					v := rng.Intn(2 * span)
					s.Set(b, v)
					shadow[b] = v
				}
				wantEscaped := 0
				for _, v := range shadow {
					if v >= tc.sentinel {
						wantEscaped++
					}
				}
				if got := s.Escaped(); got != wantEscaped {
					t.Fatalf("step %d: Escaped() = %d, want %d (loads %v)", step, got, wantEscaped, shadow)
				}
				if got := s.Vector(); !reflect.DeepEqual([]int(got), shadow) {
					t.Fatalf("step %d: Vector() = %v, want %v", step, got, shadow)
				}
				if got, want := s.MaxLoad(), Vector(shadow).Max(); got != want {
					t.Fatalf("step %d: MaxLoad() = %d, want %d (loads %v)", step, got, want, shadow)
				}
				if got, want := s.Balls(), Vector(shadow).Total(); got != want {
					t.Fatalf("step %d: Balls() = %d, want %d", step, got, want)
				}
				for _, y := range []int{1, tc.sentinel - 1, tc.sentinel, tc.sentinel + 1} {
					if got, want := s.NuY(y), Vector(shadow).NuY(y); got != want {
						t.Fatalf("step %d: NuY(%d) = %d, want %d (loads %v)", step, y, got, want, shadow)
					}
				}
			}
		})
	}
}

// TestSketchStoreOneSided drives the sketch store through mixed traffic
// against an exact dense shadow: every estimate, the max load, ν_y and the
// ball counter must respect the one-sided (or exact) contracts.
func TestSketchStoreOneSided(t *testing.T) {
	const n = 512
	s, err := NewSketch(n, 64, 2) // deliberately tight: heavy collisions
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDense(n)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 4000; step++ {
		b := rng.Intn(n)
		if ref.Load(b) > 0 && rng.Intn(3) == 0 {
			s.Sub(b, 1)
			ref.Sub(b, 1)
		} else {
			s.Add(b)
			ref.Add(b)
		}
		if est := s.Load(b); est < ref.Load(b) {
			t.Fatalf("step %d: estimate %d below true load %d", step, est, ref.Load(b))
		}
		if s.Balls() != ref.Balls() {
			t.Fatalf("step %d: balls %d, want exact %d", step, s.Balls(), ref.Balls())
		}
		if s.MaxLoad() < ref.MaxLoad() {
			t.Fatalf("step %d: max %d below true max %d", step, s.MaxLoad(), ref.MaxLoad())
		}
	}
	for y := 1; y <= ref.MaxLoad(); y++ {
		if s.NuY(y) < ref.NuY(y) {
			t.Fatalf("NuY(%d) = %d undercounts true %d", y, s.NuY(y), ref.NuY(y))
		}
	}
	if s.NuY(0) != n || s.NuY(-1) != n {
		t.Fatal("NuY(<=0) must count every bin")
	}
}

// TestSketchStoreBudget pins the default geometry's memory budget: under
// 0.5 B/bin for any n >= 1024, and the Sub-below-zero panic contract.
func TestSketchStoreBudget(t *testing.T) {
	for _, n := range []int{1024, 100000, 1 << 20} {
		s, err := NewSketch(n, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bpb := s.BytesPerBin(); bpb >= 0.5 {
			t.Fatalf("n=%d: default geometry costs %.3f B/bin, want < 0.5", n, bpb)
		}
	}
	s, _ := NewSketch(1024, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Sub on an empty bin did not panic")
		}
	}()
	s.Sub(3, 1)
}

// TestNibbleBytesPerBin pins the half-byte budget and its escape surcharge.
func TestNibbleBytesPerBin(t *testing.T) {
	s := NewNibble(1000)
	if got := s.BytesPerBin(); got != 0.5 {
		t.Fatalf("BytesPerBin() = %v, want 0.5 with no escapes", got)
	}
	s.AddN(7, 100)
	if got := s.BytesPerBin(); got <= 0.5 {
		t.Fatalf("BytesPerBin() = %v, want > 0.5 with one escape", got)
	}
}

// TestSketchReset pins Reset back to the all-empty state.
func TestSketchReset(t *testing.T) {
	s, _ := NewSketch(256, 64, 2)
	for i := 0; i < 500; i++ {
		s.Add(i % 256)
	}
	s.Reset()
	if s.Balls() != 0 || s.MaxLoad() != 0 {
		t.Fatalf("after Reset: balls %d max %d", s.Balls(), s.MaxLoad())
	}
	for b := 0; b < 256; b++ {
		if s.Load(b) != 0 {
			t.Fatalf("after Reset: Load(%d) = %d", b, s.Load(b))
		}
	}
}
