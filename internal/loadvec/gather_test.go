package loadvec

import (
	"sync"
	"testing"

	"repro/internal/xrand"
)

// TestGatherMatchesLoad pins every store's Gather to its own Load: for
// sampled bins with repeats, loads[i] must equal Load(bins[i]), and no
// entry past len(bins) may be written. The fill escapes one compact cell
// (load >= 65535) and two nibble cells (load >= 15), the sketch runs at a
// width far below n so its rows collide, and each store is checked again
// after Reset, which clears the cell arrays in place and reallocates the
// escape tables. The concurrent case has several readers Gather one store
// at once with no writer, the contract the sharded decide phase relies on;
// -race checks that no reader writes.
func TestGatherMatchesLoad(t *testing.T) {
	const n = 300
	narrow, err := NewSketch(n, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{NewDense(n), NewCompact(n), NewHist(n), NewNibble(n), narrow} {
		t.Run(s.Kind().String(), func(t *testing.T) {
			rng := xrand.New(5)
			fill := func() {
				for i := 0; i < 2000; i++ {
					s.Add(rng.Intn(n))
				}
				s.AddN(7, escape16+10) // escapes compact and nibble cells
				s.AddN(8, 2*nibbleEscape)
			}
			bins := make([]int, 512)
			loads := make([]int, len(bins)+3)
			check := func(stage string) {
				t.Helper()
				rng.FillIntn(bins, n)
				bins[0], bins[1], bins[2], bins[len(bins)-1] = 7, 7, 8, 7
				for i := range loads {
					loads[i] = -1
				}
				s.Gather(bins, loads)
				for i, b := range bins {
					if want := s.Load(b); loads[i] != want {
						t.Fatalf("%s: Gather read %d for bin %d at %d, Load reads %d", stage, loads[i], b, i, want)
					}
				}
				for i := len(bins); i < len(loads); i++ {
					if loads[i] != -1 {
						t.Fatalf("%s: Gather wrote loads[%d] past len(bins)", stage, i)
					}
				}
			}
			fill()
			if es, ok := s.(interface{ Escaped() int }); ok && es.Escaped() == 0 {
				t.Fatal("fill escaped no cell")
			}
			check("filled")
			s.Reset()
			check("reset")
			fill()
			check("refilled")

			const readers = 4
			want := make([]int, len(bins))
			for i, b := range bins {
				want[i] = s.Load(b)
			}
			got := make([]int, len(bins))
			var wg sync.WaitGroup
			chunk := len(bins) / readers
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(lo int) {
					defer wg.Done()
					for rep := 0; rep < 50; rep++ {
						s.Gather(bins[lo:lo+chunk], got[lo:lo+chunk])
					}
				}(r * chunk)
			}
			wg.Wait()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("concurrent: Gather read %d for bin %d at %d, Load reads %d", got[i], bins[i], i, want[i])
				}
			}
		})
	}
}
