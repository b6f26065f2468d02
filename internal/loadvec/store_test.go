package loadvec

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func allStores(t *testing.T, n int) map[string]Store {
	t.Helper()
	out := make(map[string]Store)
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble} {
		s, err := NewStore(kind, n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kind() != kind {
			t.Fatalf("Kind() = %v, want %v", s.Kind(), kind)
		}
		out[kind.String()] = s
	}
	return out
}

func TestStoreKindRoundTrip(t *testing.T) {
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble, StoreSketch} {
		got, err := ParseStoreKind(kind.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != kind {
			t.Fatalf("round trip %v -> %q -> %v", kind, kind.String(), got)
		}
	}
	if _, err := ParseStoreKind("nope"); err == nil {
		t.Fatal("ParseStoreKind accepted garbage")
	}
	if _, err := NewStore(StoreKind(99), 4); err == nil {
		t.Fatal("NewStore accepted an unknown kind")
	}
	names := StoreNames()
	want := []string{"compact", "dense", "hist", "nibble", "sketch"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("StoreNames() = %v, want sorted %v", names, want)
	}
	help := StoreHelp()
	if len(help) != len(want) {
		t.Fatalf("StoreHelp() has %d lines, want %d", len(help), len(want))
	}
	for i, line := range help {
		if !strings.HasPrefix(line, want[i]+" — ") || len(line) <= len(want[i])+5 {
			t.Fatalf("StoreHelp()[%d] = %q, want %q with a non-empty note", i, line, want[i])
		}
	}
}

// TestStoresAgreeWithDense drives all three stores through an identical
// random-ish Add/Set/Reset schedule and checks every accessor agrees with
// the dense reference after every mutation batch.
func TestStoresAgreeWithDense(t *testing.T) {
	const n = 17
	stores := allStores(t, n)
	ref := stores["dense"]

	check := func(stage string) {
		t.Helper()
		want := ref.Vector()
		for name, s := range stores {
			if s.Len() != n {
				t.Fatalf("%s/%s: Len = %d", stage, name, s.Len())
			}
			if got := s.Vector(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: Vector = %v, want %v", stage, name, got, want)
			}
			for b := 0; b < n; b++ {
				if s.Load(b) != want[b] {
					t.Fatalf("%s/%s: Load(%d) = %d, want %d", stage, name, b, s.Load(b), want[b])
				}
			}
			if s.MaxLoad() != ref.MaxLoad() {
				t.Fatalf("%s/%s: MaxLoad = %d, want %d", stage, name, s.MaxLoad(), ref.MaxLoad())
			}
			if s.Balls() != ref.Balls() {
				t.Fatalf("%s/%s: Balls = %d, want %d", stage, name, s.Balls(), ref.Balls())
			}
			for y := -1; y <= ref.MaxLoad()+2; y++ {
				if s.NuY(y) != ref.NuY(y) {
					t.Fatalf("%s/%s: NuY(%d) = %d, want %d", stage, name, y, s.NuY(y), ref.NuY(y))
				}
			}
		}
	}

	add := func(bin int) {
		var want int
		first := true
		for name, s := range stores {
			h := s.Add(bin)
			if first {
				want, first = h, false
			} else if h != want {
				t.Fatalf("Add(%d) on %s returned %d, other store returned %d", bin, name, h, want)
			}
		}
	}

	for i := 0; i < 200; i++ {
		add((i * 7) % n)
	}
	check("adds")

	for _, s := range stores {
		s.Set(3, 0)
		s.Set(5, 42)
	}
	check("sets")

	// Lowering the unique maximum must rescan correctly.
	for _, s := range stores {
		s.Set(5, 1)
	}
	check("lower-max")

	for _, s := range stores {
		s.Reset()
	}
	check("reset")
	if ref.Balls() != 0 || ref.MaxLoad() != 0 {
		t.Fatal("reset left non-zero aggregates")
	}

	for i := 0; i < 50; i++ {
		add(i % n)
	}
	check("post-reset adds")
}

// TestCompactOverflowEscape pushes a bin past the uint16 range and checks
// the wide-cell escape keeps loads exact.
func TestCompactOverflowEscape(t *testing.T) {
	s := NewCompact(3)
	d := NewDense(3)
	const target = escape16 + 10
	for i := 0; i < target; i++ {
		hs := s.Add(1)
		hd := d.Add(1)
		if hs != hd {
			t.Fatalf("height diverged at ball %d: compact %d dense %d", i, hs, hd)
		}
	}
	if s.Escaped() != 1 {
		t.Fatalf("Escaped = %d, want 1", s.Escaped())
	}
	if s.Load(1) != target || s.MaxLoad() != target {
		t.Fatalf("Load/MaxLoad = %d/%d, want %d", s.Load(1), s.MaxLoad(), target)
	}
	if got, want := s.Vector(), d.Vector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Vector = %v, want %v", got, want)
	}
	for _, y := range []int{0, 1, escape16 - 1, escape16, target, target + 1} {
		if s.NuY(y) != d.NuY(y) {
			t.Fatalf("NuY(%d) = %d, want %d", y, s.NuY(y), d.NuY(y))
		}
	}
	// Set across the escape boundary in both directions.
	s.Set(1, 5)
	d.Set(1, 5)
	if s.Escaped() != 0 {
		t.Fatalf("Escaped after Set = %d, want 0", s.Escaped())
	}
	s.Set(2, escape16+3)
	d.Set(2, escape16+3)
	if !reflect.DeepEqual(s.Vector(), d.Vector()) || s.MaxLoad() != d.MaxLoad() || s.Balls() != d.Balls() {
		t.Fatalf("post-Set state diverged: %v vs %v", s.Vector(), d.Vector())
	}
	s.Reset()
	if s.Escaped() != 0 || s.Balls() != 0 || s.MaxLoad() != 0 {
		t.Fatal("Reset left escaped state behind")
	}
}

// TestHistStoreHistogram checks the maintained histogram against the dense
// Vector().Histogram().
func TestHistStoreHistogram(t *testing.T) {
	s := NewHist(9)
	for i := 0; i < 40; i++ {
		s.Add((i * i) % 9)
	}
	got := s.Histogram()
	want := s.Vector().Histogram()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Histogram = %v, want %v", got, want)
	}
}

// TestStoreAgreementProperty: random Add schedules leave all stores in
// identical observable states.
func TestStoreAgreementProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, ballsRaw uint8) bool {
		n := int(nRaw%30) + 1
		balls := int(ballsRaw) * 4
		stores := []Store{NewDense(n), NewCompact(n), NewHist(n)}
		st := seed
		next := func() uint64 { // splitmix-style local stream
			st += 0x9e3779b97f4a7c15
			z := st
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return z ^ (z >> 27)
		}
		for i := 0; i < balls; i++ {
			bin := int(next() % uint64(n))
			h := stores[0].Add(bin)
			for _, s := range stores[1:] {
				if s.Add(bin) != h {
					return false
				}
			}
		}
		ref := stores[0]
		for _, s := range stores[1:] {
			if !reflect.DeepEqual(s.Vector(), ref.Vector()) ||
				s.MaxLoad() != ref.MaxLoad() || s.Balls() != ref.Balls() ||
				s.NuY(ref.MaxLoad()) != ref.NuY(ref.MaxLoad()) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreBytesPerBin(t *testing.T) {
	n := 64
	stores := allStores(t, n)
	if b := stores["dense"].BytesPerBin(); b != 8 {
		t.Fatalf("dense BytesPerBin = %v", b)
	}
	if b := stores["compact"].BytesPerBin(); b != 2 {
		t.Fatalf("compact BytesPerBin (no escapes) = %v", b)
	}
	if b := stores["hist"].BytesPerBin(); b < 4 {
		t.Fatalf("hist BytesPerBin = %v", b)
	}
}

// TestBulkAddMatchesAdd: on every store, BulkAdd must leave exactly the
// state of calling Add once per entry — including the compact store's
// escape transition mid-batch, whose register flush/reload around
// addEscaped no process-level test crosses (the kernel equivalence oracle
// calls the same BulkAdd on both sides, so only a direct store-level
// coupling can catch a bug here).
func TestBulkAddMatchesAdd(t *testing.T) {
	build := func(kind StoreKind) (Store, Store) {
		a, err := NewStore(kind, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewStore(kind, 8)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	check := func(name string, a, b Store) {
		t.Helper()
		if !reflect.DeepEqual(a.Vector(), b.Vector()) {
			t.Fatalf("%s: vectors diverged:\nbulk %v\nadds %v", name, a.Vector(), b.Vector())
		}
		if a.MaxLoad() != b.MaxLoad() || a.Balls() != b.Balls() {
			t.Fatalf("%s: aggregates diverged: max %d/%d balls %d/%d",
				name, a.MaxLoad(), b.MaxLoad(), a.Balls(), b.Balls())
		}
	}
	bins := []int{3, 1, 3, 3, 7, 1, 3, 0, 3}
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble} {
		bulk, serial := build(kind)
		bulk.BulkAdd(bins)
		for _, b := range bins {
			serial.Add(b)
		}
		check(kind.String(), bulk, serial)
	}

	// Compact escape transition inside one batch: start bin 2 just below
	// the sentinel so the batch crosses 65534 -> escape -> wide increments,
	// interleaved with in-range increments on other bins.
	bulk, serial := build(StoreCompact)
	bulk.Set(2, 65533)
	serial.Set(2, 65533)
	batch := []int{2, 5, 2, 2, 5, 2}
	bulk.BulkAdd(batch)
	for _, b := range batch {
		serial.Add(b)
	}
	check("compact-escape", bulk, serial)
	if got := bulk.Load(2); got != 65537 {
		t.Fatalf("escaped bin load = %d, want 65537", got)
	}
	if bulk.(*CompactStore).Escaped() != 1 {
		t.Fatalf("escaped cells = %d, want 1", bulk.(*CompactStore).Escaped())
	}
	if bulk.MaxLoad() != 65537 {
		t.Fatalf("MaxLoad = %d, want 65537", bulk.MaxLoad())
	}
}

// TestSetNegativeLoadPanics pins Set's caller-bug contract on every store:
// a negative load panics with "loadvec: negative load" and leaves the
// store as it was. (An escape store would otherwise write its sentinel
// with no wide entry, since the sentinel is what a negative load
// truncates to.)
func TestSetNegativeLoadPanics(t *testing.T) {
	for _, kind := range []StoreKind{StoreDense, StoreCompact, StoreHist, StoreNibble, StoreSketch} {
		t.Run(kind.String(), func(t *testing.T) {
			s, err := NewStore(kind, 64)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(1)
			func() {
				defer func() {
					if r := recover(); r != "loadvec: negative load" {
						t.Fatalf("Set(1, -1) recovered %v, want the negative-load panic", r)
					}
				}()
				s.Set(1, -1)
			}()
			if s.Load(1) != 1 || s.Balls() != 1 || s.MaxLoad() != 1 || s.Vector().Total() != 1 {
				t.Fatalf("after the panic: Load %d Balls %d MaxLoad %d Vector total %d, want 1 each",
					s.Load(1), s.Balls(), s.MaxLoad(), s.Vector().Total())
			}
		})
	}
}
