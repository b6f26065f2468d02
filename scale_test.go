package kdchoice

import (
	"reflect"
	"strings"
	"testing"
)

// TestStoreParseRoundTrip pins the store names and their sorted listing.
func TestStoreParseRoundTrip(t *testing.T) {
	for _, s := range []Store{StoreDense, StoreCompact, StoreHist, StoreNibble, StoreSketch} {
		got, err := ParseStore(s.String())
		if err != nil {
			t.Fatalf("ParseStore(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %q -> %v", s, s.String(), got)
		}
	}
	_, err := ParseStore("zzz")
	if err == nil {
		t.Fatal("ParseStore accepted garbage")
	}
	if !strings.Contains(err.Error(), "compact, dense, hist, nibble, sketch") {
		t.Fatalf("ParseStore error %q does not list valid stores in sorted order", err)
	}
	if got := StoreNames(); !reflect.DeepEqual(got, []string{"compact", "dense", "hist", "nibble", "sketch"}) {
		t.Fatalf("StoreNames() = %v", got)
	}
	help := StoreHelp()
	if len(help) != 5 {
		t.Fatalf("StoreHelp() has %d lines, want 5", len(help))
	}
	for i, line := range help {
		if !strings.HasPrefix(line, StoreNames()[i]+" — ") {
			t.Fatalf("StoreHelp()[%d] = %q, want prefix %q", i, line, StoreNames()[i])
		}
	}
}

// TestPolicyNamesSortedAndParseErrors pins the deterministic policy
// listing: PolicyNames is sorted, covers exactly the public policies, and
// unknown-policy errors embed it.
func TestPolicyNamesSortedAndParseErrors(t *testing.T) {
	names := PolicyNames()
	if !sortedStrings(names) {
		t.Fatalf("PolicyNames() not sorted: %v", names)
	}
	for _, name := range names {
		if _, err := ParsePolicy(name); err != nil {
			t.Fatalf("PolicyNames entry %q does not parse: %v", name, err)
		}
	}
	for _, name := range []string{"zzz", "sax0"} {
		_, err := ParsePolicy(name)
		if err == nil {
			t.Fatalf("ParsePolicy(%q) succeeded", name)
		}
		if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
			t.Fatalf("ParsePolicy(%q) error %q does not list the sorted policies", name, err)
		}
	}
	help := PolicyHelp()
	if len(help) != len(names) {
		t.Fatalf("PolicyHelp() has %d lines, PolicyNames() has %d", len(help), len(names))
	}
	for i, line := range help {
		if !strings.HasPrefix(line, names[i]+" — ") || len(line) <= len(names[i])+5 {
			t.Fatalf("PolicyHelp()[%d] = %q, want %q with a non-empty note", i, line, names[i])
		}
	}
}

func sortedStrings(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// TestAllocatorStoresBitIdentical: the public Allocator produces identical
// results on every exact store for equal seeds.
func TestAllocatorStoresBitIdentical(t *testing.T) {
	base := Config{Bins: 512, K: 2, D: 16, Seed: 5}
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	ref.PlaceAll()
	for _, store := range []Store{StoreCompact, StoreHist, StoreNibble} {
		cfg := base
		cfg.Store = store
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.PlaceAll()
		if !reflect.DeepEqual(a.Loads(), ref.Loads()) {
			t.Fatalf("store=%v: loads diverged", store)
		}
		if a.MaxLoad() != ref.MaxLoad() || a.Messages() != ref.Messages() || a.Gap() != ref.Gap() {
			t.Fatalf("store=%v: summary stats diverged", store)
		}
		a.Close()
		a.Close() // idempotent
	}
}

// TestAllocatorBlockBitIdentical: the superstep size is a pure performance
// knob on the public surface — every value (auto, 1, non-divisor) produces
// identical results, and negative values are rejected with an error naming
// the field.
func TestAllocatorBlockBitIdentical(t *testing.T) {
	base := Config{Bins: 512, K: 2, D: 16, Seed: 5}
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	ref.PlaceAll()
	for _, block := range []int{1, 3, 4096} {
		cfg := base
		cfg.Block = block
		a, err := New(cfg)
		if err != nil {
			t.Fatalf("Block=%d: %v", block, err)
		}
		a.PlaceAll()
		if !reflect.DeepEqual(a.Loads(), ref.Loads()) {
			t.Fatalf("Block=%d: loads diverged", block)
		}
		a.Close()
	}
	if _, err := New(Config{Bins: 16, K: 1, D: 2, Block: -1}); err == nil {
		t.Fatal("negative Block accepted")
	} else if !strings.Contains(err.Error(), "Block") {
		t.Fatalf("negative Block error does not name the field: %v", err)
	}
}

// TestShardsPublicSurface: the public config surfaces the core sharding
// rules — fixed-prologue policies shard (KDChoice bit-identically to
// serial at Block=1), adaptive policies and StaleBatch reject, and
// StaleBatch's default Shards runs serial.
func TestShardsPublicSurface(t *testing.T) {
	ref, err := New(Config{Bins: 16, K: 1, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref.PlaceAll()
	sh, err := New(Config{Bins: 16, K: 1, D: 2, Seed: 9, Shards: 2, Block: 1})
	if err != nil {
		t.Fatalf("KDChoice rejected Shards=2: %v", err)
	}
	sh.PlaceAll()
	if !reflect.DeepEqual(sh.Loads(), ref.Loads()) {
		t.Fatal("sharded KDChoice at Block=1 diverged from serial")
	}
	sh.Close()
	if _, err := New(Config{Bins: 16, K: 2, D: 4, Policy: AdaptiveKD, Shards: 2}); err == nil {
		t.Fatal("AdaptiveKD accepted Shards > 1")
	}
	if _, err := New(Config{Bins: 16, K: 4, D: 2, Policy: StaleBatch, Shards: 2}); err == nil {
		t.Fatal("StaleBatch accepted Shards = 2")
	} else if msg := err.Error(); !strings.Contains(msg, "Shards") || !strings.Contains(msg, "stale-batch") {
		t.Fatalf("sharded StaleBatch error does not name Shards and stale-batch: %v", err)
	}
	a, err := New(Config{Bins: 16, K: 4, D: 2, Policy: StaleBatch})
	if err != nil {
		t.Fatal(err)
	}
	a.PlaceAll()
	if a.Balls() != 16 {
		t.Fatalf("StaleBatch placed %d balls", a.Balls())
	}
	a.Close()
}

// TestExperimentCollectProfiles: streamed profiles flow through the public
// Experiment and keep worker independence.
func TestExperimentCollectProfiles(t *testing.T) {
	run := func(workers int) *Report {
		t.Helper()
		rep, err := Experiment{
			Cells: []Cell{{Config: Config{
				Bins: 128, K: 2, D: 6, Store: StoreCompact,
			}}},
			Runs:            8,
			Seed:            21,
			Workers:         workers,
			CollectProfiles: true,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep1, rep8 := run(1), run(8)
	p1, err := rep1.Cells[0].MeanSortedProfile()
	if err != nil {
		t.Fatal(err)
	}
	p8, err := rep8.Cells[0].MeanSortedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p8) {
		t.Fatal("streamed profile differs across worker counts")
	}
	nu, err := rep1.Cells[0].MeanNuY()
	if err != nil {
		t.Fatal(err)
	}
	if nu[0] != 128 {
		t.Fatalf("mean ν_0 = %v, want 128", nu[0])
	}
	// RunLoads still requires the retained vectors.
	if _, err := rep1.Cells[0].RunLoads(); err != ErrNoLoads {
		t.Fatalf("RunLoads with streamed profiles: err = %v, want ErrNoLoads", err)
	}
}
