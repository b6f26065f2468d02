package core

import (
	"strings"
	"testing"

	"repro/internal/loadvec"
	"repro/internal/xrand"
)

// TestCoarseQuantumOneMatchesDChoice pins the limited-memory policy's
// exactness anchor: with Quantum=1 the quantized argmin degenerates to the
// exact argmin, and CoarseDChoice must reproduce DChoice bit for bit — same
// placements, same messages, same tie-breaks — in both the one-shot and the
// serving paths.
func TestCoarseQuantumOneMatchesDChoice(t *testing.T) {
	const seed, m = 31337, 400
	for _, store := range []loadvec.StoreKind{loadvec.StoreDense, loadvec.StoreCompact, loadvec.StoreNibble} {
		ref := MustNew(DChoice, Params{N: 48, D: 3, Store: store}, xrand.New(seed))
		got := MustNew(CoarseDChoice, Params{N: 48, D: 3, Quantum: 1, Store: store}, xrand.New(seed))
		ref.Place(m)
		got.Place(m)
		stateEqual(t, "place/"+store.String(), ref, got)

		refOn := MustNew(DChoice, Params{N: 48, D: 3, Store: store}, xrand.New(seed))
		gotOn := MustNew(CoarseDChoice, Params{N: 48, D: 3, Quantum: 1, Store: store}, xrand.New(seed))
		for i := 0; i < m; i++ {
			b1, err := refOn.Insert()
			if err != nil {
				t.Fatal(err)
			}
			b2, err := gotOn.Insert()
			if err != nil {
				t.Fatal(err)
			}
			if b1 != b2 {
				t.Fatalf("insert %d: handles diverged", i)
			}
		}
		stateEqual(t, "online/"+store.String(), refOn, gotOn)
	}
}

// TestCoarseQuantizesDecisions checks the knob actually changes behavior:
// with a large quantum every probed bin lands in bucket 0 at low loads, so
// ties are broken by hash alone and the trajectory diverges from exact
// d-choice (if it did not, the quantization would be dead code).
func TestCoarseQuantizesDecisions(t *testing.T) {
	const seed, m = 2024, 2000
	ref := MustNew(DChoice, Params{N: 32, D: 3}, xrand.New(seed))
	got := MustNew(CoarseDChoice, Params{N: 32, D: 3, Quantum: 64}, xrand.New(seed))
	ref.Place(m)
	got.Place(m)
	if ref.MaxLoad() == got.MaxLoad() && ref.Loads().Max() == got.Loads().Max() {
		// Max loads may coincide; the full vectors must not for this m.
		same := true
		for b, v := range ref.Loads() {
			if got.Loads()[b] != v {
				same = false
				break
			}
		}
		if same {
			t.Fatal("Quantum=64 trajectory identical to exact d-choice; quantization is dead code")
		}
	}
}

// TestThresholdChoiceBehavior checks the O(1)-memory accept/reject policy:
// insert-only equals Place (shared decision path), messages count the probes
// actually spent, and the resulting allocation beats single-choice on the
// same stream (the point of the running-ceiling test).
func TestThresholdChoiceBehavior(t *testing.T) {
	const seed, m = 777, 3000
	pr := MustNew(ThresholdChoice, Params{N: 64, D: 5}, xrand.New(seed))
	pr.Place(m)
	if pr.Balls() != m {
		t.Fatalf("Balls = %d, want %d", pr.Balls(), m)
	}
	// Probes per ball are in [1, D].
	if pr.Messages() < m || pr.Messages() > m*5 {
		t.Fatalf("Messages = %d, want within [%d, %d]", pr.Messages(), m, m*5)
	}
	single := MustNew(SingleChoice, Params{N: 64}, xrand.New(seed))
	single.Place(m)
	if pr.MaxLoad() > single.MaxLoad() {
		t.Fatalf("threshold max %d worse than single-choice max %d", pr.MaxLoad(), single.MaxLoad())
	}
}

// TestNibbleEscapeUnderProcess drives a tiny-bin process past the 4-bit
// range so the nibble escape path runs inside a real allocation, coupled
// bit-for-bit against the dense reference. Loads reach ~300 per bin —
// twenty times past the sentinel — so escape, wide-table updates and
// max-load bookkeeping all run on the hot path.
func TestNibbleEscapeUnderProcess(t *testing.T) {
	const seed, m = 11, 3 * 300
	ref := MustNew(DChoice, Params{N: 3, D: 2}, xrand.New(seed))
	got := MustNew(DChoice, Params{N: 3, D: 2, Store: loadvec.StoreNibble}, xrand.New(seed))
	ref.Place(m)
	got.Place(m)
	stateEqual(t, "nibble-escape", ref, got)
	if got.MaxLoad() <= 15 { // a 4-bit cell escapes at load 15
		t.Fatalf("test did not cross the nibble escape threshold (max %d)", got.MaxLoad())
	}
}

// TestSketchProcessOneSided runs real allocations on the sketch store while
// an observer maintains the exact load vector from reported placements.
// Every per-bin estimate must dominate the true load and the reported max
// must dominate the true max on any geometry; with a comfortable explicit
// geometry (8 cells per bin per row, 4 rows) the max-load inflation must
// additionally stay within a small additive band (deterministic for fixed
// seeds; a regression in the hash spreading breaks this).
func TestSketchProcessOneSided(t *testing.T) {
	const wide, deep = 4096, 4 // comfortable: collisions rare, tight estimates
	cases := []struct {
		name   string
		policy Policy
		p      Params
		banded bool // explicit wide geometry: assert the inflation band too
	}{
		{"dchoice", DChoice, Params{N: 512, D: 2, Store: loadvec.StoreSketch, SketchWidth: wide, SketchDepth: deep}, true},
		{"kd", KDChoice, Params{N: 512, K: 4, D: 9, Store: loadvec.StoreSketch, SketchWidth: wide, SketchDepth: deep}, true},
		{"threshold", ThresholdChoice, Params{N: 512, D: 4, Store: loadvec.StoreSketch, SketchWidth: wide, SketchDepth: deep}, true},
		{"dchoice-coarse", CoarseDChoice, Params{N: 512, D: 3, Store: loadvec.StoreSketch, SketchWidth: wide, SketchDepth: deep}, true},
		// Default sub-half-byte geometry: heavy collisions by design, so
		// only the one-sided contract holds, not any tightness band.
		{"dchoice/default-geometry", DChoice, Params{N: 512, D: 2, Store: loadvec.StoreSketch}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pr := MustNew(tc.policy, tc.p, xrand.New(99))
			truth := make([]int, tc.p.N)
			pr.SetObserver(observerFunc(func(round int, samples, placed, heights []int) {
				for _, b := range placed {
					truth[b]++
				}
			}))
			pr.Place(4 * tc.p.N)
			trueMax := 0
			for b, v := range truth {
				if est := pr.Load(b); est < v {
					t.Fatalf("bin %d: estimate %d below true load %d", b, est, v)
				}
				if v > trueMax {
					trueMax = v
				}
			}
			if pr.MaxLoad() < trueMax {
				t.Fatalf("MaxLoad %d below true max %d", pr.MaxLoad(), trueMax)
			}
			if infl := pr.MaxLoad() - trueMax; tc.banded && infl > 3 {
				t.Fatalf("max-load inflation %d (sketch max %d, true max %d) exceeds the band",
					infl, pr.MaxLoad(), trueMax)
			}
		})
	}
}

// TestOnlineSketchOneSided exercises the serving layer's Sub path on the
// sketch store: an insert/delete mix must keep every estimate one-sided
// against the exact shadow — deletes never under-cut a surviving ball
// (saturated counters are sticky, live counters are decremented exactly
// once per hashed ball).
func TestOnlineSketchOneSided(t *testing.T) {
	const n = 256
	pr := MustNew(DChoice, Params{N: n, D: 2, Store: loadvec.StoreSketch, SketchWidth: 128, SketchDepth: 2}, xrand.New(5))
	shadow := make([]int, n)
	type liveBall struct {
		b   Ball
		bin int
		w   int
	}
	var live []liveBall
	rng := xrand.New(6)
	for step := 0; step < 2500; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			w := 1 + rng.Intn(4)
			b, err := pr.InsertW(w)
			if err != nil {
				t.Fatal(err)
			}
			bin, _ := pr.BallBin(b)
			shadow[bin] += w
			live = append(live, liveBall{b, bin, w})
		} else {
			vi := rng.Intn(len(live))
			lb := live[vi]
			if err := pr.Delete(lb.b); err != nil {
				t.Fatal(err)
			}
			shadow[lb.bin] -= lb.w
			live[vi] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%97 != 0 {
			continue
		}
		trueMax := 0
		for b, v := range shadow {
			if est := pr.Load(b); est < v {
				t.Fatalf("step %d: bin %d estimate %d below true %d", step, b, est, v)
			}
			if v > trueMax {
				trueMax = v
			}
		}
		if pr.MaxLoad() < trueMax {
			t.Fatalf("step %d: MaxLoad %d below true max %d", step, pr.MaxLoad(), trueMax)
		}
	}
}

// TestApproxValidation pins the new parameter guards and the exact-store
// requirements.
func TestApproxValidation(t *testing.T) {
	reject := func(policy Policy, p Params, frag string) {
		t.Helper()
		err := Validate(policy, p)
		if err == nil {
			t.Fatalf("%v/%+v accepted, want error mentioning %q", policy, p, frag)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("%v error = %v, want mention of %q", policy, err, frag)
		}
	}
	reject(DChoice, Params{N: 8, D: 2, Quantum: -1}, "Quantum")
	reject(DChoice, Params{N: 8, D: 2, SketchWidth: -1}, "SketchWidth")
	reject(DChoice, Params{N: 8, D: 2, SketchDepth: 9}, "SketchDepth")
	reject(DChoice, Params{N: 8, D: 2, SketchDepth: -1}, "SketchDepth")
	reject(SAx0, Params{N: 8, X0: 2, Store: loadvec.StoreSketch}, "exact")
	reject(ThresholdChoice, Params{N: 8, D: 0}, "D")
	reject(CoarseDChoice, Params{N: 8, D: 0}, "D")
	// Vector-load mode stays restricted to the (1+β) family.
	reject(ThresholdChoice, Params{N: 8, D: 2, VecDims: 2}, "vector")
	reject(CoarseDChoice, Params{N: 8, D: 2, VecDims: 2}, "vector")

	for _, p := range []Params{
		{N: 8, D: 2, Store: loadvec.StoreSketch, SketchWidth: 64, SketchDepth: 3},
		{N: 8, D: 2, Quantum: 7},
		{N: 8, D: 2, Store: loadvec.StoreNibble},
	} {
		if err := Validate(CoarseDChoice, p); err != nil {
			t.Fatalf("valid params %+v rejected: %v", p, err)
		}
	}
}

// TestPolicyHelpAndNames pins the sorted help listing contract shared with
// the CLI flags: one "name — note" line per policy, sorted, note non-empty.
func TestPolicyHelpAndNames(t *testing.T) {
	names := PolicyNames()
	for _, want := range []string{"threshold", "dchoice-coarse"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("PolicyNames() = %v, missing %q", names, want)
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
	for _, name := range []string{"threshold", "dchoice-coarse"} {
		pol, err := ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if pol.String() != name {
			t.Fatalf("round trip %q -> %v -> %q", name, pol, pol.String())
		}
	}
}
