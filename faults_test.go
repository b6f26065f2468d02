package kdchoice

import (
	"math"
	"testing"
)

// This file holds the public-surface fault tests: the conservation
// property over random serving interleavings on every store, the
// no-plan bit-identity at the API level, study/experiment counter
// plumbing, and the storage substrate's fail/recover inverse pair.

// TestFaultConservationAcrossStores drives a random (but seeded)
// interleaving of Insert/InsertW/Delete/Rebalance against an allocator
// under the full fault plan — outages, probe loss, retries, eviction —
// on every bin store, checking after every operation window that ball
// count and total live weight are conserved exactly (one-sidedly for
// the sketch store, whose estimates only overestimate). CI runs this
// under -race, so the serial fault path is also exercised for hidden
// sharing.
func TestFaultConservationAcrossStores(t *testing.T) {
	plan, err := ParseFaults("fail:0.02,16+loss:0.2+noise:1+retry:2+evict")
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []Store{StoreDense, StoreCompact, StoreHist, StoreNibble, StoreSketch} {
		t.Run(store.String(), func(t *testing.T) {
			alloc, err := New(Config{
				Bins:   48,
				D:      2,
				Policy: OnePlusBeta,
				Beta:   0.8,
				Store:  store,
				Faults: &plan,
				Seed:   321,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer alloc.Close()
			// The op mix comes from a plain LCG so the test exercises the
			// allocator's own streams without touching them.
			mix := uint64(12345)
			next := func(n int) int {
				mix = mix*6364136223846793005 + 1442695040888963407
				return int((mix >> 33) % uint64(n))
			}
			type rec struct {
				b Ball
				w int
			}
			var live []rec
			weight := 0
			check := func(op int) {
				t.Helper()
				if alloc.Live() != len(live) {
					t.Fatalf("op %d: Live() = %d, ledger says %d", op, alloc.Live(), len(live))
				}
				if alloc.Balls() != len(live) {
					t.Fatalf("op %d: Balls() = %d, ledger says %d", op, alloc.Balls(), len(live))
				}
				scan := 0
				for _, l := range alloc.Loads() {
					scan += l
				}
				if store == StoreSketch {
					// Count-min estimates are one-sided: never below truth.
					if scan < weight {
						t.Fatalf("op %d: sketch scan %d below true weight %d", op, scan, weight)
					}
				} else if scan != weight {
					t.Fatalf("op %d: scanned weight %d, ledger says %d", op, scan, weight)
				}
			}
			for op := 0; op < 4000; op++ {
				switch r := next(10); {
				case r < 4 && len(live) > 0: // delete
					vi := next(len(live))
					if err := alloc.Delete(live[vi].b); err != nil {
						t.Fatalf("op %d: Delete: %v", op, err)
					}
					weight -= live[vi].w
					live[vi] = live[len(live)-1]
					live = live[:len(live)-1]
				case r < 5 && len(live) > 0: // rebalance
					vi := next(len(live))
					if _, err := alloc.Rebalance(live[vi].b); err != nil {
						t.Fatalf("op %d: Rebalance: %v", op, err)
					}
				case r < 8: // weighted insert
					w := 1 + next(4)
					b, err := alloc.InsertW(w)
					if err != nil {
						t.Fatalf("op %d: InsertW: %v", op, err)
					}
					live = append(live, rec{b, w})
					weight += w
				default: // unit insert
					b, err := alloc.Insert()
					if err != nil {
						t.Fatalf("op %d: Insert: %v", op, err)
					}
					live = append(live, rec{b, 1})
					weight += 1
				}
				if op%97 == 0 {
					check(op)
				}
			}
			check(4000)
			c := alloc.FaultCounters()
			if !c.Any() {
				t.Fatal("fault plan injected nothing over 4000 ops")
			}
			if c.Evictions != c.Replacements {
				t.Fatalf("evictions %d != replacements %d — weight moved without landing", c.Evictions, c.Replacements)
			}
			// Every surviving handle still resolves with its weight intact.
			for i, r := range live {
				w, err := alloc.BallWeight(r.b)
				if err != nil {
					t.Fatalf("live handle %d died: %v", i, err)
				}
				if w != r.w {
					t.Fatalf("handle %d weight %d, want %d", i, w, r.w)
				}
			}
		})
	}
}

// TestNoPlanIdenticalPublicAPI: a Config with Faults nil, and one with
// an explicitly empty plan, must produce byte-identical experiment
// reports — the public reading of the zero-cost contract.
func TestNoPlanIdenticalPublicAPI(t *testing.T) {
	empty := FaultPlan{}
	base := Config{Bins: 512, K: 2, D: 8, Seed: 5}
	withEmpty := base
	withEmpty.Faults = &empty
	rep, err := Experiment{
		Cells: []Cell{{Config: base}, {Config: withEmpty}},
		Runs:  3,
		Seed:  5,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep.Cells[0], rep.Cells[1]
	for i := range a.MaxLoads {
		if a.MaxLoads[i] != b.MaxLoads[i] || a.Gaps[i] != b.Gaps[i] || a.Messages[i] != b.Messages[i] {
			t.Fatalf("run %d diverged under an empty plan: (%d,%v,%d) vs (%d,%v,%d)",
				i, a.MaxLoads[i], a.Gaps[i], a.Messages[i], b.MaxLoads[i], b.Gaps[i], b.Messages[i])
		}
	}
	if a.Faults != nil || b.Faults != nil {
		t.Fatal("inactive plans must not allocate per-run fault slices")
	}
}

// TestExperimentFaultCounters: an Experiment cell with an active plan
// reports per-run and total counters, reproducibly for any worker count.
func TestExperimentFaultCounters(t *testing.T) {
	plan, err := ParseFaults("loss:0.3+retry:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Bins: 256, K: 2, D: 6, Seed: 9, Faults: &plan}
	var ref *Report
	for _, workers := range []int{1, 4} {
		rep, err := Experiment{
			Cells:   []Cell{{Config: cfg}},
			Runs:    4,
			Seed:    9,
			Workers: workers,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Cells[0]
		if len(c.Faults) != 4 {
			t.Fatalf("workers=%d: %d per-run counter slots, want 4", workers, len(c.Faults))
		}
		var want FaultCounters
		for _, f := range c.Faults {
			if !f.Any() {
				t.Fatalf("workers=%d: a run recorded no faults under loss:0.3", workers)
			}
			want.Add(f)
		}
		if c.TotalFaults != want {
			t.Fatalf("workers=%d: TotalFaults %+v != per-run sum %+v", workers, c.TotalFaults, want)
		}
		if ref == nil {
			ref = rep
			continue
		}
		for i := range c.Faults {
			if c.Faults[i] != ref.Cells[0].Faults[i] {
				t.Fatalf("fault counters depend on worker count: run %d %+v vs %+v",
					i, c.Faults[i], ref.Cells[0].Faults[i])
			}
		}
	}
}

// TestChurnCellFaults: the serving study layer threads the plan through
// to the allocator and surfaces the counters in the study report.
func TestChurnCellFaults(t *testing.T) {
	plan, err := ParseFaults("loss:0.2+retry:1+evict+fail:0.01,8")
	if err != nil {
		t.Fatal(err)
	}
	cell := ChurnCell{
		Bins:   64,
		Beta:   1,
		Ops:    2000,
		Churn:  ChurnSpec{DepartureRate: 0.5},
		Faults: &plan,
	}
	rep, err := Study{Cells: []AppCell{cell}, Runs: 2, Seed: 77}.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Cells[0]
	if !res.TotalFaults.Any() {
		t.Fatal("study cell under a fault plan reported zero counters")
	}
	for run, m := range res.Runs {
		if !m.Faults.Any() {
			t.Fatalf("run %d reported zero fault counters", run)
		}
	}
	if got := res.Label(); got == "" || !contains(got, "faults=") {
		t.Fatalf("faulty cell label %q does not name its plan", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestObserverFaultCounters: RoundEvent carries the cumulative counters.
func TestObserverFaultCounters(t *testing.T) {
	plan, err := ParseFaults("loss:0.5")
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := New(Config{Bins: 64, K: 2, D: 4, Seed: 2, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer alloc.Close()
	var last FaultCounters
	monotone := true
	alloc.Attach(ObserverFunc(func(e RoundEvent) {
		if e.Faults.ProbesLost < last.ProbesLost {
			monotone = false
		}
		last = e.Faults
	}))
	alloc.PlaceAll()
	if !monotone {
		t.Fatal("cumulative fault counters decreased between rounds")
	}
	if !last.Any() {
		t.Fatal("observer saw zero fault counters under loss:0.5")
	}
	if got := alloc.FaultCounters(); got != last {
		t.Fatalf("final observer counters %+v != allocator counters %+v", last, got)
	}
}

// TestStorageFailRecoverConservation: FailServer/RecoverServer are a
// conserving inverse pair — every file keeps its full copy set through
// a failure with capacity to re-replicate, recovery repairs any dropped
// copies when capacity returns, and both calls are idempotent.
func TestStorageFailRecoverConservation(t *testing.T) {
	sys, err := NewStorageSystem(StorageCell{
		Servers: 12,
		Files:   200,
		K:       3,
		D:       4,
		Seed:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.IngestAll()
	if err := sys.ReplicationOK(); err != nil {
		t.Fatalf("fresh ingest under-replicated: %v", err)
	}
	countCopies := func() int {
		total := 0
		for fid := 0; fid < sys.Files(); fid++ {
			for _, sv := range sys.FileServers(fid) {
				if sv >= 0 {
					total++
				}
			}
		}
		return total
	}
	full := countCopies()
	if full != 200*3 {
		t.Fatalf("ingest produced %d copies, want %d", full, 200*3)
	}
	// Fail a server: with 11 healthy servers every lost copy re-replicates.
	moved := sys.FailServer(5)
	if moved == 0 {
		t.Fatal("failing a loaded server moved no copies")
	}
	if got := countCopies(); got != full {
		t.Fatalf("copies not conserved through failure: %d, want %d", got, full)
	}
	if err := sys.ReplicationOK(); err != nil {
		t.Fatalf("under-replicated after conserving failure: %v", err)
	}
	// Idempotency: failing a dead server is a no-op.
	if again := sys.FailServer(5); again != 0 {
		t.Fatalf("re-failing a dead server moved %d copies", again)
	}
	// Recovery: the server returns empty; with no dropped copies there is
	// nothing to repair, and recovering an alive server is a no-op.
	if restored := sys.RecoverServer(5); restored != 0 {
		t.Fatalf("recovery restored %d copies though none were dropped", restored)
	}
	if again := sys.RecoverServer(5); again != 0 {
		t.Fatalf("re-recovering an alive server restored %d copies", again)
	}
	if got := countCopies(); got != full {
		t.Fatalf("copies not conserved through recovery: %d, want %d", got, full)
	}
	if err := sys.ReplicationOK(); err != nil {
		t.Fatalf("under-replicated after recovery: %v", err)
	}
}

// TestStorageRecoverRepairsDroppedCopies: when failures outrun capacity
// (k copies need k distinct servers), copies drop; recovery must repair
// them and restore full replication.
func TestStorageRecoverRepairsDroppedCopies(t *testing.T) {
	sys, err := NewStorageSystem(StorageCell{
		Servers: 4,
		Files:   50,
		K:       3,
		D:       4,
		Seed:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.IngestAll()
	// Take the cluster to 2 servers: 3 copies cannot fit on 2 distinct
	// servers, so copies are dropped and replication is broken.
	sys.FailServer(0)
	sys.FailServer(1)
	if err := sys.ReplicationOK(); err == nil {
		t.Fatal("3-replication reported OK on a 2-server cluster")
	}
	// Bring one server back: capacity for 3 distinct holders returns, and
	// recovery repairs every dropped copy.
	restored := sys.RecoverServer(0)
	if restored == 0 {
		t.Fatal("recovery repaired no copies on a degraded cluster")
	}
	if err := sys.ReplicationOK(); err != nil {
		t.Fatalf("still under-replicated after recovery: %v", err)
	}
}

// TestFaultFrontierShape is a tiny smoke of the public frontier inputs:
// gap inflation must be finite and the counters populated. The measured
// full-size frontier comes from `go run ./cmd/experiments -only R1`;
// internal/experiments has its own test.
func TestFaultFrontierShape(t *testing.T) {
	plan, err := ParseFaults("loss:0.4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Bins: 256, K: 2, D: 8, Seed: 4, Faults: &plan}
	res, err := Simulate(cfg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.MeanGap) || math.IsInf(res.MeanGap, 0) {
		t.Fatalf("degraded MeanGap = %v", res.MeanGap)
	}
	if res.TotalFaults.ProbesLost == 0 {
		t.Fatal("loss:0.4 lost no probes")
	}
}
