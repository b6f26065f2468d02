package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/loadvec"
)

// TestCollectProfilesMatchesCollectLoads: the streamed integer accumulators
// must reproduce the retained-vector means up to float rounding, without
// retaining any per-run vector.
func TestCollectProfilesMatchesCollectLoads(t *testing.T) {
	base := Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 128, K: 2, D: 5},
		Runs:   9,
		Seed:   42,
	}
	withLoads := base
	withLoads.CollectLoads = true
	streamed := base
	streamed.CollectProfiles = true

	rl, err := Run(withLoads)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Loads != nil {
		t.Fatal("CollectProfiles retained per-run load vectors")
	}
	if !rs.HasProfiles() || rl.HasProfiles() != true {
		t.Fatal("HasProfiles misreports")
	}

	wantProf, err := rl.MeanSortedProfile()
	if err != nil {
		t.Fatal(err)
	}
	gotProf, err := rs.MeanSortedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantProf) != len(gotProf) {
		t.Fatalf("profile length %d != %d", len(gotProf), len(wantProf))
	}
	for i := range wantProf {
		if math.Abs(wantProf[i]-gotProf[i]) > 1e-9 {
			t.Fatalf("profile[%d] = %v, want %v", i, gotProf[i], wantProf[i])
		}
	}

	wantNu, err := rl.MeanNuY()
	if err != nil {
		t.Fatal(err)
	}
	gotNu, err := rs.MeanNuY()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantNu) != len(gotNu) {
		t.Fatalf("nu length %d != %d", len(gotNu), len(wantNu))
	}
	for y := range wantNu {
		if math.Abs(wantNu[y]-gotNu[y]) > 1e-9 {
			t.Fatalf("nu[%d] = %v, want %v", y, gotNu[y], wantNu[y])
		}
	}
}

// TestCollectProfilesWorkerIndependence: integer accumulation commutes, so
// the streamed profile is byte-identical for any worker count.
func TestCollectProfilesWorkerIndependence(t *testing.T) {
	mk := func(workers int) *Result {
		t.Helper()
		res, err := RunAll(workers, []Config{{
			Policy:          core.KDChoice,
			Params:          core.Params{N: 64, K: 3, D: 7, Store: loadvec.StoreCompact},
			Runs:            16,
			Seed:            7,
			CollectProfiles: true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	serial, parallel := mk(1), mk(8)
	if !reflect.DeepEqual(serial.profileSum, parallel.profileSum) {
		t.Fatalf("profileSum differs across worker counts:\n1: %v\n8: %v", serial.profileSum, parallel.profileSum)
	}
	if !reflect.DeepEqual(serial.nuSum, parallel.nuSum) {
		t.Fatalf("nuSum differs across worker counts")
	}
	if !reflect.DeepEqual(serial.MaxLoads, parallel.MaxLoads) {
		t.Fatal("per-run results differ across worker counts")
	}
}

// TestRunAllStoreDeterminism: the store knob must not change the per-run
// results the harness reports.
func TestRunAllStoreDeterminism(t *testing.T) {
	base := Config{
		Policy: core.KDChoice,
		Params: core.Params{N: 256, K: 2, D: 8},
		Runs:   6,
		Seed:   99,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []loadvec.StoreKind{loadvec.StoreCompact, loadvec.StoreHist} {
		cfg := base
		cfg.Params.Store = kind
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.MaxLoads, ref.MaxLoads) ||
			!reflect.DeepEqual(got.Gaps, ref.Gaps) ||
			!reflect.DeepEqual(got.Messages, ref.Messages) {
			t.Fatalf("store=%v: results diverged from dense serial reference", kind)
		}
	}
}
