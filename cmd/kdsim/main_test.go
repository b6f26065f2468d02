package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDefaultsSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "1024", "-runs", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"max load (distinct)", "messages per ball", "theory: d_k", "mean sorted loads"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunHeavyCase(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "512", "-m", "4096", "-runs", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "balls=4096") {
		t.Fatalf("heavy-case header wrong:\n%s", buf.String())
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, policy := range []string{"kd", "kd-serialized", "kd-adaptive", "dchoice", "single", "oneplusbeta", "alwaysgoleft"} {
		var buf bytes.Buffer
		args := []string{"-n", "512", "-runs", "2", "-policy", policy}
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(buf.String(), "policy="+policy) {
			t.Fatalf("%s: header missing policy", policy)
		}
	}
}

// TestRunOnePlusBetaShardedDefaultD: -d defaults to 2 for oneplusbeta (the
// classical two-probe process), so the sharded engine, which probes two
// bins, accepts it without an explicit -d; an explicit -d 3 still runs the
// D-probe coin serially and is still rejected with -shards 2.
func TestRunOnePlusBetaShardedDefaultD(t *testing.T) {
	var sharded, serial bytes.Buffer
	if err := run([]string{"-n", "512", "-runs", "2", "-policy", "oneplusbeta", "-shards", "2"}, &sharded); err != nil {
		t.Fatalf("-policy oneplusbeta -shards 2: %v", err)
	}
	if !strings.Contains(sharded.String(), " d=2 ") {
		t.Fatalf("oneplusbeta default -d is not 2:\n%s", sharded.String())
	}
	if err := run([]string{"-n", "512", "-runs", "2", "-policy", "oneplusbeta", "-d", "3"}, &serial); err != nil {
		t.Fatalf("-policy oneplusbeta -d 3: %v", err)
	}
	if !strings.Contains(serial.String(), " d=3 ") {
		t.Fatalf("explicit -d 3 not honoured:\n%s", serial.String())
	}
	if err := run([]string{"-n", "512", "-runs", "2", "-policy", "oneplusbeta", "-d", "3", "-shards", "2"}, &serial); err == nil {
		t.Fatal("-policy oneplusbeta -d 3 -shards 2 accepted")
	}
}

func TestRunNoProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "256", "-runs", "1", "-profile", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "mean sorted loads") {
		t.Fatal("profile printed despite -profile 0")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policy", "nope"}, &buf); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run([]string{"-n", "8", "-k", "5", "-d", "3"}, &buf); err == nil {
		t.Fatal("invalid k/d accepted")
	}
	if err := run([]string{"-zzz"}, &buf); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestRunBlockFlag(t *testing.T) {
	// Explicit superstep sizes are bit-identical to the auto default, so
	// the run must succeed and report the same summary stats.
	var auto, blocked bytes.Buffer
	if err := run([]string{"-n", "512", "-runs", "2"}, &auto); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "512", "-runs", "2", "-block", "3"}, &blocked); err != nil {
		t.Fatal(err)
	}
	if auto.String() != blocked.String() {
		t.Fatalf("-block 3 changed results:\nauto:\n%s\nblocked:\n%s", auto.String(), blocked.String())
	}
	var buf bytes.Buffer
	if err := run([]string{"-n", "512", "-block", "-2"}, &buf); err == nil {
		t.Fatal("negative -block accepted")
	} else if !strings.Contains(err.Error(), "Block") {
		t.Fatalf("negative -block error does not name the knob: %v", err)
	}
}
