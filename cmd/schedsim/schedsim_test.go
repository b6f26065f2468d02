// Package schedsim holds only tests: the checks of the schedsim command,
// whose scheduler study is section A1 of the experiments report. Each
// runs `experiments -only A1`, the invocation that replaced the command.
package schedsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/cmd/internal/report"
)

// run prints section A1 at -scale quick with args appended.
func run(args []string, out *bytes.Buffer) error {
	return report.Run(append([]string{"-scale", "quick", "-only", "A1"}, args...), out)
}

func TestRunSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"batch mean", "per-task p95", "random mean", "probes/job"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k,batch mean") {
		t.Fatalf("csv output wrong:\n%s", buf.String())
	}
}

// TestRunErrors: the command's own flags are gone, and each fails by name
// rather than being ignored; so do a bad flag and a bad -scale.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-rho", "2"}, {"-workers", "40"}, {"-jobs", "300"}, {"-runs", "2"},
		{"-pareto"}, {"-pool", "1"}, {"-bad"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil {
			t.Fatalf("%v accepted", args)
		}
		if !strings.Contains(err.Error(), args[0]) {
			t.Fatalf("%v: error %q does not name the flag", args, err)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-scale", "huge"}, &buf); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

func TestRunRejectsUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-format", "json"}, &buf)
	if err == nil {
		t.Fatal("unknown -format accepted")
	}
	if !strings.Contains(err.Error(), "json") {
		t.Fatalf("error does not name the bad format: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatal("output produced despite invalid format")
	}
}

// TestRunMultiRunDeterministic: the same seed prints the same section,
// run again or run next to another section.
func TestRunMultiRunDeterministic(t *testing.T) {
	var a, b, both bytes.Buffer
	args := []string{"-seed", "9"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("a second run changed the output")
	}
	if err := run(append(args, "-only", "A1,A2"), &both); err != nil {
		t.Fatal(err)
	}
	alone, next := a.String(), both.String()
	i, j := strings.Index(alone, "\n## A1 "), strings.Index(next, "\n## A2 ")
	if i < 0 || j < 0 || !strings.Contains(next[:j+1], alone[i:]) {
		t.Fatal("A1 printed next to A2 differs from A1 printed alone")
	}
}
