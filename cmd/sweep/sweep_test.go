// Package sweep holds only tests: the checks of the sweep command, whose
// experiments the experiments report prints as sections. Each runs
// `experiments -only ID`, the invocation that replaced `sweep -exp NAME`.
package sweep

import (
	"bytes"
	"strings"
	"testing"

	"repro/cmd/internal/report"
)

// sections maps each experiment sweep ran to the report section that
// prints it.
var sections = map[string]string{
	"loadvec":   "F1/F2",
	"scaling":   "E1",
	"cor1":      "E2",
	"heavy":     "E3",
	"tradeoff":  "E5",
	"remarks":   "E6",
	"adaptive":  "AB1",
	"induction": "E7",
	"lemmas":    "E8",
	"pipeline":  "AB3",
	"faults":    "R1",
}

func runSweep(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.Run(append([]string{"-scale", "quick"}, args...), &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestAllExperimentsSmall(t *testing.T) {
	for name, id := range sections {
		t.Run(name, func(t *testing.T) {
			out := runSweep(t, "-only", id)
			if !strings.Contains(out, "\n## "+id+" — ") || strings.Count(out, "\n## ") != 1 {
				t.Fatalf("missing header:\n%s", out)
			}
			rows := 0
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, "| ") {
					rows++
				}
			}
			if rows < 3 {
				t.Fatalf("no table rows:\n%s", out)
			}
		})
	}
}

func TestCSVFormat(t *testing.T) {
	out := runSweep(t, "-only", "F1/F2", "-format", "csv")
	if !strings.Contains(out, "k,d,") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := report.Run([]string{"-only", "zzz"}, &buf)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if want := "(valid: " + strings.Join(report.IDs(), ", ") + ")"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not list the valid ids %s", err, want)
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := report.Run([]string{"-nope"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}
