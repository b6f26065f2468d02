// Package table1 holds only tests: the checks of the table1 command,
// which printed Table 1 before section T1 of the experiments report
// replaced it. Each runs `experiments -only T1`, the invocation that
// replaced the command.
package table1

import (
	"bytes"
	"strings"
	"testing"

	"repro/cmd/internal/report"
	"repro/internal/experiments"
)

// run prints section T1 at -scale quick with args appended.
func run(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.Run(append([]string{"-scale", "quick", "-only", "T1"}, args...), &buf); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return buf.String()
}

func TestRunSmallTable(t *testing.T) {
	out := run(t, "-seed", "3")
	if !strings.Contains(out, "k=1") || !strings.Contains(out, "d=193") {
		t.Fatalf("missing grid rows/cols:\n%s", out)
	}
	if !strings.Contains(out, "n = 3072") {
		t.Fatalf("header missing n:\n%s", out)
	}
}

func TestRunMarkdownAndCSV(t *testing.T) {
	for format, header := range map[string]string{
		"markdown": "| k | d | measured | paper | match |",
		"csv":      "k,d,measured,paper,match",
	} {
		out := run(t, "-format", format)
		if !strings.Contains(out, "\n"+header+"\n") {
			t.Fatalf("%s output lacks the comparison header %q:\n%s", format, header, out)
		}
	}
}

func TestRunCompare(t *testing.T) {
	out := run(t)
	if !strings.Contains(out, "paper") || !strings.Contains(out, "match") {
		t.Fatalf("compare section missing:\n%s", out)
	}
	// One comparison row per published cell, each with its label.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		for _, label := range []string{"exact", "overlap", "±1", "diff"} {
			if strings.HasSuffix(line, "| "+label+" |") {
				rows++
			}
		}
	}
	if want := len(experiments.PaperTable1()); rows != want {
		t.Fatalf("%d comparison rows, want one per published cell (%d):\n%s", rows, want, out)
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := report.Run([]string{"-only", "T1", "-format", "xml"}, &buf); err == nil {
		t.Fatal("bad format accepted")
	}
	if err := report.Run([]string{"-only", "T1", "-bogus"}, &buf); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if buf.Len() != 0 {
		t.Fatal("output produced despite a bad flag")
	}
}

func TestMatchLabel(t *testing.T) {
	cases := []struct {
		got, want []int
		label     string
	}{
		{[]int{3, 4}, []int{3, 4}, "exact"},
		{[]int{3}, []int{3, 4}, "exact"},
		{[]int{3, 5}, []int{3, 4}, "overlap"},
		{[]int{5}, []int{4}, "±1"},
		{[]int{9}, []int{4}, "diff"},
		{nil, []int{4}, "n/a"},
	}
	for _, tc := range cases {
		if got := report.ClassifyMatch(tc.got, tc.want); got != tc.label {
			t.Fatalf("ClassifyMatch(%v, %v) = %q, want %q", tc.got, tc.want, got, tc.label)
		}
	}
}
