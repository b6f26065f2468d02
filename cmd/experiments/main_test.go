package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestRunQuickScaleProducesAllSections(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "quick", "-seed", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	sections := []string{
		"## T1", "## F1/F2", "## E1", "## E2", "## E3", "## E4",
		"## E5", "## E6", "## A1", "## A2", "## AB1", "## E7", "## E8", "## AB2",
	}
	for _, s := range sections {
		if !strings.Contains(out, s) {
			t.Fatalf("report missing section %q", s)
		}
	}
	if !strings.Contains(out, "Agreement with the published table") {
		t.Fatal("missing Table 1 agreement summary")
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-scale", "quick", "-seed", "5"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "quick", "-seed", "5"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different reports")
	}
}

func TestScaleFor(t *testing.T) {
	for _, name := range []string{"quick", "full", "paper"} {
		sc, err := scaleFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.table1N <= 0 || sc.runs <= 0 || len(sc.scalingNs) == 0 {
			t.Fatalf("%s: bad scale %+v", name, sc)
		}
	}
	if _, err := scaleFor("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "zzz"}, &buf); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run([]string{"-whatever"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestClassifyMatch(t *testing.T) {
	cases := []struct {
		got, want []int
		label     string
	}{
		{[]int{2}, []int{2}, "exact"},
		{[]int{2, 3}, []int{2}, "overlap"},
		{[]int{3}, []int{2}, "±1"},
		{[]int{7}, []int{2}, "diff"},
	}
	for _, tc := range cases {
		if got := classifyMatch(tc.got, tc.want); got != tc.label {
			t.Fatalf("classifyMatch(%v,%v) = %q, want %q", tc.got, tc.want, got, tc.label)
		}
	}
}

// section returns the rows of the first Markdown table of the report
// section headed by prefix (header and rule dropped, cells trimmed) and
// its "**Measured**" sentence.
func section(t *testing.T, report, prefix string) (rows [][]string, measured string) {
	t.Helper()
	i := strings.Index(report, "\n"+prefix)
	if i < 0 {
		t.Fatalf("report has no section %q", prefix)
	}
	body := report[i+1:]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	table := 0
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "|"):
			if table++; table > 2 {
				var cells []string
				for _, c := range strings.Split(strings.Trim(line, "|"), " | ") {
					cells = append(cells, strings.TrimSpace(c))
				}
				rows = append(rows, cells)
			}
		case strings.HasPrefix(line, "**Measured**: "):
			measured = strings.TrimPrefix(line, "**Measured**: ")
		}
	}
	if len(rows) == 0 || measured == "" {
		t.Fatalf("section %q: %d table rows, measured sentence %q", prefix, len(rows), measured)
	}
	return rows, measured
}

func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table cell %q: %v", s, err)
	}
	return v
}

// TestVerdictsMatchTables: at -scale quick, E1's and E5's measured
// sentences must state what their own tables show: E1 the ratio of the
// largest to the smallest n and each (k,d) row's growth of mean max load,
// E5 whether the d=k+ln n row beats, ties or does not beat two-choice.
func TestVerdictsMatchTables(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()

	// E1 rows: k, d, n, measured mean max, leading term; each (k,d)
	// pair's rows run from the smallest n to the largest.
	rows, measured := section(t, report, "## E1")
	type span struct {
		pair        string
		first, last float64
		n0, n1      int
	}
	var spans []span
	for _, r := range rows {
		pair := fmt.Sprintf("(%s,%s)", r[0], r[1])
		n, err := strconv.Atoi(r[2])
		if err != nil {
			t.Fatal(err)
		}
		v := cellFloat(t, r[3])
		if len(spans) == 0 || spans[len(spans)-1].pair != pair {
			spans = append(spans, span{pair: pair, first: v, n0: n})
		}
		spans[len(spans)-1].last, spans[len(spans)-1].n1 = v, n
	}
	n0, n1 := spans[0].n0, spans[0].n1
	if want := fmt.Sprintf("while n grows %d× (%d → %d)", n1/n0, n0, n1); !strings.Contains(measured, want) {
		t.Errorf("E1 sentence %q does not say %q", measured, want)
	}
	var growth, pairs []string
	within := true
	for _, sp := range spans {
		g := sp.last - sp.first
		growth = append(growth, fmt.Sprintf("%+.2f", g))
		pairs = append(pairs, sp.pair)
		within = within && g <= 1
	}
	if want := fmt.Sprintf("grows by %s balls for (k,d) = %s", strings.Join(growth, ", "), strings.Join(pairs, ", ")); !strings.Contains(measured, want) {
		t.Errorf("E1 sentence %q does not say %q", measured, want)
	}
	if got := strings.Contains(measured, "at most 1 ball"); got != within {
		t.Errorf("E1 sentence %q: claims at most 1 ball = %v, table says %v", measured, got, within)
	}

	// E5 rows: strategy, k, d, mean max load, messages/ball, regime.
	rows, measured = section(t, report, "## E5")
	var two, thin string
	for _, r := range rows {
		switch {
		case r[0] == "two-choice":
			two = r[3]
		case strings.HasSuffix(r[0], "[d=k+ln n]"):
			thin = r[3]
		}
	}
	verdict := "beats"
	switch a, b := cellFloat(t, thin), cellFloat(t, two); {
	case a == b:
		verdict = "ties"
	case a > b:
		verdict = "does not beat"
	}
	if want := fmt.Sprintf("%s two-choice's max load (%s vs %s)", verdict, thin, two); !strings.Contains(measured, want) {
		t.Errorf("E5 sentence %q does not say %q", measured, want)
	}
	if verdict != "beats" && !strings.Contains(measured, "not reproduced at this n") {
		t.Errorf("E5 sentence %q claims more than its table shows", measured)
	}
}
