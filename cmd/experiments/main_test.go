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

// TestVerdictsMatchTables: at -scale quick, the computed measured
// sentences must state what their own tables show: E1 the ratio of the
// largest to the smallest n and each (k,d) row's growth of mean max load,
// E5 whether the d=k+ln n row beats, ties or does not beat two-choice,
// E3b the growth of n and each gap against its upper term, E3c the
// sketch's inflation over the exact max load, and A2 the search-cost
// ratios. A claim the table does not support reads "not reproduced at
// this n".
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

	// E3b rows: n, balls, mean max, measured gap, bins > avg, upper term.
	rows, measured = section(t, report, "## E3b")
	var gaps, uppers []string
	bounded := true
	for _, r := range rows {
		gaps = append(gaps, r[3])
		uppers = append(uppers, r[5])
		bounded = bounded && cellFloat(t, r[3]) <= cellFloat(t, r[5])
	}
	first, err := strconv.Atoi(rows[0][0])
	if err != nil {
		t.Fatal(err)
	}
	last, err := strconv.Atoi(rows[len(rows)-1][0])
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("while n grows %d× (%d → %d)", last/first, first, last); !strings.Contains(measured, want) {
		t.Errorf("E3b sentence %q does not say %q", measured, want)
	}
	if want := fmt.Sprintf("the measured gap reads %s against an upper term of %s", strings.Join(gaps, ", "), strings.Join(uppers, ", ")); !strings.Contains(measured, want) {
		t.Errorf("E3b sentence %q does not say %q", measured, want)
	}
	if got, want := strings.Contains(measured, "not reproduced at this n"), !bounded || last/first < 100; got != want {
		t.Errorf("E3b sentence %q: says not reproduced = %v, table says %v", measured, got, want)
	}

	// E3c rows: n, store, measured B/bin, mean max, mean gap, max
	// inflation; "small" is at most one ball.
	rows, measured = section(t, report, "## E3c")
	var infl []string
	small := true
	for _, r := range rows {
		if r[1] == "sketch" {
			infl = append(infl, fmt.Sprintf("%+.2f", cellFloat(t, r[5])))
			small = small && cellFloat(t, r[5]) <= 1
		}
	}
	if want := "by " + strings.Join(infl, ", "); !strings.Contains(measured, want) {
		t.Errorf("E3c sentence %q does not say %q", measured, want)
	}
	if !small && !strings.Contains(measured, "small one-sided max-load inflation is not reproduced at this n") {
		t.Errorf("E3c sentence %q calls an inflation of %s small", measured, strings.Join(infl, ", "))
	}

	// A2 rows: k, kd max, two max, rand max, kd msgs/file, two msgs/file,
	// kd search, two search; search cost halves at a ratio of 0.5 or less.
	rows, measured = section(t, report, "## A2")
	var ratios []string
	halves := true
	for _, r := range rows {
		kd, two := cellFloat(t, r[6]), cellFloat(t, r[7])
		ratios = append(ratios, fmt.Sprintf("%.2f", kd/two))
		halves = halves && 2*kd <= two
	}
	if want := fmt.Sprintf("(ratios %s)", strings.Join(ratios, ", ")); !strings.Contains(measured, want) {
		t.Errorf("A2 sentence %q does not say %q", measured, want)
	}
	if got := strings.Contains(measured, "search cost halves is not reproduced at this n"); got == halves {
		t.Errorf("A2 sentence %q: search ratios %s, halves = %v", measured, strings.Join(ratios, ", "), halves)
	}
}
