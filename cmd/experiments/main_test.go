package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/cmd/internal/report"
)

// regenerate is the command that writes the checked-in report.
const regenerate = "go run ./cmd/experiments -scale quick -seed 1 > EXPERIMENTS.md"

var (
	quickOnce   sync.Once
	quickReport string
	quickErr    error
)

// quick returns the report at -scale quick -seed 1, generated once per
// test binary; the tests below all read this one report.
func quick(t *testing.T) string {
	t.Helper()
	quickOnce.Do(func() {
		var buf bytes.Buffer
		quickErr = report.Run([]string{"-scale", "quick", "-seed", "1"}, &buf)
		quickReport = buf.String()
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickReport
}

// TestReportMatchesExperimentsMD: the checked-in EXPERIMENTS.md is the
// quick report byte for byte, so a change to a section's code or numbers
// must come with the regenerated file.
func TestReportMatchesExperimentsMD(t *testing.T) {
	file, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("%v; regenerate with: %s", err, regenerate)
	}
	got, want := strings.Split(quick(t), "\n"), strings.Split(string(file), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return strconv.Quote(lines[i])
		}
		return "(end of file)"
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("EXPERIMENTS.md differs from the report at line %d:\n  file:   %s\n  report: %s\nregenerate with: %s",
				i+1, line(want, i), line(got, i), regenerate)
		}
	}
}

// sectionText returns the report's section with the given id, from its
// heading to the next heading.
func sectionText(t *testing.T, doc, id string) string {
	t.Helper()
	i := strings.Index(doc, "\n## "+id+" — ")
	if i < 0 {
		t.Fatalf("report has no section %q", id)
	}
	body := doc[i+1:]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j+1]
	}
	return body
}

// tables returns the data rows of each Markdown table in a section
// (header and rule dropped, cells trimmed).
func tables(text string) [][][]string {
	var out [][][]string
	line := 0
	for _, l := range strings.Split(text, "\n") {
		if !strings.HasPrefix(l, "|") {
			line = 0
			continue
		}
		line++
		switch {
		case line == 1:
			out = append(out, nil)
		case line > 2:
			var cells []string
			for _, c := range strings.Split(strings.Trim(l, "|"), " | ") {
				cells = append(cells, strings.TrimSpace(c))
			}
			out[len(out)-1] = append(out[len(out)-1], cells)
		}
	}
	return out
}

func TestRunQuickScaleProducesAllSections(t *testing.T) {
	doc := quick(t)
	for _, id := range report.IDs() {
		if tabs := tables(sectionText(t, doc, id)); len(tabs) == 0 || len(tabs[0]) == 0 {
			t.Errorf("section %s has no table rows", id)
		}
	}
	// Text each section must carry: the Table 1 grid's row and column
	// labels, its agreement summary and per-cell comparison, and the
	// application studies' columns.
	for id, wants := range map[string][]string{
		"T1": {"k=1", "d=193", "Agreement with the published table", "| k | d | measured | paper | match |"},
		"E6": {"paper's point"},
		"A1": {"batch mean", "per-task p95", "random mean", "probes/job"},
		"A2": {"kd max", "two search", "msgs/file"},
	} {
		text := sectionText(t, doc, id)
		for _, want := range wants {
			if !strings.Contains(text, want) {
				t.Errorf("section %s lacks %q", id, want)
			}
		}
	}
}

// TestRunDeterministic: sections printed alone, named out of report
// order, come out in report order and byte-identical to the same sections
// of the full report.
func TestRunDeterministic(t *testing.T) {
	var buf bytes.Buffer
	if err := report.Run([]string{"-scale", "quick", "-seed", "1", "-only", "A2, T1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out, doc := buf.String(), quick(t)
	if !strings.Contains(out, "`go run ./cmd/experiments -scale quick -seed 1 -only T1,A2`") {
		t.Error("preamble does not name the -only sections in report order")
	}
	if strings.Index(out, "\n## T1 ") > strings.Index(out, "\n## A2 ") {
		t.Error("-only A2,T1 printed A2 before T1")
	}
	if strings.Count(out, "\n## ") != 2 {
		t.Errorf("-only A2,T1 printed %d sections", strings.Count(out, "\n## "))
	}
	for _, id := range []string{"T1", "A2"} {
		if sectionText(t, out, id) != sectionText(t, doc, id) {
			t.Errorf("section %s printed alone differs from the full report", id)
		}
	}
}

// TestRunFormats: -format csv prints each table of the selected sections
// as CSV under its '#' heading and no prose; -format text prints the same
// cells as aligned columns, with plain headings and prose.
func TestRunFormats(t *testing.T) {
	doc := quick(t)
	var buf bytes.Buffer
	if err := report.Run([]string{"-scale", "quick", "-seed", "1", "-only", "F1/F2,A1,A2", "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	csv := buf.String()
	for _, want := range []string{"\n## F1/F2 — ", "\nk,d,", "\n## A1 — ", "\nk,batch mean,", "\n## A2 — ", "\nk,kd max,"} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv output lacks %q", want)
		}
	}
	if strings.Contains(csv, "**") {
		t.Error("csv output carries prose")
	}
	for _, row := range tables(sectionText(t, doc, "A2"))[0] {
		if !strings.Contains(csv, "\n"+strings.Join(row, ",")+"\n") {
			t.Errorf("csv output lacks the A2 row %v", row)
		}
	}

	buf.Reset()
	if err := report.Run([]string{"-scale", "quick", "-seed", "1", "-only", "E6", "-format", "text"}, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"\nE6 — Section 1.2 remarks", "\nPaper: (8,9)-choice"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output lacks %q", want)
		}
	}
	if strings.Contains(text, "**") || strings.Contains(text, "##") || strings.Contains(text, "|") {
		t.Error("text output carries Markdown")
	}
	columns := regexp.MustCompile(`\s{2,}`)
	lines := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		lines[strings.Join(columns.Split(strings.TrimSpace(line), -1), "|")] = true
	}
	for _, row := range tables(sectionText(t, doc, "E6"))[0] {
		if !lines[strings.Join(row, "|")] {
			t.Errorf("text output lacks the E6 row %v", row)
		}
	}
}

func TestScaleFor(t *testing.T) {
	for _, name := range []string{"quick", "full", "paper"} {
		sc, err := report.ScaleFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Table1N <= 0 || sc.Runs <= 0 || len(sc.ScalingNs) == 0 {
			t.Fatalf("%s: bad scale %+v", name, sc)
		}
	}
	if _, err := report.ScaleFor("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunBadFlags: every bad flag fails before any output, and the error
// names what was wrong.
func TestRunBadFlags(t *testing.T) {
	ids := report.IDs()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "zzz"}, `"zzz"`},
		{[]string{"-whatever"}, "whatever"},
		{[]string{"-format", "json"}, `"json"`},
		{[]string{"-only", "T1,E9"}, `"E9" in -only (valid: ` + strings.Join(ids, ", ") + ")"},
	} {
		var buf bytes.Buffer
		err := report.Run(tc.args, &buf)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not say %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: output produced despite the error", tc.args)
		}
	}
}

func TestClassifyMatch(t *testing.T) {
	cases := []struct {
		got, want []int
		label     string
	}{
		{[]int{2}, []int{2}, "exact"},
		{[]int{3, 4}, []int{3, 4}, "exact"},
		{[]int{3}, []int{3, 4}, "exact"},
		{[]int{2, 3}, []int{2}, "overlap"},
		{[]int{3, 5}, []int{3, 4}, "overlap"},
		{[]int{3}, []int{2}, "±1"},
		{[]int{5}, []int{4}, "±1"},
		{[]int{7}, []int{2}, "diff"},
		{[]int{9}, []int{4}, "diff"},
		{nil, []int{4}, "n/a"},
		{[]int{4}, nil, "n/a"},
	}
	for _, tc := range cases {
		if got := report.ClassifyMatch(tc.got, tc.want); got != tc.label {
			t.Fatalf("ClassifyMatch(%v,%v) = %q, want %q", tc.got, tc.want, got, tc.label)
		}
	}
}

// verdictRows returns the rows of the first Markdown table of the report
// section with the given id and its "**Measured**" sentence.
func verdictRows(t *testing.T, doc, id string) (rows [][]string, measured string) {
	t.Helper()
	text := sectionText(t, doc, id)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "**Measured**: ") {
			measured = strings.TrimPrefix(line, "**Measured**: ")
		}
	}
	if tabs := tables(text); len(tabs) > 0 {
		rows = tabs[0]
	}
	if len(rows) == 0 || measured == "" {
		t.Fatalf("section %q: %d table rows, measured sentence %q", id, len(rows), measured)
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
// sketch's inflation over the exact max load, A2 the search-cost ratios
// and whether search costs k+1 probes against 2k, and R1 the gap
// inflation without and with the largest retry budget. A claim the table
// does not support reads "not reproduced at this n".
func TestVerdictsMatchTables(t *testing.T) {
	doc := quick(t)

	// E1 rows: k, d, n, measured mean max, leading term; each (k,d)
	// pair's rows run from the smallest n to the largest.
	rows, measured := verdictRows(t, doc, "E1")
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
	rows, measured = verdictRows(t, doc, "E5")
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
	rows, measured = verdictRows(t, doc, "E3b")
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
	rows, measured = verdictRows(t, doc, "E3c")
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
	// kd search, two search; the paper's search cost is k+1 probes
	// against 2k.
	rows, measured = verdictRows(t, doc, "A2")
	var ratios []string
	paperCost := true
	for _, r := range rows {
		k, kd, two := cellFloat(t, r[0]), cellFloat(t, r[6]), cellFloat(t, r[7])
		ratios = append(ratios, fmt.Sprintf("%.2f", kd/two))
		paperCost = paperCost && kd == k+1 && two == 2*k
	}
	if want := fmt.Sprintf("(ratios %s)", strings.Join(ratios, ", ")); !strings.Contains(measured, want) {
		t.Errorf("A2 sentence %q does not say %q", measured, want)
	}
	if got := strings.Contains(measured, "k+1 probes against ≈2k is not reproduced at this n"); got == paperCost {
		t.Errorf("A2 sentence %q: search costs k+1 against 2k = %v", measured, paperCost)
	}

	// R1 rows: loss rate, retry budget, mean gap, gap inflation, ...;
	// retry budgets ascend within each loss rate. The retries buy the
	// balance back when the largest budget inflates the gap no more than
	// no retries at every loss rate, and less wherever that is above 0.
	rows, measured = verdictRows(t, doc, "R1")
	var without, with []string
	buys := true
	for i, r := range rows {
		switch {
		case r[1] == "0":
			without = append(without, r[3])
		case i == len(rows)-1 || rows[i+1][1] == "0":
			with = append(with, r[3])
			o, w := cellFloat(t, without[len(without)-1]), cellFloat(t, r[3])
			buys = buys && w <= o && (w < o || o <= 0)
		}
	}
	if want := fmt.Sprintf("inflates by %s with no retries and by %s with a retry budget of %s", strings.Join(without, ", "), strings.Join(with, ", "), rows[len(rows)-1][1]); !strings.Contains(measured, want) {
		t.Errorf("R1 sentence %q does not say %q", measured, want)
	}
	if got := strings.Contains(measured, "not reproduced at this n"); got == buys {
		t.Errorf("R1 sentence %q: retries buy the balance back = %v", measured, buys)
	}
}
