package kdchoice_test

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeQuotesMatchBench: every number the README quotes from a
// tracked BENCH_*.json file is pinned here, so refreshing a file without
// updating its quotes (or the reverse) fails instead of drifting silently.
// Each row's regexp captures one quoted number; the file's value, divided
// by unit, must print to exactly that number at the quote's precision.
func TestReadmeQuotesMatchBench(t *testing.T) {
	const (
		fast   = "kd/fast/n=100000,k=2,d=64"
		scale7 = "place/kd/fast/n=10000000,k=2,d=64"
		tail7  = ",warm=2000000,balls=4000000"
		serve  = "serve/oneplusbeta/n=100000,d=2,beta=1,store=hist,churn=0.4"
		evict  = serve + ",faults=fail:0.0005,200"
	)
	rows := []struct {
		re, file, cell, field string
		unit                  float64
	}{
		{`Current tracked cell[^*]*\*\*(\d+) ns/round`, "BENCH_kd.json", fast, "ns_per_op", 1},
		{`Current tracked cell[^*]*\*\*\d+ ns/round /\s+([\d.]+)M balls/sec\*\*`, "BENCH_kd.json", fast, "balls_per_sec", 1e6},
		{`n = 10⁷, k=2, d=64\): ([\d.]+) /`, "BENCH_scale.json", scale7 + tail7, "bytes_per_bin", 1},
		{`n = 10⁷, k=2, d=64\): [\d.]+ /\s+([\d.]+)\s+/`, "BENCH_scale.json", scale7 + ",store=compact" + tail7, "bytes_per_bin", 1},
		{`n = 10⁷, k=2, d=64\): [\d.]+ /\s+[\d.]+\s+/\s+([\d.]+) bytes/bin`, "BENCH_scale.json", scale7 + ",store=hist" + tail7, "bytes_per_bin", 1},
		{`\(compact ([\d.]+)M vs dense`, "BENCH_scale.json", scale7 + ",store=compact" + tail7, "balls_per_sec", 1e6},
		{`\(compact [\d.]+M vs dense ([\d.]+)M\s+balls/sec in the current recording`, "BENCH_scale.json", scale7 + tail7, "balls_per_sec", 1e6},
		{`read it at (\d+)–\d+ ns/round`, "BENCH_kd.json", "single/n=100000", "ns_per_op", 1},
		{`read it at \d+–(\d+) ns/round`, "BENCH_faults.json", "single/n=100000", "ns_per_op", 1},
		{`tracked serving cell[^*]*\*\*([\d.]+)M\s+ops/sec`, "BENCH_serve.json", serve, "ops_per_sec", 1e6},
		{`tracked serving cell[^*]*\*\*[\d.]+M\s+ops/sec, (\d+) allocs/op\*\*`, "BENCH_serve.json", serve, "allocs_per_op", 1},
		{`tracked fail\+evict cells read \*\*(\d+) and`, "BENCH_faults.json", evict + "+loss:0.1+retry:2+evict", "ns_per_op", 1},
		{`tracked fail\+evict cells read \*\*\d+ and (\d+) ns/op\*\*`, "BENCH_faults.json", evict + "+evict", "ns_per_op", 1},
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]map[string]map[string]float64{} // file -> cell -> cost field -> value
	for _, r := range rows {
		if files[r.file] == nil {
			raw, err := os.ReadFile(r.file)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Cells []struct {
					Name string             `json:"name"`
					Cost map[string]float64 `json:"cost"`
				} `json:"cells"`
			}
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatalf("%s: %v", r.file, err)
			}
			files[r.file] = map[string]map[string]float64{}
			for _, c := range rep.Cells {
				files[r.file][c.Name] = c.Cost
			}
		}
		m := regexp.MustCompile(r.re).FindSubmatch(readme)
		if m == nil {
			t.Fatalf("README: no quote matching %q", r.re)
		}
		cells := files[r.file]
		c, ok := cells[r.cell]
		if !ok {
			t.Fatalf("%s: quoted cell %s missing", r.file, r.cell)
		}
		v := c[r.field] / r.unit
		quoted := string(m[1])
		decimals := 0
		if i := strings.IndexByte(quoted, '.'); i >= 0 {
			decimals = len(quoted) - i - 1
		}
		if got := strconv.FormatFloat(v, 'f', decimals, 64); got != quoted {
			t.Errorf("README quotes %s for %s %s, %s has %s", quoted, r.cell, r.field, r.file, got)
		}
	}
}
