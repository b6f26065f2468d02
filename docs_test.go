package kdchoice_test

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestReadmeTrackedCellMatchesBenchKD: the README quotes the tracked
// micro-benchmark cell; refreshing BENCH_kd.json without updating the quote
// (or the reverse) fails here instead of drifting silently.
func TestReadmeTrackedCellMatchesBenchKD(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Current tracked cell[^*]*\*\*(\d+) ns/round /\s+([\d.]+)M balls/sec\*\*`).FindSubmatch(readme)
	if m == nil {
		t.Fatal("README: no \"Current tracked cell ... **N ns/round / XM balls/sec**\" sentence")
	}
	raw, err := os.ReadFile("BENCH_kd.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Grid []struct {
			Name        string  `json:"name"`
			NsPerRound  float64 `json:"ns_per_round"`
			BallsPerSec float64 `json:"balls_per_sec"`
		} `json:"grid"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	ns, _ := strconv.ParseFloat(string(m[1]), 64)
	mballs, _ := strconv.ParseFloat(string(m[2]), 64)
	for _, c := range bench.Grid {
		if c.Name != "kd/fast/n=100000,k=2,d=64" {
			continue
		}
		if ns != c.NsPerRound || math.Abs(mballs-c.BallsPerSec/1e6) > 0.005 {
			t.Fatalf("README quotes %v ns/round / %vM balls/sec, BENCH_kd.json has %v / %.2fM", ns, mballs, c.NsPerRound, c.BallsPerSec/1e6)
		}
		return
	}
	t.Fatal("BENCH_kd.json: tracked cell kd/fast/n=100000,k=2,d=64 missing")
}
