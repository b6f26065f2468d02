package experiments

import (
	"strings"
	"testing"
)

func TestTable1SmallGrid(t *testing.T) {
	cells, err := Table1(Table1Opts{N: 3 * (1 << 8), Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Count expected cells: all (k,d) with k < d, plus (1,1), restricted to
	// the grid and to d <= n.
	want := 0
	for _, k := range table1Ks {
		for _, d := range table1Ds {
			if d <= 3*(1<<8) && (k < d || (k == 1 && d == 1)) {
				want++
			}
		}
	}
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if len(c.DistinctMax) == 0 {
			t.Fatalf("cell (%d,%d) has no results", c.K, c.D)
		}
		for _, m := range c.DistinctMax {
			if m < 1 {
				t.Fatalf("cell (%d,%d) reports max load %d", c.K, c.D, m)
			}
		}
	}
}

func TestTable1Render(t *testing.T) {
	cells, err := Table1(Table1Opts{N: 96, Runs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := Table1Render(cells)
	text := tbl.Text()
	if !strings.Contains(text, "k=192") || !strings.Contains(text, "d=193") {
		t.Fatalf("render missing rows/cols:\n%s", text)
	}
	// k=192, d=2 is blank.
	lines := strings.Split(text, "\n")
	var k192 string
	for _, l := range lines {
		if strings.HasPrefix(l, "k=192") {
			k192 = l
		}
	}
	if !strings.Contains(k192, "-") {
		t.Fatalf("k=192 row should contain blank cells: %q", k192)
	}
}

func TestTable1RespectsGridInvariant(t *testing.T) {
	cells, err := Table1(Table1Opts{N: 96, Runs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.K >= c.D && !(c.K == 1 && c.D == 1) {
			t.Fatalf("unexpected cell (%d,%d)", c.K, c.D)
		}
	}
}

func TestPaperTable1Sanity(t *testing.T) {
	paper := PaperTable1()
	// Spot-check the famous cells.
	if got := paper[[2]int{1, 1}]; len(got) != 3 || got[0] != 7 {
		t.Fatalf("(1,1) = %v", got)
	}
	if got := paper[[2]int{192, 193}]; len(got) != 2 || got[0] != 5 {
		t.Fatalf("(192,193) = %v", got)
	}
	// Every key must be a valid grid cell.
	inGrid := func(v int, grid []int) bool {
		for _, g := range grid {
			if g == v {
				return true
			}
		}
		return false
	}
	for key := range paper {
		if !inGrid(key[0], table1Ks) || !inGrid(key[1], table1Ds) {
			t.Fatalf("paper cell %v not on the grid", key)
		}
	}
}

func TestLoadVectorProfile(t *testing.T) {
	p, err := LoadVectorProfile(2, 3, 1024, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.B1 <= 0 || p.B1 < p.BBeta0 || p.BBeta0 < p.BGammaStar {
		t.Fatalf("profile not decreasing: B1=%v BBeta0=%v BGammaStar=%v", p.B1, p.BBeta0, p.BGammaStar)
	}
	if p.MeasuredGap < 0 {
		t.Fatalf("negative measured gap %v", p.MeasuredGap)
	}
	if len(p.MeanProfile) != 1024 {
		t.Fatalf("profile length %d", len(p.MeanProfile))
	}
	if p.Beta0 < 1 || p.GammaStar < p.Beta0 {
		t.Fatalf("checkpoints: beta0=%d gammastar=%d", p.Beta0, p.GammaStar)
	}
}

func TestLoadVectorProfileError(t *testing.T) {
	if _, err := LoadVectorProfile(3, 2, 64, 1, 1); err == nil {
		t.Fatal("invalid k/d accepted")
	}
}

func TestScalingSeries(t *testing.T) {
	pts, err := ScalingSeries(1, 2, []int{256, 1024, 4096}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Mean max should not decrease with n, and predictions grow.
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanMax < pts[i-1].MeanMax-0.5 {
			t.Fatalf("mean max dropped: %v", pts)
		}
		if pts[i].Predicted < pts[i-1].Predicted {
			t.Fatalf("prediction dropped: %v", pts)
		}
	}
}

func TestScalingSeriesSingleChoice(t *testing.T) {
	pts, err := ScalingSeries(1, 1, []int{1024}, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MeanMax < 3 {
		t.Fatalf("single-choice mean max %v suspiciously low", pts[0].MeanMax)
	}
}

func TestHeavySeries(t *testing.T) {
	pts, err := HeavySeries(2, 4, 256, []int{1, 4, 16}, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.MeanGap < 0 {
			t.Fatalf("negative gap at mult %d", p.Mult)
		}
		if p.GapLower > p.GapUpper {
			t.Fatalf("theory bounds inverted at mult %d", p.Mult)
		}
	}
	// Gap at m=16n should not exceed gap at m=4n by much (Theorem 2).
	if pts[2].MeanGap > pts[1].MeanGap+1.5 {
		t.Fatalf("gap not stabilizing: %v", pts)
	}
}

func TestTradeoffFrontier(t *testing.T) {
	pts, err := TradeoffFrontier(4096, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("%d frontier points", len(pts))
	}
	byLabel := map[string]TradeoffPoint{}
	for _, p := range pts {
		byLabel[p.Label] = p
	}
	single := byLabel["single choice"]
	two := byLabel["two-choice"]
	if single.MessagesPerBall != 1 {
		t.Fatalf("single-choice messages/ball = %v", single.MessagesPerBall)
	}
	if two.MessagesPerBall != 2 {
		t.Fatalf("two-choice messages/ball = %v", two.MessagesPerBall)
	}
	if two.MeanMax >= single.MeanMax {
		t.Fatal("two-choice should beat single choice")
	}
	// The d=2k sweet spot: 2 messages/ball and low max load.
	for _, p := range pts {
		if strings.Contains(p.Label, "d=2k") {
			if p.MessagesPerBall < 1.9 || p.MessagesPerBall > 2.1 {
				t.Fatalf("d=2k messages/ball = %v", p.MessagesPerBall)
			}
			if p.MeanMax >= single.MeanMax {
				t.Fatal("d=2k sweet spot should beat single choice")
			}
		}
	}
}

func TestRemarks(t *testing.T) {
	rows, err := Remarks(4096, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d remark rows", len(rows))
	}
	// (64,65) must beat single choice on max load.
	last := rows[2]
	if MeanOfInts(last.LeftMax) >= MeanOfInts(last.RightMax) {
		t.Fatalf("(64,65) max %v not better than single choice %v", last.LeftMax, last.RightMax)
	}
}

func TestAdaptiveAblation(t *testing.T) {
	pts, err := AdaptiveAblation(2048, 5, 19, [][2]int{{2, 3}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d ablation points", len(pts))
	}
	for _, p := range pts {
		// Section 7: the adaptive variant should never be meaningfully
		// worse.
		if p.AdaptMax > p.StrictMax+0.5 {
			t.Fatalf("(%d,%d): adaptive %.2f worse than strict %.2f", p.K, p.D, p.AdaptMax, p.StrictMax)
		}
	}
}

func TestMajorizationChecks(t *testing.T) {
	checks, err := MajorizationChecks(1024, 200, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 4 {
		t.Fatalf("%d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Holds {
			t.Fatalf("majorization %s failed: left %.3f right %.3f", c.Property, c.LeftMean, c.RightMean)
		}
	}
}

func TestSchedulerComparison(t *testing.T) {
	rows, err := SchedulerComparison(SchedulerOpts{
		Workers: 50, Jobs: 600, Rho: 0.8, Seed: 29, Ks: []int{2, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BatchMean <= 0 || r.PerTaskMean <= 0 || r.RandomMean <= 0 {
			t.Fatalf("non-positive response times: %+v", r)
		}
		if r.ProbesPerJob != float64(2*r.K) {
			t.Fatalf("k=%d probes/job %v, want %d", r.K, r.ProbesPerJob, 2*r.K)
		}
		// Informed placement beats random.
		if r.BatchMean >= r.RandomMean {
			t.Fatalf("k=%d: batch %.3f not better than random %.3f", r.K, r.BatchMean, r.RandomMean)
		}
	}
	// At k=8 the batch tail should beat the per-task tail (the paper's
	// argument for sharing probes).
	if rows[1].BatchP95 >= rows[1].PerTaskP95 {
		t.Fatalf("k=8: batch p95 %.3f not better than per-task %.3f",
			rows[1].BatchP95, rows[1].PerTaskP95)
	}
}

func TestStorageComparison(t *testing.T) {
	rows, err := StorageComparison(StorageOpts{
		Servers: 128, Files: 4000, Seed: 31, Ks: []int{3, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Search cost: k+1 vs 2k, the paper's claim.
		if r.KDSearch != r.K+1 {
			t.Fatalf("k=%d kd search %d, want %d", r.K, r.KDSearch, r.K+1)
		}
		if r.TwoSearch != 2*r.K {
			t.Fatalf("k=%d two search %d, want %d", r.K, r.TwoSearch, 2*r.K)
		}
		// Message cost: (k+1)/file vs 2k/file.
		if r.KDMsgsPerFile >= r.TwoMsgsPerFile {
			t.Fatalf("k=%d: kd msgs %.2f not below two-choice %.2f", r.K, r.KDMsgsPerFile, r.TwoMsgsPerFile)
		}
		// Balance comparable: within a couple of objects.
		if r.KDMax > r.TwoMax+3 {
			t.Fatalf("k=%d: kd max %.1f much worse than two %.1f", r.K, r.KDMax, r.TwoMax)
		}
	}
}

func TestSharingAblation(t *testing.T) {
	pts, err := SharingAblation(1024, 100, 61, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.SharedMax > p.StaleMax+0.15 {
			t.Fatalf("k=%d: shared %.2f worse than stale %.2f", p.K, p.SharedMax, p.StaleMax)
		}
		if p.Budget != 2*p.K {
			t.Fatalf("k=%d: budget %d", p.K, p.Budget)
		}
	}
}

func TestSchedulerComparisonSkipsInfeasibleK(t *testing.T) {
	// 30 workers cannot host a d = 32 probe batch; k = 16 must be dropped.
	rows, err := SchedulerComparison(SchedulerOpts{
		Workers: 30, Jobs: 100, Rho: 0.6, Seed: 1, Ks: []int{4, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].K != 4 {
		t.Fatalf("expected only k=4, got %+v", rows)
	}
	// No feasible level at all is an error.
	if _, err := SchedulerComparison(SchedulerOpts{
		Workers: 3, Jobs: 10, Rho: 0.6, Seed: 1, Ks: []int{4},
	}); err == nil {
		t.Fatal("infeasible cluster accepted")
	}
}

func TestHeavyScaleQuick(t *testing.T) {
	points, err := HeavyScale(HeavyScaleOpts{
		Ns:   []int{512, 2048},
		Mult: 8,
		Runs: 2,
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Balls != 8*p.N {
			t.Fatalf("n=%d: balls = %d, want %d", p.N, p.Balls, 8*p.N)
		}
		// Theorem 2: the gap stays far below any linear-in-m/n growth; at
		// (2,64) it is O(1) with generous slack.
		if p.MeanGap < 0 || p.MeanGap > 5 {
			t.Fatalf("n=%d: gap %v out of the Theorem 2 window", p.N, p.MeanGap)
		}
		if p.GapUpper <= 0 {
			t.Fatalf("n=%d: missing upper term", p.N)
		}
		// ν_{avg+1} comes from the streamed occupancy profile and is
		// bounded by the bin count.
		if p.AboveAvg < 0 || p.AboveAvg > float64(p.N) {
			t.Fatalf("n=%d: AboveAvg %v out of range", p.N, p.AboveAvg)
		}
	}
	// Determinism: the same options reproduce the same points.
	again, err := HeavyScale(HeavyScaleOpts{Ns: []int{512, 2048}, Mult: 8, Runs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if points[i] != again[i] {
			t.Fatalf("HeavyScale not deterministic at point %d", i)
		}
	}
}
