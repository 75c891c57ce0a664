package experiments

import (
	"context"
	"strings"
	"testing"

	"rofs/internal/disk"
	"rofs/internal/runner"
	"rofs/internal/units"
)

// testPool is shared across the package's tests so configurations that
// recur between experiments (e.g. the Table 4 / Figure 4 first-fit runs)
// simulate once per `go test` process.
var testPool = runner.New(0)

func TestScaleWorkloadSelection(t *testing.T) {
	sc := BenchScale()
	ts, err := sc.Workload("TS")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := FullScale().Workload("TS")
	// TS scales counts, not sizes.
	if ts.Types[0].Files >= full.Types[0].Files {
		t.Error("bench TS did not scale file counts")
	}
	if ts.Types[0].InitialBytes != full.Types[0].InitialBytes {
		t.Error("bench TS scaled sizes; should scale counts only")
	}
	tp, _ := sc.Workload("TP")
	fullTP, _ := FullScale().Workload("TP")
	// TP scales sizes, not counts.
	if tp.Types[0].Files != fullTP.Types[0].Files {
		t.Error("bench TP scaled counts; should scale sizes only")
	}
	if tp.Types[0].InitialBytes >= fullTP.Types[0].InitialBytes {
		t.Error("bench TP did not scale sizes")
	}
	if _, err := sc.Workload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestScaleExtentRanges(t *testing.T) {
	sc := BenchScale()
	tsRanges, err := sc.ExtentRanges("TS", 3)
	if err != nil {
		t.Fatal(err)
	}
	fullTS, _ := FullScale().ExtentRanges("TS", 3)
	for i := range tsRanges {
		if tsRanges[i] != fullTS[i] {
			t.Error("TS ranges should not scale")
		}
	}
	tpRanges, _ := sc.ExtentRanges("TP", 3)
	fullTP, _ := FullScale().ExtentRanges("TP", 3)
	if tpRanges[2] != fullTP[2]/32 {
		t.Errorf("TP range not scaled: %d vs %d", tpRanges[2], fullTP[2])
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	rows, err := Table3(context.Background(), testPool, BenchScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byWL := map[string]Table3Row{}
	for _, r := range rows {
		byWL[r.Workload] = r
		t.Logf("%s: int=%.1f ext=%.1f app=%.1f seq=%.1f",
			r.Workload, r.InternalPct, r.ExternalPct, r.AppPct, r.SeqPct)
	}
	// Paper Table 3 orderings: SC suffers the worst external fragmentation
	// (failed doubling requests with plenty free); SC/TP sequential
	// throughput is high; TS throughput is the lowest.
	if byWL["SC"].ExternalPct <= byWL["TS"].ExternalPct {
		t.Error("SC external frag should exceed TS under buddy")
	}
	if byWL["SC"].SeqPct < 70 || byWL["TP"].SeqPct < 70 {
		t.Error("SC/TP sequential should be high under buddy")
	}
	if byWL["TS"].SeqPct >= byWL["SC"].SeqPct {
		t.Error("TS sequential should be far below SC")
	}
	if byWL["TS"].AppPct >= byWL["SC"].AppPct {
		t.Error("TS application should be far below SC")
	}
}

func TestFigure3GrowBreak(t *testing.T) {
	res, err := Figure3(context.Background(), testPool)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	g1, g2 := res[0], res[1]
	// "Any file over 72K requires a 64K block" (g=1) vs 144K (g=2).
	if g1.FileKB != 72+64 {
		t.Errorf("g=1 crossed at %dK allocation, want 136K (72K + the 64K block)", g1.FileKB)
	}
	if g2.FileKB != 144+64 {
		t.Errorf("g=2 crossed at %dK allocation, want 208K", g2.FileKB)
	}
	// Both pay the discontinuity on a fresh disk.
	if !g1.Discontiguous || g1.GapKB != 128-72 {
		t.Errorf("g=1 gap = %dK discontiguous=%v, want 56K gap", g1.GapKB, g1.Discontiguous)
	}
	if !g2.Discontiguous {
		t.Error("g=2 crossing should still be discontiguous on this layout")
	}
}

func TestFigure6SelectsPaperPolicies(t *testing.T) {
	sc := BenchScale()
	ps, err := sc.Figure6Policies("TS")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("got %d policies", len(ps))
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"buddy", "rbuddy-5-g1-clus", "extent-first-fit-3r", "fixed-4K"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in %v", want, names)
		}
	}
	ps, _ = sc.Figure6Policies("TP")
	if ps[3].Name() != "fixed-16K" {
		t.Errorf("TP baseline = %s, want fixed-16K", ps[3].Name())
	}
}

func TestRBuddyConfigsGrid(t *testing.T) {
	cfgs := RBuddyConfigs()
	if len(cfgs) != 16 {
		t.Fatalf("grid has %d configs, want 16", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if seen[c.Name()] {
			t.Errorf("duplicate config %s", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestBenchScaleDiskIsSmall(t *testing.T) {
	sc := BenchScale()
	if sc.Disk.NDisks != 2 {
		t.Error("bench scale should use 2 drives")
	}
	if sc.Disk.Geometry.Capacity() >= disk.WrenIV().Capacity() {
		t.Error("bench drive should be smaller than a full Wren IV")
	}
}

func TestAblationFileMixShape(t *testing.T) {
	cells, err := AblationFileMix(context.Background(), testPool, BenchScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 { // 4 shares × 2 policies
		t.Fatalf("got %d cells", len(cells))
	}
	// Restricted buddy internal fragmentation grows with the large-file
	// share (more files parked in half-used 64K blocks).
	var rlow, rhigh float64
	for _, c := range cells {
		if strings.HasPrefix(c.Policy, "rbuddy") {
			if c.LargeShare == 0.1 {
				rlow = c.InternalPct
			}
			if c.LargeShare == 0.7 {
				rhigh = c.InternalPct
			}
		}
		t.Logf("share=%.0f%% %s: int=%.1f ext=%.1f", c.LargeShare*100, c.Policy, c.InternalPct, c.ExternalPct)
	}
	if rhigh <= rlow {
		t.Errorf("rbuddy internal frag should grow with large share: %.1f vs %.1f", rlow, rhigh)
	}
}

func TestFigure1GridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in short mode")
	}
	sc := BenchScale()
	cells, err := Figure1(context.Background(), testPool, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 48 { // 16 configs × 3 workloads
		t.Fatalf("got %d cells", len(cells))
	}
	worst, worstTS := 0.0, 0.0
	for _, c := range cells {
		if c.InternalPct > worst {
			worst = c.InternalPct
		}
		if c.Workload == "TS" && c.InternalPct > worstTS {
			worstTS = c.InternalPct
		}
		if c.InternalPct < 0 || c.ExternalPct < 0 {
			t.Fatalf("negative fragmentation: %+v", c)
		}
	}
	t.Logf("worst restricted buddy internal frag: %.1f%% overall, %.1f%% on TS", worst, worstTS)
	// The paper's headline ("even the worst fragmentation is under 6%")
	// holds for TS in our runs; SC/TP run hotter because our level-block
	// rule keeps a half-used 16M block on every ~100M file (see
	// EXPERIMENTS.md on the Figure 3 / Figure 1 tension in the paper).
	if worstTS > 10 {
		t.Errorf("worst TS restricted buddy fragmentation %.1f%% is out of the paper's regime", worstTS)
	}
	if worst > 30 {
		t.Errorf("worst-case fragmentation %.1f%% is far out of regime", worst)
	}
}

func TestUnitsSanity(t *testing.T) {
	if units.KB != 1024 {
		t.Fatal("units drifted")
	}
}

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]string{"": "bench", "bench": "bench", "Full": "full", "full": "full"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != want {
			t.Errorf("ScaleByName(%q) = %q, %v; want %q", name, sc.Name, err, want)
		}
	}
	if _, err := ScaleByName("foo"); err == nil || !strings.Contains(err.Error(), `unknown scale "foo"`) {
		t.Errorf("ScaleByName(foo) error = %v", err)
	}
}
