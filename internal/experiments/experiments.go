// Package experiments defines every table and figure of the paper's
// evaluation as a runnable experiment, shared by the cmd/rofs-tables CLI
// and the repository's benchmark harness. Each function returns structured
// rows; rendering lives with the callers.
//
// Experiments run at a Scale: FullScale reproduces the paper's
// configuration (8 × Wren IV, 2.8 G in decimal units, full workloads);
// BenchScale is a shape-preserving reduction (2 drives, workloads divided)
// that runs in milliseconds-to-seconds per experiment for tests and
// `go test -bench`.
//
// Each experiment declares its runs as runner.Specs and assembles its
// rows from the pooled results, so a shared runner.Pool executes a whole
// evaluation concurrently and deduplicates configurations that appear in
// more than one table.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"rofs/internal/alloc/extent"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/runner"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// Scale fixes the disk system and workload reduction for a batch of
// experiments.
type Scale struct {
	Name string
	Disk disk.Config
	// Div divides the TS file count and the TP/SC file sizes (and the
	// TP/SC extent ranges to match).
	Div int64
	// MaxSimMS caps each throughput run.
	MaxSimMS float64
	Seed     int64
}

// FullScale returns the paper's configuration.
func FullScale() Scale {
	return Scale{Name: "full", Disk: disk.DefaultConfig(), Div: 1, MaxSimMS: 300_000, Seed: 42}
}

// BenchScale returns the reduced configuration: two drives of 200
// cylinders (≈86M) with the workloads divided by 32.
func BenchScale() Scale {
	cfg := disk.DefaultConfig()
	cfg.NDisks = 2
	cfg.Geometry.Cylinders = 200
	return Scale{Name: "bench", Disk: cfg, Div: 32, MaxSimMS: 120_000, Seed: 42}
}

// ScaleByName resolves a scale name, ignoring case: "full", or "bench"
// (also what an empty name means). Every front end that takes a scale
// name resolves it here.
func ScaleByName(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "", "bench":
		return BenchScale(), nil
	case "full":
		return FullScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want full or bench)", name)
}

// Workload returns a workload scaled per the Scale's divisor (see
// divide).
func (sc Scale) Workload(name string) (workload.Workload, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return w, err
	}
	return divide(w, sc.Div), nil
}

// divide shrinks w by div: TS divides file counts (its files are
// inherently small), TP and SC divide file sizes (their file counts are
// inherently small). A div of 1 or less returns w unchanged.
func divide(w workload.Workload, div int64) workload.Workload {
	switch {
	case div <= 1:
		return w
	case w.Name == "TS":
		return w.Scale(div, 1)
	}
	return w.Scale(1, div)
}

// redundantArray returns the Scale's disk system under layout on at least
// four drives, so RAID-5 is non-degenerate, and the named workload
// divided by the plain-striped baseline's capacity over the layout's data
// capacity, rounded up (the fill phase restores the 90% measurement
// band).
func (sc Scale) redundantArray(layout disk.Layout, wlName string) (disk.Config, workload.Workload, error) {
	dcfg := sc.Disk
	dcfg.Layout = layout
	if dcfg.NDisks < 4 {
		dcfg.NDisks = 4
	}
	wl, err := sc.Workload(wlName)
	if err != nil {
		return dcfg, wl, err
	}
	baseCap := sc.Disk.Geometry.Capacity() * int64(sc.Disk.NDisks)
	layoutCap := dcfg.Geometry.Capacity() * int64(dcfg.NDisks)
	switch layout {
	case disk.Mirrored:
		layoutCap /= 2
	case disk.RAID5, disk.ParityStriped:
		layoutCap = layoutCap * int64(dcfg.NDisks-1) / int64(dcfg.NDisks)
	}
	return dcfg, divide(wl, (baseCap+layoutCap-1)/layoutCap), nil
}

// ExtentRanges returns the paper's extent-size ranges for the workload,
// divided to match the scaled file sizes.
func (sc Scale) ExtentRanges(name string, n int) ([]int64, error) {
	r, err := workload.ExtentRanges(name, n)
	if err != nil {
		return nil, err
	}
	if sc.Div <= 1 || name == "TS" || name == "ts" {
		return r, nil
	}
	out := make([]int64, len(r))
	for i := range r {
		out[i] = r[i] / sc.Div
		if out[i] < units.KB {
			out[i] = units.KB
		}
	}
	return out, nil
}

// Spec declares one run at this scale — the experiments' currency: every
// table and figure reduces to a slice of these handed to a runner.Pool.
func (sc Scale) Spec(p core.PolicySpec, wl workload.Workload, kind core.TestKind) runner.Spec {
	return runner.Spec{
		Disk:     sc.Disk,
		Policy:   p,
		Workload: wl,
		Kind:     kind,
		Seed:     sc.Seed,
		MaxSimMS: sc.MaxSimMS,
	}
}

// runAll executes specs through the pool and returns their outcomes in
// submission order, failing on the first error. A nil pool runs on a
// private default-sized one; a nil ctx means no cancellation.
func runAll(ctx context.Context, p *runner.Pool, specs []runner.Spec) ([]core.Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = runner.New(0)
	}
	results, err := p.Run(ctx, specs)
	if err != nil {
		return nil, err
	}
	outs := make([]core.Outcome, len(results))
	for i := range results {
		outs[i] = results[i].Outcome
	}
	return outs, nil
}

// --- Table 3: buddy allocation results ---

// Table3Row mirrors one row of the paper's Table 3.
type Table3Row struct {
	Workload    string
	InternalPct float64 // % of allocated space
	ExternalPct float64 // % of total space
	AppPct      float64 // % of max throughput
	SeqPct      float64
}

// table3Kinds are the three runs behind each Table 3 row.
var table3Kinds = []core.TestKind{core.Allocation, core.Application, core.Sequential}

// Table3Specs declares the buddy policy's allocation, application, and
// sequential runs on SC, TP, and TS — three consecutive Specs per
// workload, in table3Kinds order.
func Table3Specs(sc Scale) ([]runner.Spec, error) {
	var specs []runner.Spec
	for _, name := range []string{"SC", "TP", "TS"} {
		wl, err := sc.Workload(name)
		if err != nil {
			return nil, err
		}
		for _, kind := range table3Kinds {
			specs = append(specs, sc.Spec(core.Buddy(), wl, kind))
		}
	}
	return specs, nil
}

// Table3 runs the buddy policy's allocation, application, and sequential
// tests on SC, TP, and TS (§4.1).
func Table3(ctx context.Context, p *runner.Pool, sc Scale) ([]Table3Row, error) {
	specs, err := Table3Specs(sc)
	if err != nil {
		return nil, err
	}
	outs, err := runAll(ctx, p, specs)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	var rows []Table3Row
	for i := 0; i < len(outs); i += len(table3Kinds) {
		frag, app, seq := outs[i].Frag, outs[i+1].Perf, outs[i+2].Perf
		rows = append(rows, Table3Row{
			Workload:    specs[i].Workload.Name,
			InternalPct: frag.InternalPct,
			ExternalPct: frag.ExternalPct,
			AppPct:      app.Percent,
			SeqPct:      seq.Percent,
		})
	}
	return rows, nil
}

// --- Figures 1 and 2: the restricted buddy grid ---

// RBuddyConfigs enumerates the §4.2 evaluation grid: block-size counts
// {2,3,4,5} × grow factor {1,2} × {clustered, unclustered}.
func RBuddyConfigs() []core.PolicySpec {
	var out []core.PolicySpec
	for _, n := range []int{2, 3, 4, 5} {
		for _, clustered := range []bool{true, false} {
			for _, g := range []float64{1, 2} {
				out = append(out, core.RBuddy(n, g, clustered))
			}
		}
	}
	return out
}

// FragCell is one bar of a fragmentation figure (Figures 1 and 4).
type FragCell struct {
	Policy      string
	Workload    string
	InternalPct float64
	ExternalPct float64
	// ExtentsPerFile is filled by the extent-policy runs (Table 4).
	ExtentsPerFile float64
}

// PerfCell is one bar of a performance figure (Figures 2, 5, and 6).
type PerfCell struct {
	Policy    string
	Workload  string
	AppPct    float64
	SeqPct    float64
	AppStable bool
	SeqStable bool
}

// Figure1 runs the allocation test for every restricted buddy
// configuration on each workload.
func Figure1(ctx context.Context, p *runner.Pool, sc Scale) ([]FragCell, error) {
	return fragGrid(ctx, p, sc, RBuddyConfigs(), nil)
}

// Figure2 runs the application and sequential tests for every restricted
// buddy configuration on each workload.
func Figure2(ctx context.Context, p *runner.Pool, sc Scale) ([]PerfCell, error) {
	return perfGrid(ctx, p, sc, RBuddyConfigs(), nil)
}

// extentConfigs returns the §4.3 grid for one workload: fits × range
// counts, with ranges matched to the workload.
func (sc Scale) extentConfigs(wlName string) ([]core.PolicySpec, error) {
	var out []core.PolicySpec
	for _, fit := range []extent.Fit{extent.FirstFit, extent.BestFit} {
		for n := 1; n <= 5; n++ {
			ranges, err := sc.ExtentRanges(wlName, n)
			if err != nil {
				return nil, err
			}
			out = append(out, core.Extent(fit, ranges))
		}
	}
	return out, nil
}

// Figure4 runs the allocation test over the extent grid (fragmentation);
// its cells also carry the Table 4 extents-per-file averages.
func Figure4(ctx context.Context, p *runner.Pool, sc Scale) ([]FragCell, error) {
	return fragGrid(ctx, p, sc, nil, sc.extentConfigs)
}

// Figure5 runs the throughput tests over the extent grid.
func Figure5(ctx context.Context, p *runner.Pool, sc Scale) ([]PerfCell, error) {
	return perfGrid(ctx, p, sc, nil, sc.extentConfigs)
}

// Table4Row is one row of Table 4: average extents per file for each
// extent-range count, under first fit (the configuration §4.3 selects).
type Table4Row struct {
	Ranges         int
	Workload       string
	ExtentsPerFile float64
}

// Table4 computes the average number of extents per file after the
// allocation test, for 1-5 extent ranges on each workload. Its runs are
// the first-fit half of the Figure 4 grid, so a shared pool simulates
// them only once across both.
func Table4(ctx context.Context, p *runner.Pool, sc Scale) ([]Table4Row, error) {
	type cell struct {
		ranges int
		wl     string
	}
	var specs []runner.Spec
	var cells []cell
	for n := 1; n <= 5; n++ {
		for _, name := range []string{"SC", "TP", "TS"} {
			wl, err := sc.Workload(name)
			if err != nil {
				return nil, err
			}
			ranges, err := sc.ExtentRanges(name, n)
			if err != nil {
				return nil, err
			}
			specs = append(specs, sc.Spec(core.Extent(extent.FirstFit, ranges), wl, core.Allocation))
			cells = append(cells, cell{n, name})
		}
	}
	outs, err := runAll(ctx, p, specs)
	if err != nil {
		return nil, fmt.Errorf("table4: %w", err)
	}
	rows := make([]Table4Row, len(outs))
	for i, out := range outs {
		rows[i] = Table4Row{
			Ranges:         cells[i].ranges,
			Workload:       cells[i].wl,
			ExtentsPerFile: out.Frag.ExtentsPerFile,
		}
	}
	return rows, nil
}

// gridSpecs declares one Spec of the given kind per (workload, policy)
// pair, policies coming from the fixed list or the per-workload generator.
func gridSpecs(sc Scale, kind core.TestKind, specs []core.PolicySpec,
	gen func(string) ([]core.PolicySpec, error)) ([]runner.Spec, error) {
	var out []runner.Spec
	for _, name := range []string{"SC", "TP", "TS"} {
		wl, err := sc.Workload(name)
		if err != nil {
			return nil, err
		}
		ps := specs
		if gen != nil {
			if ps, err = gen(name); err != nil {
				return nil, err
			}
		}
		for _, p := range ps {
			out = append(out, sc.Spec(p, wl, kind))
		}
	}
	return out, nil
}

// fragGrid runs allocation tests for a set of policies (fixed list or
// per-workload generator) across the three workloads.
func fragGrid(ctx context.Context, pool *runner.Pool, sc Scale, specs []core.PolicySpec,
	gen func(string) ([]core.PolicySpec, error)) ([]FragCell, error) {
	rs, err := gridSpecs(sc, core.Allocation, specs, gen)
	if err != nil {
		return nil, err
	}
	outs, err := runAll(ctx, pool, rs)
	if err != nil {
		return nil, err
	}
	cells := make([]FragCell, len(outs))
	for i, out := range outs {
		cells[i] = FragCell{
			Policy:         rs[i].Policy.Name(),
			Workload:       rs[i].Workload.Name,
			InternalPct:    out.Frag.InternalPct,
			ExternalPct:    out.Frag.ExternalPct,
			ExtentsPerFile: out.Frag.ExtentsPerFile,
		}
	}
	return cells, nil
}

// perfGrid runs application + sequential tests for a set of policies
// across the three workloads.
func perfGrid(ctx context.Context, pool *runner.Pool, sc Scale, specs []core.PolicySpec,
	gen func(string) ([]core.PolicySpec, error)) ([]PerfCell, error) {
	apps, err := gridSpecs(sc, core.Application, specs, gen)
	if err != nil {
		return nil, err
	}
	seqs, err := gridSpecs(sc, core.Sequential, specs, gen)
	if err != nil {
		return nil, err
	}
	outs, err := runAll(ctx, pool, append(append([]runner.Spec{}, apps...), seqs...))
	if err != nil {
		return nil, err
	}
	cells := make([]PerfCell, len(apps))
	for i := range apps {
		app, seq := outs[i].Perf, outs[len(apps)+i].Perf
		cells[i] = PerfCell{
			Policy:    apps[i].Policy.Name(),
			Workload:  apps[i].Workload.Name,
			AppPct:    app.Percent,
			SeqPct:    seq.Percent,
			AppStable: app.Stable,
			SeqStable: seq.Stable,
		}
	}
	return cells, nil
}

// Figure6Policies returns the §5 comparison set for a workload: the buddy
// system, the selected restricted buddy configuration (5 sizes, grow 1,
// clustered), the selected extent configuration (first fit, 3 ranges),
// and the fixed-block baseline (4K for TS, 16K for TP and SC).
func (sc Scale) Figure6Policies(wlName string) ([]core.PolicySpec, error) {
	ranges, err := sc.ExtentRanges(wlName, 3)
	if err != nil {
		return nil, err
	}
	fixedBytes := int64(16 * units.KB)
	if wlName == "TS" || wlName == "ts" {
		fixedBytes = 4 * units.KB
	}
	return []core.PolicySpec{
		core.Buddy(),
		core.RBuddy(5, 1, true),
		core.Extent(extent.FirstFit, ranges),
		core.Fixed(fixedBytes),
	}, nil
}

// Figure6 runs the §5 comparison: sequential (6a) and application (6b)
// performance of the four allocation methods on each workload.
func Figure6(ctx context.Context, p *runner.Pool, sc Scale) ([]PerfCell, error) {
	return perfGrid(ctx, p, sc, nil, sc.Figure6Policies)
}
