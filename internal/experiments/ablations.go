package experiments

import (
	"context"
	"fmt"

	"rofs/internal/alloc/extent"
	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/runner"
	"rofs/internal/units"
	"rofs/internal/workload"
)

// The ablations implement the further-work questions the paper's §6
// raises: the impact of RAID on small writes, sensitivity to the stripe
// unit, varying file-size mixes, and an isolated clustering/grow-factor
// study. Like the tables and figures, each declares its runs as Specs
// and assembles cells from the pooled outcomes.

// LayoutCell reports one disk-system layout's throughput (ablation A1).
type LayoutCell struct {
	Layout   disk.Layout
	Degraded bool
	Workload string
	AppPct   float64
	SeqPct   float64
}

// Name renders the layout, marking degraded mode.
func (c LayoutCell) Name() string {
	if c.Degraded {
		return c.Layout.String() + "-degraded"
	}
	return c.Layout.String()
}

// AblationRAID compares plain striping against RAID-5, mirroring, and
// parity striping under the restricted buddy policy. The paper predicts
// "the impact of a RAID in the underlying disk system will reduce the
// small write performance" — visible in the TP application numbers, which
// are dominated by 8K random writes paying read-modify-write.
//
// Redundant layouts shrink the data capacity, so the workload is divided
// by the capacity ratio (and the fill phase restores the 90% measurement
// band); at least four drives are used so RAID-5 is non-degenerate.
func AblationRAID(ctx context.Context, pool *runner.Pool, sc Scale, wlName string) ([]LayoutCell, error) {
	type variant struct {
		layout   disk.Layout
		degraded bool
	}
	variants := []variant{
		{disk.Striped, false},
		{disk.RAID5, false},
		{disk.RAID5, true},
		{disk.Mirrored, false},
		{disk.ParityStriped, false},
	}
	var specs []runner.Spec
	for _, v := range variants {
		dcfg := sc.Disk
		dcfg.Layout = v.layout
		if dcfg.NDisks < 4 {
			dcfg.NDisks = 4
		}
		wl, err := sc.Workload(wlName)
		if err != nil {
			return nil, err
		}
		// Capacity relative to the plain-striped baseline at the bench's
		// original drive count, as an integer divisor for the workload.
		baseCap := sc.Disk.Geometry.Capacity() * int64(sc.Disk.NDisks)
		layoutCap := dcfg.Geometry.Capacity() * int64(dcfg.NDisks)
		switch v.layout {
		case disk.Mirrored:
			layoutCap /= 2
		case disk.RAID5, disk.ParityStriped:
			layoutCap = layoutCap * int64(dcfg.NDisks-1) / int64(dcfg.NDisks)
		}
		if div := (baseCap + layoutCap - 1) / layoutCap; div > 1 {
			if wl.Name == "TS" {
				wl = wl.Scale(div, 1)
			} else {
				wl = wl.Scale(1, div)
			}
		}
		for _, kind := range []core.TestKind{core.Application, core.Sequential} {
			sp := sc.Spec(core.RBuddy(5, 1, true), wl, kind)
			sp.Disk = dcfg
			sp.Faults.PreFail = v.degraded
			specs = append(specs, sp)
		}
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("raid ablation: %w", err)
	}
	cells := make([]LayoutCell, len(variants))
	for i, v := range variants {
		cells[i] = LayoutCell{
			Layout: v.layout, Degraded: v.degraded, Workload: specs[2*i].Workload.Name,
			AppPct: outs[2*i].Perf.Percent, SeqPct: outs[2*i+1].Perf.Percent,
		}
	}
	return cells, nil
}

// StripeCell reports throughput at one stripe-unit size (ablation A2).
type StripeCell struct {
	StripeBytes int64
	Workload    string
	AppPct      float64
	SeqPct      float64
}

// AblationStripeUnit sweeps the stripe unit ("the different policies may
// show different sensitivities to the stripe size parameter", §6).
func AblationStripeUnit(ctx context.Context, pool *runner.Pool, sc Scale, wlName string) ([]StripeCell, error) {
	wl, err := sc.Workload(wlName)
	if err != nil {
		return nil, err
	}
	stripes := []int64{8 * units.KB, 24 * units.KB, 96 * units.KB, 384 * units.KB}
	var specs []runner.Spec
	for _, su := range stripes {
		dcfg := sc.Disk
		dcfg.StripeUnitBytes = su
		for _, kind := range []core.TestKind{core.Application, core.Sequential} {
			sp := sc.Spec(core.RBuddy(5, 1, true), wl, kind)
			sp.Disk = dcfg
			specs = append(specs, sp)
		}
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("stripe ablation: %w", err)
	}
	cells := make([]StripeCell, len(stripes))
	for i, su := range stripes {
		cells[i] = StripeCell{
			StripeBytes: su, Workload: wl.Name,
			AppPct: outs[2*i].Perf.Percent, SeqPct: outs[2*i+1].Perf.Percent,
		}
	}
	return cells, nil
}

// MixCell reports fragmentation for one large:small space ratio (A3).
type MixCell struct {
	LargeShare  float64 // fraction of initial space in large files
	Policy      string
	InternalPct float64
	ExternalPct float64
}

// AblationFileMix varies the proportion of large and small files in a
// TS-like workload ("varying the file distributions so that the
// proportion of large and small files is not constant may affect
// fragmentation results", §6) and measures restricted buddy and extent
// fragmentation.
func AblationFileMix(ctx context.Context, pool *runner.Pool, sc Scale) ([]MixCell, error) {
	base, err := sc.Workload("TS")
	if err != nil {
		return nil, err
	}
	small, large := base.Types[0], base.Types[1]
	totalSmall := int64(small.Files) * small.InitialBytes
	totalLarge := int64(large.Files) * large.InitialBytes
	total := totalSmall + totalLarge
	ranges, err := sc.ExtentRanges("TS", 3)
	if err != nil {
		return nil, err
	}
	var specs []runner.Spec
	var cells []MixCell
	for _, share := range []float64{0.1, 0.3, 0.5, 0.7} {
		wl := workload.Workload{Name: fmt.Sprintf("TS-mix%.0f", share*100), Types: []workload.FileType{small, large}}
		wl.Types[0].Files = int(float64(total) * (1 - share) / float64(small.InitialBytes))
		wl.Types[1].Files = int(float64(total) * share / float64(large.InitialBytes))
		if wl.Types[0].Files < 1 {
			wl.Types[0].Files = 1
		}
		if wl.Types[1].Files < 1 {
			wl.Types[1].Files = 1
		}
		for _, p := range []core.PolicySpec{core.RBuddy(5, 1, true), core.Extent(extent.FirstFit, ranges)} {
			specs = append(specs, sc.Spec(p, wl, core.Allocation))
			cells = append(cells, MixCell{LargeShare: share, Policy: p.Name()})
		}
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("mix ablation: %w", err)
	}
	for i, out := range outs {
		cells[i].InternalPct = out.Frag.InternalPct
		cells[i].ExternalPct = out.Frag.ExternalPct
	}
	return cells, nil
}

// SchedulerCell reports throughput and operation latency under one queue
// discipline (A5).
type SchedulerCell struct {
	Scheduler     disk.Scheduler
	Workload      string
	AppPct        float64
	SeqPct        float64
	MeanLatencyMS float64
	P95LatencyMS  float64
}

// AblationScheduler compares SSTF, SCAN, and FCFS drive scheduling — the
// lever behind the application-throughput magnitudes with 20+ concurrent
// users (deep per-drive queues make seek-sorting decisive), and a
// throughput-vs-tail-latency trade the latency columns expose.
func AblationScheduler(ctx context.Context, pool *runner.Pool, sc Scale, wlName string) ([]SchedulerCell, error) {
	wl, err := sc.Workload(wlName)
	if err != nil {
		return nil, err
	}
	scheds := []disk.Scheduler{disk.SSTF, disk.SCAN, disk.FCFS}
	var specs []runner.Spec
	for _, sched := range scheds {
		dcfg := sc.Disk
		dcfg.Scheduler = sched
		for _, kind := range []core.TestKind{core.Application, core.Sequential} {
			sp := sc.Spec(core.RBuddy(5, 1, true), wl, kind)
			sp.Disk = dcfg
			specs = append(specs, sp)
		}
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("scheduler ablation: %w", err)
	}
	cells := make([]SchedulerCell, len(scheds))
	for i, sched := range scheds {
		app := outs[2*i].Perf
		cells[i] = SchedulerCell{
			Scheduler:     sched,
			Workload:      wl.Name,
			AppPct:        app.Percent,
			SeqPct:        outs[2*i+1].Perf.Percent,
			MeanLatencyMS: app.MeanLatencyMS,
			P95LatencyMS:  app.P95LatencyMS,
		}
	}
	return cells, nil
}

// ReallocCell reports fragmentation before and after Koch's reallocator
// (A6) on a filled buddy disk.
type ReallocCell struct {
	Workload              string
	InternalBefore, After float64
	ExternalBefore        float64
	ExternalAfter         float64
	Compacted, Failed     int
}

// AblationRealloc runs the allocation test under the buddy policy and then
// the nightly reallocator the paper excluded (§4.1): Koch reported most
// files in three extents with under 4% internal fragmentation once the
// rearranger ran.
func AblationRealloc(ctx context.Context, pool *runner.Pool, sc Scale) ([]ReallocCell, error) {
	names := []string{"SC", "TP", "TS"}
	var specs []runner.Spec
	for _, name := range names {
		wl, err := sc.Workload(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sc.Spec(core.Buddy(), wl, core.AllocationRealloc))
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("realloc ablation: %w", err)
	}
	cells := make([]ReallocCell, len(names))
	for i, name := range names {
		res := outs[i].Realloc
		cells[i] = ReallocCell{
			Workload:       name,
			InternalBefore: res.Before.InternalPct,
			After:          res.After.InternalPct,
			ExternalBefore: res.Before.ExternalPct,
			ExternalAfter:  res.After.ExternalPct,
			Compacted:      res.Compacted,
			Failed:         res.Failed,
		}
	}
	return cells, nil
}

// MetaCell reports a policy's metadata footprint after the allocation
// test (the [STON81] comparison the paper's introduction cites).
type MetaCell struct {
	Policy        string
	Workload      string
	Files         int
	Descriptors   int64
	MetaBytes     int64
	MetaPctOfData float64
}

// MetadataTable compares the §5 policy set's metadata burden on each
// workload: fixed-block systems need a pointer per block, the multiblock
// policies a handful of descriptors per file.
func MetadataTable(ctx context.Context, pool *runner.Pool, sc Scale) ([]MetaCell, error) {
	var specs []runner.Spec
	for _, name := range []string{"SC", "TP", "TS"} {
		wl, err := sc.Workload(name)
		if err != nil {
			return nil, err
		}
		ps, err := sc.Figure6Policies(name)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			specs = append(specs, sc.Spec(p, wl, core.Allocation))
		}
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("metadata table: %w", err)
	}
	cells := make([]MetaCell, len(outs))
	for i, out := range outs {
		cells[i] = MetaCell{
			Policy:        specs[i].Policy.Name(),
			Workload:      specs[i].Workload.Name,
			Files:         out.Frag.Meta.Files,
			Descriptors:   out.Frag.Meta.Descriptors,
			MetaBytes:     out.Frag.Meta.MetaBytes,
			MetaPctOfData: out.Frag.Meta.MetaPctOfData,
		}
	}
	return cells, nil
}

// SkewCell reports throughput at one hot-file skew (A7).
type SkewCell struct {
	HotSkew       float64
	AppPct        float64
	MeanLatencyMS float64
}

// AblationSkew runs TP with the relations' per-request file choice skewed
// Zipf(s) — "applying the allocation policies to genuine workloads" (§6):
// real databases hammer a few hot relations, which buys seek locality the
// paper's uniform model cannot see.
func AblationSkew(ctx context.Context, pool *runner.Pool, sc Scale) ([]SkewCell, error) {
	skews := []float64{0, 1.5, 3}
	var specs []runner.Spec
	for _, skew := range skews {
		wl, err := sc.Workload("TP")
		if err != nil {
			return nil, err
		}
		wl.Types[0].HotSkew = skew
		specs = append(specs, sc.Spec(core.RBuddy(5, 1, true), wl, core.Application))
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("skew ablation: %w", err)
	}
	cells := make([]SkewCell, len(skews))
	for i, skew := range skews {
		cells[i] = SkewCell{HotSkew: skew, AppPct: outs[i].Perf.Percent, MeanLatencyMS: outs[i].Perf.MeanLatencyMS}
	}
	return cells, nil
}

// FreeListCell reports one fixed-block free-list discipline (A8).
type FreeListCell struct {
	Policy string
	SeqPct float64
	AppPct float64
}

// AblationFreeList contrasts the V7-style LIFO free list against an
// address-ordered one on the aged TS workload — isolating how much of the
// fixed-block baseline's penalty is free-list aging versus block-at-a-time
// transfer.
func AblationFreeList(ctx context.Context, pool *runner.Pool, sc Scale) ([]FreeListCell, error) {
	wl, err := sc.Workload("TS")
	if err != nil {
		return nil, err
	}
	policies := []core.PolicySpec{
		core.Fixed(4 * units.KB),
		core.FixedOrdered(4 * units.KB),
	}
	var specs []runner.Spec
	for _, p := range policies {
		specs = append(specs,
			sc.Spec(p, wl, core.Sequential),
			sc.Spec(p, wl, core.Application))
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("free-list ablation: %w", err)
	}
	cells := make([]FreeListCell, len(policies))
	for i, p := range policies {
		cells[i] = FreeListCell{Policy: p.Name(), SeqPct: outs[2*i].Perf.Percent, AppPct: outs[2*i+1].Perf.Percent}
	}
	return cells, nil
}

// ClusterCell isolates the clustering and grow-factor effects on the TS
// workload (§4.2's discussion): 5-size restricted buddy, the four
// combinations, sequential throughput and internal fragmentation.
type ClusterCell struct {
	Clustered   bool
	GrowFactor  float64
	SeqPct      float64
	InternalPct float64
}

// AblationClustering runs the four {clustered}×{g} combinations on TS.
func AblationClustering(ctx context.Context, pool *runner.Pool, sc Scale) ([]ClusterCell, error) {
	wl, err := sc.Workload("TS")
	if err != nil {
		return nil, err
	}
	var specs []runner.Spec
	var cells []ClusterCell
	for _, clustered := range []bool{true, false} {
		for _, g := range []float64{1, 2} {
			p := core.RBuddy(5, g, clustered)
			specs = append(specs,
				sc.Spec(p, wl, core.Sequential),
				sc.Spec(p, wl, core.Allocation))
			cells = append(cells, ClusterCell{Clustered: clustered, GrowFactor: g})
		}
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("clustering ablation: %w", err)
	}
	for i := range cells {
		cells[i].SeqPct = outs[2*i].Perf.Percent
		cells[i].InternalPct = outs[2*i+1].Frag.InternalPct
	}
	return cells, nil
}
