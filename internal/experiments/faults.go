package experiments

import (
	"context"
	"fmt"

	"rofs/internal/core"
	"rofs/internal/disk"
	"rofs/internal/fault"
	"rofs/internal/runner"
	"rofs/internal/units"
)

// FaultCell compares one allocation policy's application throughput on a
// healthy RAID-5 array against the same run under a fault scenario, with
// the faulted run's recovery story alongside.
type FaultCell struct {
	Workload string
	Policy   string

	HealthyPct float64
	FaultedPct float64

	// From the faulted run's fault report.
	DriveFailures   int64
	TransientErrors int64
	Retries         int64
	PermanentErrors int64
	DegradedMS      float64
	RebuildDone     bool
	RebuildBytes    int64
}

// DefaultFaultScenario is the canonical scenario FaultTable (and the
// rofs-tables `faults` experiment) uses when the caller does not supply
// one: drive 1 fails a sixth of the way into the run, a hot spare
// rebuilds in 4M chunks, and a light transient-error rate exercises the
// retry path throughout.
func DefaultFaultScenario(sc Scale) fault.Scenario {
	return fault.Scenario{
		FailAtMS:          sc.MaxSimMS / 6,
		FailDrive:         1,
		TransientProb:     0.001,
		Rebuild:           true,
		RebuildChunkBytes: 4 * units.MB,
	}
}

// FaultTable runs the §5 policy comparison (Figure 6's four allocation
// methods) on a RAID-5 array twice per policy — once healthy, once under
// the given fault scenario — and reports the throughput cost of the
// failure/rebuild window next to the recovery counters. A zero scenario
// selects DefaultFaultScenario.
//
// The array follows the RAID ablation's conventions (redundantArray).
func FaultTable(ctx context.Context, pool *runner.Pool, sc Scale, wlName string, faults fault.Scenario) ([]FaultCell, error) {
	if !faults.Enabled() {
		faults = DefaultFaultScenario(sc)
	}
	if err := faults.Validate(); err != nil {
		return nil, fmt.Errorf("fault table: %w", err)
	}

	dcfg, wl, err := sc.redundantArray(disk.RAID5, wlName)
	if err != nil {
		return nil, err
	}

	policies, err := sc.Figure6Policies(wlName)
	if err != nil {
		return nil, err
	}
	var specs []runner.Spec
	for _, policy := range policies {
		healthy := sc.Spec(policy, wl, core.Application)
		healthy.Disk = dcfg
		faulted := healthy
		faulted.Faults = faults
		specs = append(specs, healthy, faulted)
	}
	outs, err := runAll(ctx, pool, specs)
	if err != nil {
		return nil, fmt.Errorf("fault table: %w", err)
	}
	cells := make([]FaultCell, len(policies))
	for i, policy := range policies {
		healthy, faulted := outs[2*i].Perf, outs[2*i+1].Perf
		cell := FaultCell{
			Workload:   wl.Name,
			Policy:     policy.Name(),
			HealthyPct: healthy.Percent,
			FaultedPct: faulted.Percent,
		}
		if fr := faulted.Faults; fr != nil {
			cell.DriveFailures = fr.DriveFailures
			cell.TransientErrors = fr.TransientErrors
			cell.Retries = fr.Retries
			cell.PermanentErrors = fr.PermanentErrors
			cell.DegradedMS = fr.DegradedMS
			cell.RebuildDone = fr.Rebuilds > 0
			cell.RebuildBytes = fr.RebuildBytes
		}
		cells[i] = cell
	}
	return cells, nil
}
