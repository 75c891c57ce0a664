package service

import (
	"flag"
	"fmt"
	"strconv"

	"rofs/internal/cluster"
	"rofs/internal/fault"
	"rofs/internal/units"
)

// DefaultRequest is the run rofsim and rofs-client describe when given no
// flags: the restricted buddy allocation test on TS at bench scale, seed
// 42.
func DefaultRequest() RunRequest {
	clustered := true
	req := RunRequest{
		Policy: "rbuddy", Workload: "TS", Test: "alloc", Scale: "bench",
		Sizes: 5, Grow: 1, Clustered: &clustered,
		Fit: "first", Ranges: 3,
		BlockBytes: 4 * units.KB,
		Layout:     "striped",
	}
	req.SetSeed(42)
	return req
}

// ScenarioFlags binds the fault, fleet, arrival and compaction flags (see
// fault.AddFlags and cluster.AddFlags) — the part of a run description
// that rofs-sweep shares with rofsim and rofs-client.
type ScenarioFlags struct {
	faults  *fault.Flags
	cluster *cluster.Flags
}

// AddScenarioFlags registers the scenario flags on fs.
func AddScenarioFlags(fs *flag.FlagSet) *ScenarioFlags {
	return &ScenarioFlags{faults: fault.AddFlags(fs), cluster: cluster.AddFlags(fs)}
}

// Apply sets req's Faults, Cluster, Arrivals and Compaction from the
// parsed flags. A group whose flags are all zero stays nil, as in a JSON
// body that omits it. -arrival-trace is loaded here and sent inline,
// because the server does not read client-local files.
func (f *ScenarioFlags) Apply(req *RunRequest) error {
	arrivals, err := f.cluster.Arrivals()
	if err != nil {
		return err
	}
	req.Faults = nonZero(f.faults.Scenario())
	req.Cluster = nonZero(f.cluster.Config())
	req.Arrivals = arrivals
	req.Compaction = f.cluster.Compaction()
	return nil
}

// RunFlags binds the run-description flags rofsim and rofs-client share.
// Request reads them back as a RunRequest for RunRequest.Spec to
// validate, so a command line and the equivalent POST /v1/runs body go
// through the same parser.
type RunFlags struct {
	req           RunRequest // the fields a flag sets directly
	clustered     bool
	block, stripe string
	scenario      *ScenarioFlags
}

// AddRunFlags registers the run-description flags on fs, each defaulting
// to def's value.
func AddRunFlags(fs *flag.FlagSet, def RunRequest) *RunFlags {
	f := &RunFlags{req: def}
	r := &f.req
	fs.StringVar(&r.Policy, "policy", def.Policy, "buddy | rbuddy | extent | fixed")
	fs.StringVar(&r.Workload, "workload", def.Workload, "TS | TP | SC")
	fs.StringVar(&r.Test, "test", def.Test, "alloc | app | seq | aging")
	fs.StringVar(&r.Scale, "scale", def.Scale, "full | bench")
	fs.Int64Var(&r.Seed, "seed", def.Seed, "simulation seed")
	fs.IntVar(&r.Sizes, "sizes", def.Sizes, "rbuddy: number of block sizes (2-5)")
	fs.Float64Var(&r.Grow, "grow", def.Grow, "rbuddy: grow-policy multiplier (fractions allowed, e.g. 1.5)")
	fs.BoolVar(&f.clustered, "clustered", def.Clustered == nil || *def.Clustered, "rbuddy: use 32M bookkeeping regions")
	fs.StringVar(&r.Fit, "fit", def.Fit, "extent: first | best")
	fs.IntVar(&r.Ranges, "ranges", def.Ranges, "extent: number of extent-size ranges (1-5)")
	fs.StringVar(&f.block, "block", sizeText(def.BlockBytes), "fixed: block size (4K or 16K)")
	fs.IntVar(&r.Disks, "disks", def.Disks, "override number of drives")
	fs.StringVar(&r.Layout, "layout", def.Layout, "striped | mirrored | raid5 | parity")
	fs.StringVar(&f.stripe, "stripe", sizeText(def.StripeBytes), "override stripe unit, e.g. 24K")
	fs.Float64Var(&r.MaxSimMS, "max-sim", def.MaxSimMS, "override simulated-time cap (ms)")
	f.scenario = AddScenarioFlags(fs)
	return f
}

// Request returns the run the parsed flags describe. It fails only on
// flag text that no request can spell — a malformed size or an
// unreadable -arrival-trace file; every other check is Spec's.
func (f *RunFlags) Request() (RunRequest, error) {
	req := f.req
	clustered := f.clustered
	req.Clustered = &clustered
	req.SetSeed(req.Seed) // a bound -seed is explicit: -seed 0 runs seed 0
	var err error
	if req.BlockBytes, err = sizeFlag("block", f.block); err != nil {
		return req, err
	}
	if req.StripeBytes, err = sizeFlag("stripe", f.stripe); err != nil {
		return req, err
	}
	return req, f.scenario.Apply(&req)
}

// sizeFlag parses a size flag's text; empty means unset (zero).
func sizeFlag(name, text string) (int64, error) {
	if text == "" {
		return 0, nil
	}
	n, err := units.ParseSize(text)
	if err != nil {
		return 0, fmt.Errorf("-%s: %v", name, err)
	}
	return n, nil
}

// sizeText spells a default byte count the way units.ParseSize reads it;
// zero is the empty (unset) text.
func sizeText(n int64) string {
	switch {
	case n == 0:
		return ""
	case n%units.KB == 0:
		return strconv.FormatInt(n/units.KB, 10) + "K"
	}
	return strconv.FormatInt(n, 10)
}

// nonZero returns a pointer to v, or nil for the zero value.
func nonZero[T comparable](v T) *T {
	var zero T
	if v == zero {
		return nil
	}
	return &v
}
