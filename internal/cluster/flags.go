package cluster

import (
	"flag"
	"fmt"

	"rofs/internal/workload"
)

// Flags binds the cluster knobs to a flag set — the one vocabulary shared
// by rofsim, rofs-client and rofs-sweep (through service.AddScenarioFlags),
// so a fleet configuration reproduces verbatim across front ends.
type Flags struct {
	instances  *int
	routing    *string
	snapshotMS *float64
	admission  *string
	tokenCap   *float64
	tokenRate  *float64
	queueCap   *int
	faultInst  *int
	par        *int
	syncMS     *float64

	rate      *float64
	clients   *int
	traceFile *string

	compact        *string
	compactSegment *int64
	compactFlush   *float64
	compactFanout  *int
}

// AddFlags registers the cluster and open-loop arrival flags on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		instances:  fs.Int("instances", 0, "cluster: fleet size (0: plain single run)"),
		routing:    fs.String("routing", "", "cluster: rr | least | affinity (default rr)"),
		snapshotMS: fs.Float64("snapshot-ms", 0, "cluster: least-loaded snapshot staleness (ms, 0: fresh)"),
		admission:  fs.String("admission", "", "cluster: token | queue (default admit-all)"),
		tokenCap:   fs.Float64("token-capacity", 0, "cluster: token-bucket burst capacity"),
		tokenRate:  fs.Float64("token-refill", 0, "cluster: token-bucket refill rate (tokens/s)"),
		queueCap:   fs.Int("queue-cap", 0, "cluster: bounded-queue in-flight capacity"),
		faultInst:  fs.Int("fault-instance", 0, "cluster: instance the fault scenario targets"),
		par:        fs.Int("par", 0, "cluster: worker goroutines advancing instance engines (0/1: serial; results are byte-identical at any value)"),
		syncMS:     fs.Float64("sync-ms", 0, "cluster: open-loop lookahead window override (ms, 0: snapshot/metrics grid or 100)"),
		rate:       fs.Float64("rate", 0, "open-loop Poisson arrival rate (ops/s, 0: closed-loop)"),
		clients:    fs.Int("arrival-clients", 0, "open-loop client-key population (0: default 256)"),
		traceFile:  fs.String("arrival-trace", "", "open-loop trace file to replay (see EXPERIMENTS.md for the grammar)"),

		compact:        fs.String("compact", "", "log-structured overlay merge policy: tiered | leveled (app test only; empty: off)"),
		compactSegment: fs.Int64("compact-segment", 0, "compaction: log segment bytes (0: default 512K)"),
		compactFlush:   fs.Float64("compact-flush-ms", 0, "compaction: foreground segment flush cadence (simulated ms, 0: default 250)"),
		compactFanout:  fs.Int("compact-fanout", 0, "compaction: merge width / level ratio (0: default 4)"),
	}
}

// Config assembles the parsed flags into a cluster Config. Call after the
// flag set has been parsed; validate with Config.Validate.
func (f *Flags) Config() Config {
	return Config{
		Instances:         *f.instances,
		Routing:           *f.routing,
		SnapshotMS:        *f.snapshotMS,
		Admission:         *f.admission,
		TokenCapacity:     *f.tokenCap,
		TokenRefillPerSec: *f.tokenRate,
		QueueCap:          *f.queueCap,
		FaultInstance:     *f.faultInst,
		Parallelism:       *f.par,
		SyncMS:            *f.syncMS,
	}
}

// Arrivals returns the open-loop arrival process the flags declare —
// Poisson at -rate, or a replayed -arrival-trace file (loaded here) — or
// nil when neither is set (closed-loop user sessions). A negative rate is
// returned as given, for workload validation to reject.
func (f *Flags) Arrivals() (*workload.Arrivals, error) {
	if *f.traceFile != "" {
		if *f.rate != 0 {
			return nil, fmt.Errorf("-rate and -arrival-trace are mutually exclusive")
		}
		a, err := workload.LoadTraceFile(*f.traceFile)
		if err != nil {
			return nil, err
		}
		a.Clients = *f.clients
		return a, nil
	}
	if *f.rate == 0 {
		return nil, nil
	}
	return &workload.Arrivals{RatePerSec: *f.rate, Clients: *f.clients}, nil
}

// Compaction returns the log-structured overlay the flags declare, or nil
// when -compact is unset.
func (f *Flags) Compaction() *workload.Compaction {
	if *f.compact == "" {
		return nil
	}
	return &workload.Compaction{
		Policy:       *f.compact,
		SegmentBytes: *f.compactSegment,
		FlushEveryMS: *f.compactFlush,
		Fanout:       *f.compactFanout,
	}
}
