package workload

import (
	"fmt"
	"strings"
)

// Arrival modes. A workload without an Arrivals block runs the paper's
// closed-loop per-user sessions (§2.2); with one, the same operation mix
// is driven by an open-loop arrival process instead — the request stream a
// front-end fleet sees, where load does not back off when the server slows
// down.
const (
	// ArrivalsPoisson draws exponential inter-arrival gaps at RatePerSec.
	ArrivalsPoisson = "poisson"
	// ArrivalsTrace replays the timestamped operations in Trace.
	ArrivalsTrace = "trace"
)

// Arrivals is the open-loop extension of the workload JSON schema: instead
// of closed-loop user streams (issue, wait, think, repeat), operations
// arrive from an external process — Poisson at a fixed rate, or a replayed
// trace of timestamped operations. Each arrival executes one operation of
// the workload's mix and completes independently; concurrency is whatever
// the arrival process creates, not a fixed user population.
type Arrivals struct {
	// Mode selects the process: "poisson" (default when RatePerSec > 0)
	// or "trace".
	Mode string `json:"mode,omitempty"`
	// RatePerSec is the Poisson arrival rate in operations per second of
	// simulated time.
	RatePerSec float64 `json:"rate_per_s,omitempty"`
	// Clients is the size of the client-key population arrivals are drawn
	// from (default 256). Routing layers use the key for affinity; a
	// single-instance run ignores it.
	Clients int `json:"clients,omitempty"`
	// Trace is the timestamped operation list for trace mode, replayed in
	// order. Timestamps must be non-decreasing.
	Trace []TraceOp `json:"trace,omitempty"`
	// TraceFile references a trace file on local disk (see ImportTrace for
	// the grammar). Nothing reads it: the CLIs' -arrival-trace loads a
	// file into Trace (LoadTraceFile), Validate rejects a workload that
	// still carries a reference, and the service rejects requests that
	// carry one — servers do not read client-local paths; inline the
	// trace instead.
	TraceFile string `json:"trace_file,omitempty"`
}

// TraceOp is one replayed operation of a trace-mode arrival process.
type TraceOp struct {
	// AtMS is the arrival time in simulated milliseconds.
	AtMS float64 `json:"at_ms"`
	// Type names the file type the operation targets (empty: drawn from
	// the workload's user-weighted type mix).
	Type string `json:"type,omitempty"`
	// Op forces the operation ("read", "write", "extend", "dealloc";
	// empty: drawn from the type's operation ratios).
	Op string `json:"op,omitempty"`
	// Client is the arrival's client key (affinity routing).
	Client int `json:"client,omitempty"`
}

// EffectiveMode resolves the default mode from the populated fields.
func (a *Arrivals) EffectiveMode() string {
	if a.Mode != "" {
		return strings.ToLower(a.Mode)
	}
	if len(a.Trace) > 0 {
		return ArrivalsTrace
	}
	return ArrivalsPoisson
}

// EffectiveClients resolves the client-key population (default 256).
func (a *Arrivals) EffectiveClients() int {
	if a.Clients > 0 {
		return a.Clients
	}
	return 256
}

// Validate checks the arrival process against the workload's types.
func (a *Arrivals) Validate(w *Workload) error {
	if a.TraceFile != "" {
		return fmt.Errorf("workload %q: arrivals trace_file %q is unresolved — load it with -arrival-trace; only inline traces run", w.Name, a.TraceFile)
	}
	switch a.EffectiveMode() {
	case ArrivalsPoisson:
		if !(a.RatePerSec > 0) {
			return fmt.Errorf("workload %q: poisson arrivals need rate_per_s > 0, got %g", w.Name, a.RatePerSec)
		}
		if len(a.Trace) > 0 {
			return fmt.Errorf("workload %q: poisson arrivals cannot carry a trace", w.Name)
		}
	case ArrivalsTrace:
		if len(a.Trace) == 0 {
			return fmt.Errorf("workload %q: trace arrivals need a non-empty trace", w.Name)
		}
		last := 0.0
		for i := range a.Trace {
			op := &a.Trace[i]
			if op.AtMS < last {
				return fmt.Errorf("workload %q: trace op %d at %g ms before previous %g ms", w.Name, i, op.AtMS, last)
			}
			last = op.AtMS
			if op.Type != "" && w.TypeIndex(op.Type) < 0 {
				return fmt.Errorf("workload %q: trace op %d names unknown type %q", w.Name, i, op.Type)
			}
			switch op.Op {
			case "", "read", "write", "extend", "dealloc":
			default:
				return fmt.Errorf("workload %q: trace op %d has unknown op %q", w.Name, i, op.Op)
			}
			if op.Client < 0 {
				return fmt.Errorf("workload %q: trace op %d has negative client", w.Name, i)
			}
		}
	default:
		return fmt.Errorf("workload %q: unknown arrival mode %q (want poisson or trace)", w.Name, a.Mode)
	}
	if a.Clients < 0 {
		return fmt.Errorf("workload %q: arrivals clients %d must be >= 0", w.Name, a.Clients)
	}
	return nil
}

// Key renders the arrival process's canonical identity for runner.Spec
// cache keys.
func (a *Arrivals) Key() string {
	mode := a.EffectiveMode()
	if mode == ArrivalsTrace {
		// Traces can be large; fold length plus first/last timestamps — two
		// traces agreeing on all three and the workload are the same run
		// for caching purposes only if the caller keeps trace files stable.
		first, last := 0.0, 0.0
		if n := len(a.Trace); n > 0 {
			first, last = a.Trace[0].AtMS, a.Trace[n-1].AtMS
		}
		return fmt.Sprintf("mode=trace|n=%d|first=%g|last=%g|clients=%d",
			len(a.Trace), first, last, a.EffectiveClients())
	}
	return fmt.Sprintf("mode=poisson|rate=%g|clients=%d", a.RatePerSec, a.EffectiveClients())
}

// TypeIndex returns the index of the named file type, or -1.
func (w *Workload) TypeIndex(name string) int {
	for i := range w.Types {
		if w.Types[i].Name == name {
			return i
		}
	}
	return -1
}
