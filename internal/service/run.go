package service

import (
	"context"
	"errors"
	"time"

	"rofs/internal/core"
	"rofs/internal/runner"
)

// run is one submitted simulation's server-side record. Mutable fields
// are guarded by the owning Server's mu; done closes exactly once when
// the run reaches a terminal state, which is how SSE streams and ?wait=1
// submissions learn the result without polling.
type run struct {
	id   string
	spec runner.Spec

	state   string
	err     string
	result  *RunResult
	seq     int // admission order, for queue positions
	started time.Time

	// Lifecycle spans and dispositions, filled as the run progresses and
	// read by the access-log record of the request that submitted it.
	queueWait   time.Duration // admission queue → worker slot
	runWall     time.Duration // worker slot → terminal state
	encodeMS    float64       // result encoding
	cached      bool
	coalesced   bool
	diskHit     bool
	disposition string
	followers   int64

	// ctx is the run's context, a child of the server's; cancel aborts it:
	// queued runs fail admission, in-flight simulations stop at the next
	// Config.Cancel poll. finalize calls cancel too, so a finished run
	// leaves nothing registered under the server's context.
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// status renders the run's public document. Caller holds s.mu.
func (r *run) status(queuePos int) RunStatus {
	st := RunStatus{ID: r.id, Label: r.spec.Label(), State: r.state,
		TraceID: r.spec.TraceID, Error: r.err}
	if r.state == StateQueued {
		st.Position = queuePos
	}
	if r.state == StateDone {
		st.Result = r.result
	}
	return st
}

// disposition names how a pool Result was served, for the access log
// and the result's serving metadata.
func disposition(res runner.Result) string {
	switch {
	case res.DiskHit:
		return "disk-hit"
	case res.Coalesced:
		return "coalesced"
	case res.Cached:
		return "memory-hit"
	default:
		return "simulated"
	}
}

// newRunResult converts a pool Result into the wire payload. It is the
// single encoding path for HTTP responses, SSE events, and the
// byte-identical end-to-end test. The metrics bundle is the pool's
// MetricsJSON, rendered once when the run finished or read from the
// disk store, so live and disk paths encode identically and every
// response for one run shares its bytes.
func newRunResult(res runner.Result) (*RunResult, error) {
	out := &RunResult{
		Test:        res.Spec.Kind.String(),
		Stats:       res.Outcome.Stats,
		WallSeconds: res.Wall.Seconds(),
		Cached:      res.Cached,
		Coalesced:   res.Coalesced,
		DiskHit:     res.DiskHit,
		Disposition: disposition(res),
		Followers:   res.Followers,
		Metrics:     res.MetricsJSON,
	}
	if res.Outcome.Metrics != nil && len(res.MetricsJSON) == 0 {
		// The pool counted the failed render as a store error.
		return nil, errors.New("encode metrics bundle: the run's bundle did not render")
	}
	switch res.Spec.Kind {
	case core.Allocation, core.AllocationRealloc:
		frag := res.Outcome.Frag
		out.Frag = &frag
	case core.Aging:
		aging := res.Outcome.Aging
		out.Aging = &aging
	default:
		perf := res.Outcome.Perf
		out.Perf = &perf
	}
	return out, nil
}
