package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rofs/internal/core"
	"rofs/internal/metrics"
)

// storedSchema identifies the result-store envelope format.
const storedSchema = "rofs-store/v1"

// storedResult is the disk envelope for one completed run: the outcome's
// tagged-union payload, the engine stats, the original wall time, and
// the run's canonical rofs-metrics/v1 bundle bytes. The bundle is kept
// as raw JSON exactly as the registry rendered it, so a disk hit serves
// byte-identical metrics without a live registry.
type storedResult struct {
	Schema  string              `json:"schema"`
	Kind    string              `json:"kind"`
	Frag    *core.FragResult    `json:"frag,omitempty"`
	Perf    *core.PerfResult    `json:"perf,omitempty"`
	Realloc *core.ReallocResult `json:"realloc,omitempty"`
	Aging   *core.AgingResult   `json:"aging,omitempty"`
	Stats   core.RunStats       `json:"stats"`
	WallNS  int64               `json:"wall_ns"`
	Metrics json.RawMessage     `json:"metrics,omitempty"`
}

// encodeStored renders a finished outcome as the store envelope. It
// also returns the metrics bundle it rendered for the envelope (nil when
// the run had metrics off): every response for the run serves those
// bytes, so a bundle is rendered once. A bundle that rendered comes back
// even when the envelope fails to encode.
func encodeStored(out core.Outcome, wall time.Duration) (envelope, bundle []byte, err error) {
	if out.Metrics != nil {
		var buf bytes.Buffer
		if err := out.Metrics.Write(&buf, metrics.JSON); err != nil {
			return nil, nil, fmt.Errorf("runner: encode metrics bundle: %w", err)
		}
		bundle = buf.Bytes()
	}
	env := storedResult{
		Schema:  storedSchema,
		Kind:    out.Kind.String(),
		Stats:   out.Stats,
		WallNS:  int64(wall),
		Metrics: bundle,
	}
	switch out.Kind {
	case core.Allocation:
		f := out.Frag
		env.Frag = &f
	case core.Application, core.Sequential:
		p := out.Perf
		env.Perf = &p
	case core.AllocationRealloc:
		r := out.Realloc
		env.Realloc = &r
	case core.Aging:
		a := out.Aging
		env.Aging = &a
	default:
		return nil, bundle, fmt.Errorf("runner: cannot store outcome of kind %v", out.Kind)
	}
	envelope, err = json.Marshal(env)
	return envelope, bundle, err
}

// decodeStored parses a store envelope back into the outcome for sp,
// returning the rebuilt outcome, the original run's wall time, and the
// raw metrics bundle (nil when the run had metrics off).
func decodeStored(sp Spec, payload []byte) (core.Outcome, time.Duration, []byte, error) {
	var env storedResult
	if err := json.Unmarshal(payload, &env); err != nil {
		return core.Outcome{}, 0, nil, fmt.Errorf("runner: decode stored result: %w", err)
	}
	if env.Schema != storedSchema {
		return core.Outcome{}, 0, nil, fmt.Errorf("runner: stored result schema %q, want %q", env.Schema, storedSchema)
	}
	if env.Kind != sp.Kind.String() {
		return core.Outcome{}, 0, nil, fmt.Errorf("runner: stored result kind %q, spec wants %q", env.Kind, sp.Kind)
	}
	out := core.Outcome{Kind: sp.Kind, Stats: env.Stats}
	switch sp.Kind {
	case core.Allocation:
		if env.Frag == nil {
			return out, 0, nil, fmt.Errorf("runner: stored %s result missing frag payload", env.Kind)
		}
		out.Frag = *env.Frag
	case core.Application, core.Sequential:
		if env.Perf == nil {
			return out, 0, nil, fmt.Errorf("runner: stored %s result missing perf payload", env.Kind)
		}
		out.Perf = *env.Perf
	case core.AllocationRealloc:
		if env.Realloc == nil {
			return out, 0, nil, fmt.Errorf("runner: stored %s result missing realloc payload", env.Kind)
		}
		out.Realloc = *env.Realloc
	case core.Aging:
		if env.Aging == nil {
			return out, 0, nil, fmt.Errorf("runner: stored %s result missing aging payload", env.Kind)
		}
		out.Aging = *env.Aging
	}
	return out, time.Duration(env.WallNS), []byte(env.Metrics), nil
}
