// Package obs is the serving path's operational observability substrate:
// per-request trace IDs (minted at the rofs-server boundary, propagated
// via the X-Rofs-Trace-Id header and the context), structured JSON
// access-log records over log/slog, and a Prometheus text-exposition
// parser (promparse.go) used by the rofs-load harness and the format
// tests.
//
// Its trace IDs name HTTP requests, not simulated events: a run's events
// are recorded by core's event trace (rofsim -trace) and summarized by
// its metrics bundle (internal/metrics).
//
// The package is deliberately independent of the simulator: nothing in
// internal/sim, core, or disk imports it, so the hot loop never pays for
// it — the golden Table 3 and the zero-alloc budgets hold by
// construction.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
)

// TraceHeader is the HTTP header carrying a request's trace ID, in both
// directions: clients may supply one (the server adopts it), and the
// server always echoes the effective ID on the response.
const TraceHeader = "X-Rofs-Trace-Id"

// TraceIDLen is the canonical trace ID length: 16 lowercase hex digits
// (64 random bits).
const TraceIDLen = 16

// ValidTraceID reports whether id is a well-formed trace ID: exactly
// TraceIDLen lowercase hex digits. The server replaces anything else
// with a freshly minted ID rather than letting arbitrary client strings
// into its logs.
func ValidTraceID(id string) bool {
	if len(id) != TraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// RandomTraceID mints a trace ID from crypto/rand — the server-side
// path, where unpredictability matters more than reproducibility.
func RandomTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still well-formed if it somehow does.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// TraceIDFromUint64 renders a 64-bit value as a trace ID — the seeded
// path rofs-load uses so a -seed fixes the whole ID sequence.
func TraceIDFromUint64(v uint64) string {
	return fmt.Sprintf("%016x", v)
}

// ctxKey is the package's private context-key namespace.
type ctxKey int

const traceKey ctxKey = iota

// WithTraceID returns a context carrying the trace ID. The service
// client reads it back with TraceIDFrom and stamps the header on
// outgoing requests.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey, id)
}

// TraceIDFrom returns the context's trace ID, or "" when none is set.
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey).(string)
	return id
}
