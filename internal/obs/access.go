package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// AccessRecord is one finished HTTP request's structured log line. The
// serving layer fills the request-shaped fields for every request; the
// run-lifecycle fields (RunID onward) are present only on requests that
// carried a simulation, with Outcome distinguishing how it ended.
type AccessRecord struct {
	TraceID string
	Client  string // RemoteAddr of the caller
	Method  string
	Path    string
	Route   string // the mux route name ("submit", "status", ...)
	Status  int    // HTTP status written
	DurMS   float64

	// Run lifecycle (zero values when the request carried no run).
	RunID     string
	Spec      string // the Spec's human label
	SpecKey   string // the Spec's canonical cache key
	AdmitMS   float64
	QueueMS   float64
	RunMS     float64
	EncodeMS  float64
	Cached    bool
	Coalesced bool
	DiskHit   bool  // served from the disk result store, not simulated
	Followers int64 // duplicate submissions this run's result also served
	// Disposition names how the result was produced: "simulated",
	// "memory-hit", "coalesced", or "disk-hit".
	Disposition string
	Outcome     string
}

// AccessLogger writes one slog JSON record per AccessRecord. A nil
// *AccessLogger drops everything, mirroring the nil-receiver convention
// of internal/metrics, so the serving path needs no guards when logging
// is off.
type AccessLogger struct {
	log *slog.Logger
}

// NewAccessLogger returns a logger emitting JSON records to w. A nil
// writer returns a nil (dropping) logger.
func NewAccessLogger(w io.Writer) *AccessLogger {
	if w == nil {
		return nil
	}
	return &AccessLogger{log: slog.New(slog.NewJSONHandler(w, nil))}
}

// Log emits rec as one "access" record. slog handlers serialize
// concurrent writes, so the serving layer can call this from any
// handler goroutine.
func (l *AccessLogger) Log(rec AccessRecord) {
	if l == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 16)
	attrs = append(attrs,
		slog.String("trace", rec.TraceID),
		slog.String("client", rec.Client),
		slog.String("method", rec.Method),
		slog.String("path", rec.Path),
		slog.String("route", rec.Route),
		slog.Int("status", rec.Status),
		slog.Float64("dur_ms", round3(rec.DurMS)),
	)
	if rec.RunID != "" {
		attrs = append(attrs,
			slog.String("run", rec.RunID),
			slog.String("spec", rec.Spec),
			slog.String("spec_key", rec.SpecKey),
			slog.Float64("admit_ms", round3(rec.AdmitMS)),
			slog.Float64("queue_ms", round3(rec.QueueMS)),
			slog.Float64("run_ms", round3(rec.RunMS)),
			slog.Float64("encode_ms", round3(rec.EncodeMS)),
			slog.Bool("cached", rec.Cached),
			slog.Bool("coalesced", rec.Coalesced),
			slog.Bool("disk_hit", rec.DiskHit),
			slog.Int64("followers", rec.Followers),
		)
		if rec.Disposition != "" {
			attrs = append(attrs, slog.String("disposition", rec.Disposition))
		}
	}
	if rec.Outcome != "" {
		attrs = append(attrs, slog.String("outcome", rec.Outcome))
	}
	l.log.LogAttrs(context.Background(), slog.LevelInfo, "access", attrs...)
}

// ReqInfo accumulates one in-flight request's AccessRecord. Handlers
// enrich it as the run lifecycle unfolds — possibly from executor
// goroutines the request is blocked on — so updates go through a mutex.
// A nil *ReqInfo drops updates, matching the AccessLogger convention.
type ReqInfo struct {
	mu  sync.Mutex
	rec AccessRecord
}

// NewReqInfo returns an accumulator seeded with the request-shaped
// fields the middleware knows up front.
func NewReqInfo(rec AccessRecord) *ReqInfo {
	return &ReqInfo{rec: rec}
}

// Update applies f to the record under the lock; nil receivers drop.
func (ri *ReqInfo) Update(f func(*AccessRecord)) {
	if ri == nil {
		return
	}
	ri.mu.Lock()
	f(&ri.rec)
	ri.mu.Unlock()
}

// Snapshot returns a copy of the accumulated record.
func (ri *ReqInfo) Snapshot() AccessRecord {
	if ri == nil {
		return AccessRecord{}
	}
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.rec
}

// round3 trims sub-microsecond noise so records stay greppable and
// stable-width.
func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

// Since returns the elapsed wall time as fractional milliseconds — the
// unit every duration field in an AccessRecord uses.
func Since(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
