package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"rofs/internal/obs"
	"rofs/internal/report"
	"rofs/internal/service"
)

// SchemaV1 identifies the rofs-load JSON report format.
const SchemaV1 = "rofs-load/v1"

// Client-side outcome statuses beyond the server's run states.
const (
	statusRejected = "rejected" // 503 shed at admission
	statusError    = "error"    // transport or protocol failure
)

// outcome is one request's client-side record.
type outcome struct {
	Trace     string  `json:"trace"`
	Class     string  `json:"class"`
	Ramp      bool    `json:"ramp,omitempty"`
	Status    string  `json:"status"`
	DurMS     float64 `json:"dur_ms"`
	LateMS    float64 `json:"late_ms,omitempty"` // open loop: sent this long after its due time
	RunID     string  `json:"run,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	DiskHit   bool    `json:"disk_hit,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// latSummary is the percentile digest over steady-state completed
// requests (ramp excluded). A tail percentile is present only when at
// least ten samples lie beyond it.
type latSummary struct {
	Count  int      `json:"count"`
	P50MS  float64  `json:"p50_ms"`
	P95MS  *float64 `json:"p95_ms,omitempty"`
	P99MS  *float64 `json:"p99_ms,omitempty"`
	P999MS *float64 `json:"p999_ms,omitempty"`
	MeanMS float64  `json:"mean_ms"`
	MaxMS  float64  `json:"max_ms"`
}

// classStats aggregates one request class (or the total row).
type classStats struct {
	Count     int64 `json:"count"`
	Ramp      int64 `json:"ramp,omitempty"`
	Done      int64 `json:"done"`
	Cached    int64 `json:"cached"`
	Coalesced int64 `json:"coalesced"`
	DiskHits  int64 `json:"disk_hits"`
	Rejected  int64 `json:"rejected"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Errors    int64 `json:"errors"`

	Latency       *latSummary `json:"latency,omitempty"`
	ThroughputRPS float64     `json:"throughput_rps"`

	steadyDoneMS []float64
}

// scrapePoint is one /metrics sample on the scrape timeline: every
// non-bucket rofs_ scalar, keyed by exposition name.
type scrapePoint struct {
	OffsetMS float64            `json:"offset_ms"`
	Scalars  map[string]float64 `json:"scalars"`
}

// agreement cross-checks client-observed accounting against the
// server's Prometheus counter deltas over the load window.
type agreement struct {
	ClientCompleted      int64   `json:"client_completed"`
	ClientRejected       int64   `json:"client_rejected"`
	ClientErrors         int64   `json:"client_errors"`
	ServerCompletedDelta float64 `json:"server_completed_delta"`
	ServerRejectedDelta  float64 `json:"server_rejected_delta"`
	OK                   bool    `json:"ok"`
}

// loadReport is the rofs-load/v1 document.
type loadReport struct {
	Schema         string                 `json:"schema"`
	Mode           string                 `json:"mode"`
	Server         string                 `json:"server"`
	Workers        int                    `json:"workers,omitempty"`
	RPS            float64                `json:"rps,omitempty"`
	DurationSec    float64                `json:"duration_seconds"`
	RampSec        float64                `json:"ramp_seconds"`
	ElapsedSec     float64                `json:"elapsed_seconds"`
	Seed           int64                  `json:"seed"`
	DroppedClient  int64                  `json:"dropped_client_side,omitempty"`
	MaxLateMS      float64                `json:"max_late_ms,omitempty"` // open loop: the generator's worst lag
	Classes        map[string]*classStats `json:"classes"`
	Total          *classStats            `json:"total"`
	Scrapes        []scrapePoint          `json:"scrapes,omitempty"`
	Agreement      agreement              `json:"agreement"`
	Requests       []outcome              `json:"requests"`
	ServerFinal    map[string]float64     `json:"server_final"`
	ServerBaseline map[string]float64     `json:"server_baseline"`
}

type reportInputs struct {
	mode, server   string
	workers        int
	rps            float64
	duration, ramp time.Duration
	elapsed        time.Duration
	seed           int64
	dropped        int64
	outcomes       []outcome
	scrapes        []scrapePoint
	first, last    map[string]float64
}

// buildReport folds the raw outcomes and scrapes into the v1 document.
func buildReport(in reportInputs) *loadReport {
	classes := map[string]*classStats{
		classFresh:  {},
		classRepeat: {},
		classHeavy:  {},
	}
	total := &classStats{}
	var maxLate float64
	for _, oc := range in.outcomes {
		maxLate = math.Max(maxLate, oc.LateMS)
		cs, ok := classes[oc.Class]
		if !ok {
			cs = &classStats{}
			classes[oc.Class] = cs
		}
		for _, c := range []*classStats{cs, total} {
			c.observe(oc)
		}
	}
	steadyWindow := (in.duration - in.ramp).Seconds()
	for _, cs := range classes {
		cs.finish(steadyWindow)
	}
	total.finish(steadyWindow)

	ag := agreement{
		ClientCompleted: total.Done + total.Failed + total.Canceled,
		ClientRejected:  total.Rejected,
		ClientErrors:    total.Errors,
	}
	ag.ServerCompletedDelta = delta(in.first, in.last,
		"rofs_service_runs_done", "rofs_service_runs_failed", "rofs_service_runs_canceled")
	ag.ServerRejectedDelta = delta(in.first, in.last, "rofs_service_runs_rejected")
	// Transport errors leave the client blind to the run's server-side
	// fate, so agreement is only asserted on clean runs.
	ag.OK = ag.ClientErrors == 0 &&
		float64(ag.ClientCompleted) == ag.ServerCompletedDelta &&
		float64(ag.ClientRejected) == ag.ServerRejectedDelta

	return &loadReport{
		Schema:         SchemaV1,
		Mode:           in.mode,
		Server:         in.server,
		Workers:        in.workers,
		RPS:            in.rps,
		DurationSec:    in.duration.Seconds(),
		RampSec:        in.ramp.Seconds(),
		ElapsedSec:     in.elapsed.Seconds(),
		Seed:           in.seed,
		DroppedClient:  in.dropped,
		MaxLateMS:      maxLate,
		Classes:        classes,
		Total:          total,
		Scrapes:        in.scrapes,
		Agreement:      ag,
		Requests:       in.outcomes,
		ServerFinal:    in.last,
		ServerBaseline: in.first,
	}
}

func (c *classStats) observe(oc outcome) {
	c.Count++
	if oc.Ramp {
		c.Ramp++
	}
	switch oc.Status {
	case service.StateDone:
		c.Done++
		if oc.Cached {
			c.Cached++
		}
		if oc.Coalesced {
			c.Coalesced++
		}
		if oc.DiskHit {
			c.DiskHits++
		}
		if !oc.Ramp {
			c.steadyDoneMS = append(c.steadyDoneMS, oc.DurMS)
		}
	case service.StateFailed:
		c.Failed++
	case service.StateCanceled:
		c.Canceled++
	case statusRejected:
		c.Rejected++
	default:
		c.Errors++
	}
}

func (c *classStats) finish(steadyWindowSec float64) {
	if len(c.steadyDoneMS) > 0 {
		sort.Float64s(c.steadyDoneMS)
		sum := 0.0
		for _, v := range c.steadyDoneMS {
			sum += v
		}
		c.Latency = &latSummary{
			Count:  len(c.steadyDoneMS),
			P50MS:  percentile(c.steadyDoneMS, 0.50),
			P95MS:  tailPercentile(c.steadyDoneMS, 0.95),
			P99MS:  tailPercentile(c.steadyDoneMS, 0.99),
			P999MS: tailPercentile(c.steadyDoneMS, 0.999),
			MeanMS: sum / float64(len(c.steadyDoneMS)),
			MaxMS:  c.steadyDoneMS[len(c.steadyDoneMS)-1],
		}
		if steadyWindowSec > 0 {
			c.ThroughputRPS = float64(len(c.steadyDoneMS)) / steadyWindowSec
		}
	}
	c.steadyDoneMS = nil
}

// percentile reads the q-quantile from a sorted slice (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile is percentile, or nil when fewer than ten samples lie
// beyond the q-quantile: a thinner tail is a few outliers, not a
// percentile.
func tailPercentile(sorted []float64, q float64) *float64 {
	if len(sorted)-int(math.Ceil(q*float64(len(sorted)))) < 10 {
		return nil
	}
	v := percentile(sorted, q)
	return &v
}

func delta(first, last map[string]float64, names ...string) float64 {
	var d float64
	for _, n := range names {
		d += last[n] - first[n]
	}
	return d
}

// scraper polls /metrics on an interval from its own goroutine,
// validating the exposition (parse + histogram invariants) every time.
type scraper struct {
	client   *service.Client
	interval time.Duration

	mu      sync.Mutex
	pts     []scrapePoint
	lastErr error
	cancel  context.CancelFunc
	done    chan struct{}
}

func newScraper(client *service.Client, interval time.Duration) *scraper {
	return &scraper{client: client, interval: interval}
}

func (s *scraper) start(ctx context.Context, origin time.Time) {
	if s.interval <= 0 {
		return
	}
	ctx, s.cancel = context.WithCancel(ctx)
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				scalars, err := scrapeOnce(ctx, s.client)
				s.mu.Lock()
				if err != nil {
					if s.lastErr == nil && ctx.Err() == nil {
						s.lastErr = err
					}
				} else {
					s.pts = append(s.pts, scrapePoint{
						OffsetMS: obs.Since(origin),
						Scalars:  scalars,
					})
				}
				s.mu.Unlock()
			case <-ctx.Done():
				return
			}
		}
	}()
}

func (s *scraper) stop() {
	if s.cancel == nil {
		return
	}
	s.cancel()
	<-s.done
}

func (s *scraper) points() []scrapePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pts
}

func (s *scraper) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// scrapeOnce fetches and validates one /metrics exposition, returning
// its non-bucket scalars.
func scrapeOnce(ctx context.Context, client *service.Client) (map[string]float64, error) {
	body, err := client.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	sc, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("invalid exposition: %w", err)
	}
	if err := sc.CheckHistograms(); err != nil {
		return nil, fmt.Errorf("histogram invariant: %w", err)
	}
	return sc.Scalars(), nil
}

// printSummary renders the human tables.
func printSummary(w io.Writer, rep *loadReport) {
	title := fmt.Sprintf("rofs-load %s  %s  %.0fs (ramp %.0fs, seed %d)",
		rep.Mode, rep.Server, rep.DurationSec, rep.RampSec, rep.Seed)
	t := report.NewTable(title,
		"Class", "Count", "Done", "Cached", "Disk", "Coal", "503", "Fail", "Err",
		"p50ms", "p95ms", "p99ms", "p999ms", "RPS")
	rows := []string{classFresh, classRepeat, classHeavy}
	for _, name := range rows {
		cs := rep.Classes[name]
		if cs == nil || cs.Count == 0 {
			continue
		}
		t.AddRow(statRow(name, cs)...)
	}
	t.AddRow(statRow("total", rep.Total)...)
	t.Render(w)

	ok := "agree"
	if !rep.Agreement.OK {
		ok = "DISAGREE"
	}
	fmt.Fprintf(w, "accounting: client %d completed + %d rejected vs server %+.0f/%+.0f -> %s\n",
		rep.Agreement.ClientCompleted, rep.Agreement.ClientRejected,
		rep.Agreement.ServerCompletedDelta, rep.Agreement.ServerRejectedDelta, ok)
	if rep.DroppedClient > 0 {
		fmt.Fprintf(w, "open loop dropped %d arrivals client-side (over -max-inflight)\n", rep.DroppedClient)
	}
	if rep.Mode == "open" {
		fmt.Fprintf(w, "open loop sent each request at most %.1f ms after its due time\n", rep.MaxLateMS)
	}
}

func statRow(name string, cs *classStats) []any {
	lat := latSummary{}
	if cs.Latency != nil {
		lat = *cs.Latency
	}
	ms := func(v *float64) string {
		if v == nil {
			return "-"
		}
		return fmt.Sprintf("%.1f", *v)
	}
	return []any{name, cs.Count, cs.Done, cs.Cached, cs.DiskHits, cs.Coalesced,
		cs.Rejected, cs.Failed, cs.Errors,
		ms(&lat.P50MS), ms(lat.P95MS), ms(lat.P99MS), ms(lat.P999MS),
		fmt.Sprintf("%.2f", cs.ThroughputRPS)}
}

func writeReport(path string, rep *loadReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
