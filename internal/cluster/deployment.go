package cluster

import (
	"fmt"
	"math"
	"strconv"

	"rofs/internal/core"
	"rofs/internal/fault"
	"rofs/internal/metrics"
	"rofs/internal/sim"
	"rofs/internal/stats"
)

// Run executes the configured run, plain or fleet. It is the cluster-aware
// counterpart of core.Run and the single entry point the runner dispatches
// through:
//
//   - cluster mode off: exactly core.Run.
//   - a fleet of one with no admission policy: delegated verbatim to
//     core.Run, so an N=1 cluster run reproduces the equivalent plain run
//     byte-identically — report and metrics bundle
//     (TestSingleInstanceMatchesPlainRun).
//   - a real fleet: N instances, each on its own engine, closed-loop (each
//     member serves its own user population) or open-loop (a central
//     arrival process routed through admission and routing policies), with
//     Config.Parallelism worker goroutines advancing the engines (see
//     parallel.go). The schedule is fixed by the configuration: every
//     Parallelism value yields byte-identical results.
func Run(cfg core.Config, cc Config, kind core.TestKind) (core.Outcome, error) {
	if err := cc.Validate(); err != nil {
		return core.Outcome{}, err
	}
	if !cc.Enabled() || (cc.Instances == 1 && cc.Admission == "") {
		return core.Run(cfg, kind)
	}
	if kind != core.Application {
		return core.Outcome{}, fmt.Errorf("cluster: fleets run the application test only, not %s (allocation measures space on one array; the sequential test's whole-file phases are single-server)", kind)
	}
	d, err := newDeployment(cfg, cc)
	if err != nil {
		return core.Outcome{}, err
	}
	return d.run()
}

// completion is one buffered open-loop op completion: an instance records
// it on its own goroutine while its engine runs; the merge applies it to
// the central latency later, in global (time, instance) order.
type completion struct {
	at  float64 // completion time (simulated ms)
	lat float64 // operation latency (ms)
}

// Deployment is one live fleet: N core.Instances on N per-instance
// engines, a control-plane engine for the arrival source, the router's
// load view, the admission policy's occupancy, and the fleet-level
// accounting. Instance state, and the instance's lane, is touched only
// by the one worker running the instance; front-end state (admission,
// routing, counters) only by the coordinator or the batched tier's
// generate task, and the central latency only by the merge.
type Deployment struct {
	cfg core.Config
	cc  Config

	insts []*core.Instance
	engs  []*sim.Engine // engs[i] drives insts[i] and nothing else
	ctl   *sim.Engine   // control plane: the arrival source (open-loop only)

	live   []int   // windowed tier: per-instance in-flight counts (router ground truth)
	routed []int64 // arrivals routed per instance

	router RoutingPolicy
	admit  AdmissionPolicy
	src    *core.ArrivalSource // nil for closed-loop fleets

	arrivals, admitted, rejected int64
	latency                      stats.Welford
	latencyH                     *stats.Histogram

	// stableAt[i] is the simulated time instance i's throughput
	// stabilized, NaN until then. Written by the instance's worker inside
	// a window, read by the coordinator at barriers.
	stableAt []float64

	par  int   // resolved worker count (>= 1)
	tier tier  // execution tier (see parallel.go)
	pool *pool // the run's workers (prime, independent and batched tiers)

	// Open-loop per-instance executor state (see parallel.go).
	lanes []lane

	// Batched tier (see batched.go): the window and arrival limits of one
	// batch, and the control-plane events fired past the fleet's end.
	batchK, batchCap int
	ctlAhead         uint64

	// Metrics handles (nil when metrics are off).
	reg              *metrics.Registry
	mArr, mAdm, mRej *metrics.Counter
}

// newDeployment builds the fleet: each member gets the same configuration
// with its own engine and RNG stream (Seed + index·stride), metrics and
// tracing detached (instance 0 keeps the trace writer), and the fault
// scenario only on the targeted member.
func newDeployment(cfg core.Config, cc Config) (*Deployment, error) {
	d := &Deployment{
		cfg:      cfg,
		cc:       cc,
		live:     make([]int, cc.Instances),
		routed:   make([]int64, cc.Instances),
		stableAt: make([]float64, cc.Instances),
		latencyH: core.NewLatencyHistogram(),
		reg:      cfg.Metrics,
		par:      1,
		batchK:   batchWindows,
		batchCap: batchArrivals,
	}
	if cc.Parallelism > 1 {
		d.par = cc.Parallelism
		if d.par > cc.Instances {
			d.par = cc.Instances
		}
	}
	for i := 0; i < cc.Instances; i++ {
		d.stableAt[i] = math.NaN()
		icfg := cfg
		// The fleet's registry belongs to the Deployment: per-instance
		// registries would collide on series names, so members run
		// metrics-off and the cluster.* series sample them from outside.
		icfg.Metrics = nil
		if i != 0 {
			// One event trace per run: instance 0's. N interleaved traces
			// in one stream would be unparseable.
			icfg.TraceWriter = nil
		}
		if i != cc.FaultInstance {
			icfg.Faults = fault.Scenario{}
		}
		eng := &sim.Engine{}
		in, err := core.NewInstance(icfg, eng, i)
		if err != nil {
			return nil, fmt.Errorf("cluster: instance %d: %w", i, err)
		}
		d.engs = append(d.engs, eng)
		d.insts = append(d.insts, in)
	}
	switch cc.EffectiveRouting() {
	case RouteRoundRobin:
		d.router = newRoundRobin(cc.Instances)
	case RouteLeastLoaded:
		d.router = newLeastLoaded(d.live, cc.SnapshotMS <= 0)
	case RouteAffinity:
		d.router = newAffinity(cc.Instances)
	}
	d.admit = newAdmission(cc)
	d.tier = d.pickTier()
	return d, nil
}

// run primes every member, starts measurement, drives the load through
// the mode-appropriate executor, and assembles the fleet outcome.
func (d *Deployment) run() (core.Outcome, error) {
	out := core.Outcome{Kind: core.Application}
	d.pool = newPool(d.par)
	defer d.pool.close()

	// Priming advances no simulated time (allocation-only traffic) and is
	// instance-local, so it fans out across the workers; errors surface in
	// instance order regardless of completion order.
	if err := d.prime(); err != nil {
		return out, err
	}
	for _, in := range d.insts {
		in.StartMeasurement()
	}
	d.wireMetrics()

	// Three execution tiers (see parallel.go): closed-loop metrics-off
	// fleets have no cross-instance coupling at all and run each engine
	// to its own stop; open-loop metrics-off fleets whose front end reads
	// no instance state stage batches of windows ahead; everything else
	// advances in conservative-lookahead windows, exchanging routed
	// arrivals, completions, load snapshots, and metrics samples at the
	// barriers.
	var end float64
	var err error
	switch d.tier {
	case tierIndependent:
		end, err = d.runIndependent()
	case tierBatched:
		end, err = d.runBatched()
	default:
		end, err = d.runWindowed(d.cfg.Workload.Arrivals != nil)
	}
	if err != nil {
		return out, err
	}

	perf, report, err := d.results(end)
	if err != nil {
		return out, err
	}
	perf.Cluster = report
	out.Perf = perf
	out.Stats = core.RunStats{SimMS: end, Events: d.totalFired()}
	d.finalizeMetrics(end, report)
	out.Metrics = d.cfg.Metrics
	if d.anyCanceled() {
		return out, core.ErrCanceled
	}
	return out, nil
}

// onArrival is the windowed tier's open-loop sink: admission, routing,
// dispatch. It runs on the control-plane engine strictly before the
// window it admits into, so every instance sees its routed arrivals
// already queued when its engine runs the window.
func (d *Deployment) onArrival(now float64, a core.Arrival) {
	if i, ok := d.admitRoute(now, a); ok {
		d.live[i]++
		d.lanes[i].dispatch(d.insts[i], d.engs[i], now, a)
	}
}

// admitRoute counts an arrival, applies admission, and routes an admitted
// arrival, returning its target instance.
func (d *Deployment) admitRoute(now float64, a core.Arrival) (int, bool) {
	d.arrivals++
	if d.mArr != nil {
		d.mArr.Inc()
	}
	if !d.admit.Admit(now) {
		d.rejected++
		if d.mRej != nil {
			d.mRej.Inc()
		}
		return 0, false
	}
	d.admitted++
	if d.mAdm != nil {
		d.mAdm.Inc()
	}
	i := d.router.Route(now, a)
	d.routed[i]++
	return i, true
}

func (d *Deployment) totalLive() int {
	t := 0
	for _, v := range d.live {
		t += v
	}
	return t
}

func (d *Deployment) totalFired() uint64 {
	var t uint64
	for _, e := range d.engs {
		t += e.Fired()
	}
	if d.ctl != nil {
		t += d.ctl.Fired() - d.ctlAhead
	}
	return t
}

func (d *Deployment) totalPending() int {
	t := 0
	for _, e := range d.engs {
		t += e.Pending()
	}
	if d.ctl != nil {
		t += d.ctl.Pending()
	}
	return t
}

func (d *Deployment) maxHeap() int {
	t := 0
	for _, e := range d.engs {
		t += e.MaxPending()
	}
	if d.ctl != nil {
		t += d.ctl.MaxPending()
	}
	return t
}

func (d *Deployment) allStable() bool {
	for i := range d.stableAt {
		if math.IsNaN(d.stableAt[i]) {
			return false
		}
	}
	return true
}

func (d *Deployment) anyCanceled() bool {
	for _, in := range d.insts {
		if in.Canceled() {
			return true
		}
	}
	return false
}

// results merges the members into the fleet PerfResult and ClusterReport,
// always in instance-index order — the merge is the same whatever worker
// count ran the engines.
func (d *Deployment) results(end float64) (core.PerfResult, *core.ClusterReport, error) {
	res := core.PerfResult{Policy: d.cfg.Policy.Name(), Workload: d.cfg.Workload.Name}
	rep := &core.ClusterReport{
		Instances: d.cc.Instances,
		Routing:   d.router.Name(),
		Admission: d.admit.Name(),
		Arrivals:  d.arrivals,
		Admitted:  d.admitted,
		Rejected:  d.rejected,
	}
	if d.arrivals > 0 {
		rep.RejectPct = 100 * float64(d.rejected) / float64(d.arrivals)
	}

	var lat stats.Welford
	latH := core.NewLatencyHistogram()
	var maxOps int64
	stable := true
	for i, in := range d.insts {
		ir, err := in.Result(end)
		if err != nil {
			return res, rep, fmt.Errorf("cluster: instance %d: %w", i, err)
		}
		ip := core.InstancePerf{
			Index:         i,
			Routed:        d.routed[i],
			Ops:           ir.Ops,
			Percent:       ir.Percent,
			Stable:        ir.Stable,
			MeanLatencyMS: ir.MeanLatencyMS,
			P95LatencyMS:  ir.P95LatencyMS,
			Utilization:   ir.FinalUtilization,
			Faulted:       i == d.cc.FaultInstance && ir.Faults != nil,
		}
		rep.PerInstance = append(rep.PerInstance, ip)
		if ir.Faults != nil {
			res.Faults = ir.Faults
		}
		if ir.Compaction != nil {
			if res.Compaction == nil {
				res.Compaction = &core.CompactionReport{}
			}
			res.Compaction.Merge(ir.Compaction)
		}
		// Fleet throughput is the mean of per-member percents: members run
		// identical arrays, so this is fleet bytes over fleet capacity.
		res.Percent += ir.Percent / float64(d.cc.Instances)
		res.Bytes += ir.Bytes
		res.Ops += ir.Ops
		res.AllocFails += ir.AllocFails
		res.FinalUtilization += ir.FinalUtilization / float64(d.cc.Instances)
		if ir.Windows > res.Windows {
			res.Windows = ir.Windows
		}
		stable = stable && ir.Stable
		if ir.Ops > maxOps {
			maxOps = ir.Ops
		}
		in.MergeLatency(&lat, latH)
	}
	if res.Ops > 0 {
		rep.UtilSkew = float64(maxOps) * float64(d.cc.Instances) / float64(res.Ops)
	}
	res.Stable = stable
	res.SimMS = end
	if d.src != nil {
		// Open-loop fleets report the centrally observed latency — the
		// client's view across routing and admission.
		res.MeanLatencyMS = d.latency.Mean()
		res.P95LatencyMS = d.latencyH.Quantile(0.95)
	} else {
		res.MeanLatencyMS = lat.Mean()
		res.P95LatencyMS = latH.Quantile(0.95)
	}
	return res, rep, nil
}

// wireMetrics registers the cluster.* series on the run's registry (the
// members run metrics-off; the fleet's registry samples them from
// outside). Sampling happens at window barriers on the registry's
// interval grid — see runWindowed — never from inside an instance engine,
// so the sampled values are the same whatever worker count ran the
// window.
func (d *Deployment) wireMetrics() {
	reg := d.reg
	if reg == nil {
		return
	}
	reg.SetLabel("policy", d.cfg.Policy.Name())
	reg.SetLabel("workload", d.cfg.Workload.Name)
	reg.SetLabel("test", "app")
	reg.SetLabel("seed", strconv.FormatInt(d.cfg.Seed, 10))
	reg.SetLabel("cluster", strconv.Itoa(d.cc.Instances))
	reg.SetLabel("routing", d.router.Name())
	if d.admit.Name() != "" {
		reg.SetLabel("admission", d.admit.Name())
	}

	d.mArr = reg.Counter("cluster.arrivals")
	d.mAdm = reg.Counter("cluster.admitted")
	d.mRej = reg.Counter("cluster.rejected")

	reg.TimelineFunc("cluster.inflight", func() float64 { return float64(d.totalLive()) })
	reg.TimelineFunc("sim.events", func() float64 { return float64(d.totalFired()) })
	reg.TimelineFunc("sim.heap_depth", func() float64 { return float64(d.totalPending()) })
	for i, in := range d.insts {
		i, in := i, in
		p := "cluster.inst." + strconv.Itoa(i) + "."
		reg.TimelineFunc(p+"inflight", func() float64 { return float64(d.live[i]) })
		reg.TimelineFunc(p+"utilization", in.Utilization)
		reg.TimelineFunc(p+"ops", func() float64 { return float64(in.Ops()) })
	}
}

// finalizeMetrics records the end-of-run fleet gauges, closes the
// timelines and drops the samplers, which reach every member.
// sim.events_fired sums every engine (instances plus control plane);
// sim.heap_max sums the per-engine high-water marks — an upper bound on
// the fleet's instantaneous total, reported in place of the single
// shared heap the fleet no longer has.
func (d *Deployment) finalizeMetrics(end float64, rep *core.ClusterReport) {
	reg := d.reg
	if reg == nil {
		return
	}
	reg.Gauge("sim.events_fired").Set(float64(d.totalFired()))
	reg.Gauge("sim.heap_max").Set(float64(d.maxHeap()))
	reg.Gauge("sim.end_ms").Set(end)
	reg.Gauge("cluster.instances").Set(float64(rep.Instances))
	reg.Gauge("cluster.reject_pct").Set(rep.RejectPct)
	reg.Gauge("cluster.util_skew").Set(rep.UtilSkew)
	for _, ip := range rep.PerInstance {
		p := "cluster.inst." + strconv.Itoa(ip.Index) + "."
		reg.Gauge(p + "ops_total").Set(float64(ip.Ops))
		reg.Gauge(p + "throughput_pct").Set(ip.Percent)
		reg.Gauge(p + "final_utilization").Set(ip.Utilization)
		reg.Gauge(p + "routed").Set(float64(ip.Routed))
	}
	reg.Finish(end)
}
