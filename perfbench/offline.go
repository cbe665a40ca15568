package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/shard"
	"ssr/internal/sim"
	"ssr/internal/workload"
)

// The two offline workloads. offline_contended is one 1000-node cluster;
// federated_lending spreads the same kind of load over 16 small shards so
// the global-min stepper and the lending broker carry real work.
var (
	contendedShape = offlineShape{
		nodes: 1000, slotsPerNode: 4, shards: 1,
		bg: workload.BackgroundConfig{Jobs: 2000, Window: 10 * time.Minute,
			MeanTask: 120 * time.Second, Alpha: 1.6, DurationScale: 1, MaxParallelism: 60},
		sqlScale: 1, fgGap: 10 * time.Second,
	}
	federatedShape = offlineShape{
		nodes: 160, slotsPerNode: 4, shards: 16,
		bg: workload.BackgroundConfig{Jobs: 800, Window: 8 * time.Minute,
			MeanTask: 60 * time.Second, Alpha: 1.6, DurationScale: 1, MaxParallelism: 40},
		sqlScale: 2, fgGap: 8 * time.Second,
	}
)

// ssrdDriverOptions mirrors the scheduling flags ssrd starts with: -mode
// ssr -p 0.9 -alpha 1.6 -r 0.5, no straggler mitigation, SSR for every job.
func ssrdDriverOptions() driver.Options {
	return driver.Options{
		Mode: driver.ModeSSR,
		SSR: core.Config{Enabled: true, IsolationP: 0.9, Alpha: 1.6,
			PreReserveThreshold: 0.5},
	}
}

// ssrdLendFraction is ssrd's -lend default.
const ssrdLendFraction = 0.5

// fingerprint condenses a finished pass. Two passes over the same input
// must agree on every field.
type fingerprint struct {
	Events    uint64
	Makespan  time.Duration
	Jobs      int
	JCTSum    time.Duration
	Attempts  int
	Audit     uint64
	Estimator uint64
	Refits    uint64
	Loans     int
}

func (f fingerprint) String() string {
	return fmt.Sprintf("events=%d makespan=%s jobs=%d jctsum=%s attempts=%d audit=%d est=%016x refits=%d loans=%d",
		f.Events, f.Makespan, f.Jobs, f.JCTSum, f.Attempts, f.Audit, f.Estimator, f.Refits, f.Loans)
}

// passOut is one finished offline pass.
type passOut struct {
	wall  time.Duration
	fp    fingerprint
	audit *obs.Audit
	reg   *obs.Registry
	loans shard.LoanStats
	// kinds counts audit events per kind; nil when the ring dropped some.
	kinds map[obs.Kind]uint64
	est   *timedAdaptive // traced passes only
}

// runPass schedules every job of in on a fresh cluster in the ssrd
// configuration (audit, metrics registry and adaptive estimator on) and
// runs it to completion. The timed interval covers building the scheduler,
// submitting and running. A non-nil lat receives every engine event's wall
// time. A non-nil tr wraps the queue and the estimator and records a span
// around the pass and, federated, around every step.
func runPass(sh offlineShape, in *offlineInput, auditCap int, lat *logHist, tr *tracer) (passOut, error) {
	out := passOut{audit: obs.NewAudit(auditCap), reg: obs.NewRegistry()}
	est := estimate.New(estimate.Config{})
	est.Export(out.reg)
	opts := ssrdDriverOptions()
	opts.Adaptive = est
	if tr != nil {
		out.est = &timedAdaptive{a: est, tr: tr}
		opts.Adaptive = out.est
		opts.Policy = timedPolicy{tr: tr}
		tr.push(layerPass, "pass")
	}
	start := time.Now()
	var (
		results []metrics.JobStats
		events  uint64
		span    time.Duration
		err     error
	)
	if sh.shards == 1 {
		results, events, span, err = runDriver(sh, in, opts, out.audit, out.reg, lat)
	} else {
		results, events, span, out.loans, err = runFederation(sh, in, opts, out.audit, out.reg, lat, tr)
	}
	out.wall = time.Since(start)
	if tr != nil {
		tr.pop()
	}
	if err != nil {
		return out, err
	}
	fp := fingerprint{Events: events, Makespan: span, Jobs: len(results),
		Audit: out.audit.Total(), Loans: out.loans.Granted}
	for _, st := range results {
		fp.JCTSum += st.JCT()
		fp.Attempts += st.TasksRun + st.CopiesLaunched + st.Retries
	}
	snap := est.Snapshot()
	for _, c := range snap {
		fp.Refits += c.Fits + c.Rejects
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return out, err
	}
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	fp.Estimator = h.Sum64()
	if out.audit.Dropped() == 0 {
		out.kinds = make(map[obs.Kind]uint64)
		for _, ev := range out.audit.Events() {
			out.kinds[ev.Kind]++
		}
	}
	out.fp = fp
	return out, nil
}

func runDriver(sh offlineShape, in *offlineInput, opts driver.Options, audit *obs.Audit,
	reg *obs.Registry, lat *logHist) ([]metrics.JobStats, uint64, time.Duration, error) {
	opts.Audit = audit
	opts.Metrics = obs.NewSchedMetrics(reg, obs.Label{Key: "shard", Value: "0"})
	eng := sim.New()
	cl, err := cluster.New(sh.nodes, sh.slotsPerNode)
	if err != nil {
		return nil, 0, 0, err
	}
	d, err := driver.New(eng, cl, opts)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, j := range in.jobs {
		if err := d.Submit(j); err != nil {
			return nil, 0, 0, err
		}
	}
	// Driver.Run, stepped here so every event can be timed.
	drive(eng.Step, lat, nil)
	if n := d.Unfinished(); n > 0 {
		return nil, 0, 0, fmt.Errorf("%d jobs unfinished after the event queue drained", n)
	}
	d.Usage().Finish(eng.Now())
	return d.Results(), eng.Events(), d.Makespan(), nil
}

// drive fires events until none is left. A non-nil lat receives each
// step's wall time; a non-nil tr records a span around each step instead.
func drive(step func() bool, lat *logHist, tr *tracer) {
	switch {
	case tr != nil:
		for {
			tr.push(layerStep, "Step")
			more := step()
			tr.pop()
			if !more {
				return
			}
		}
	case lat != nil:
		t := time.Now()
		for step() {
			now := time.Now()
			lat.add(now.Sub(t))
			t = now
		}
	default:
		for step() {
		}
	}
}

// runFederation wires the federation the way ssrd -shards does: one audit,
// registry and estimator shared by every shard, hash routing, lending on.
func runFederation(sh offlineShape, in *offlineInput, opts driver.Options, audit *obs.Audit,
	reg *obs.Registry, lat *logHist, tr *tracer) ([]metrics.JobStats, uint64, time.Duration, shard.LoanStats, error) {
	var loans shard.LoanStats
	fed, err := shard.New(shard.Options{
		Shards:       sh.shards,
		Nodes:        sh.nodes,
		SlotsPerNode: sh.slotsPerNode,
		Driver:       opts,
		Lending:      shard.LendingConfig{MaxLendFraction: ssrdLendFraction},
		Audit:        audit,
		Registry:     reg,
	})
	if err != nil {
		return nil, 0, 0, loans, err
	}
	for _, j := range in.jobs {
		if _, err := fed.Submit(j); err != nil {
			return nil, 0, 0, loans, err
		}
	}
	// Federation.Run, stepped here so every step can be timed.
	drive(fed.Step, lat, tr)
	for i, s := range fed.Shards() {
		if n := s.Drv.Unfinished(); n > 0 {
			return nil, 0, 0, loans, fmt.Errorf("shard %d: %d jobs unfinished after event queues drained", i, n)
		}
	}
	for _, s := range fed.Shards() {
		s.Drv.Usage().Finish(s.Eng.Now())
	}
	var events uint64
	for _, s := range fed.Shards() {
		events += s.Eng.Events()
	}
	if b := fed.Broker(); b != nil {
		loans = b.Stats()
	}
	return fed.Results(), events, fed.Makespan(), loans, nil
}
