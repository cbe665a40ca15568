package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ssr/internal/obs"
)

// fullAudit is an audit ring large enough to keep a whole pass (about
// 30000 events), so the reference pass can count events per kind.
const fullAudit = 1 << 16

// offlineSetup builds every variant's input for seed, starting from a
// collected heap, and returns them with the CPU time it took.
func offlineSetup(sh offlineShape, seed int64) ([]*offlineInput, float64, error) {
	runtime.GC()
	start := cpuTime()
	inputs := make([]*offlineInput, 0, variants)
	for v := 0; v < variants; v++ {
		in, err := makeOfflineInput(sh, seed, v)
		if err != nil {
			return nil, 0, err
		}
		inputs = append(inputs, in)
	}
	return inputs, (cpuTime() - start).Seconds(), nil
}

// references runs every input once, keeping the whole audit stream.
func references(sh offlineShape, inputs []*offlineInput) ([]passOut, error) {
	refs := make([]passOut, len(inputs))
	for v, in := range inputs {
		var err error
		if refs[v], err = runPass(sh, in, fullAudit, nil, nil); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// cycleOut is one pass over every variant.
type cycleOut struct {
	wall   time.Duration
	cpu    time.Duration
	jobs   int
	events uint64
	lat    logHist
	// mismatches counts passes whose fingerprint differs from their
	// reference's.
	mismatches int
	// traced cycles only: each pass's estimator wrapper and fingerprint
	est []*timedAdaptive
	fps []fingerprint
}

// runCycle runs one pass per variant, checking each against its reference
// fingerprint.
func runCycle(rep *report, sh offlineShape, inputs []*offlineInput, refs []passOut,
	timeEvents bool, tr *tracer) (*cycleOut, error) {
	c := &cycleOut{}
	cpu0 := cpuTime()
	for v, in := range inputs {
		var lat *logHist
		if timeEvents {
			lat = &c.lat
		}
		p, err := runPass(sh, in, 0, lat, tr)
		if err != nil {
			return nil, err
		}
		c.wall += p.wall
		c.jobs += p.fp.Jobs
		c.events += p.fp.Events
		if tr != nil {
			c.est = append(c.est, p.est)
			c.fps = append(c.fps, p.fp)
		}
		rep.attempted += int64(len(in.jobs))
		if p.fp != refs[v].fp {
			c.mismatches++
			rep.failed += int64(len(in.jobs))
			rep.check(fmt.Sprintf("fingerprint.v%d", v), false,
				fmt.Sprintf("got %s want %s", p.fp, refs[v].fp))
		}
	}
	c.cpu = cpuTime() - cpu0
	return c, nil
}

// runCycles repeats cycles until budget has passed, at least once, and
// checks that every pass reproduced its reference fingerprint. A non-nil
// after runs after every cycle.
func runCycles(rep *report, name string, sh offlineShape, inputs []*offlineInput, refs []passOut,
	budget time.Duration, timeEvents bool, tr *tracer, after func() error) ([]*cycleOut, error) {
	var cycles []*cycleOut
	mismatches := 0
	end := time.Now().Add(budget)
	for len(cycles) == 0 || time.Now().Before(end) {
		c, err := runCycle(rep, sh, inputs, refs, timeEvents, tr)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, c)
		mismatches += c.mismatches
		if after != nil {
			if err := after(); err != nil {
				return nil, err
			}
		}
	}
	rep.check(name+".fingerprints", mismatches == 0, fmt.Sprintf("%d of %d passes differ from their reference",
		mismatches, len(cycles)*len(inputs)))
	return cycles, nil
}

// runOffline measures an offline workload. Untraced it reports the
// end-to-end metrics; traced it runs half the time untraced and half
// traced and reports the per-layer metrics and the tracing overhead.
func runOffline(rep *report, sh offlineShape, seed int64, seconds time.Duration,
	traced bool, spansPath string) error {
	inputs, setup, err := offlineSetup(sh, seed)
	if err != nil {
		return err
	}
	// Reference passes: the fingerprint every later pass must reproduce,
	// the audit stream per kind, and a warm-up before anything is timed.
	refs, err := references(sh, inputs)
	if err != nil {
		return err
	}
	for v, in := range inputs {
		rep.check(fmt.Sprintf("completed.v%d", v), refs[v].fp.Jobs == len(in.jobs),
			fmt.Sprintf("%d of %d jobs", refs[v].fp.Jobs, len(in.jobs)))
		rep.check(fmt.Sprintf("audit_kept.v%d", v), refs[v].kinds != nil,
			fmt.Sprintf("%d events", refs[v].fp.Audit))
		rep.info("reference v%d %s", v, refs[v].fp)
	}
	reportCounts(rep, countsOf(inputs, refs))

	if !traced {
		// Only the fingerprints are needed from here on; drop the rest
		// so the heap measured below is the passes' own.
		for v := range refs {
			refs[v] = passOut{fp: refs[v].fp}
		}
		// One set-up takes tens of milliseconds of CPU, and on a shared
		// machine the CPU's speed shifts by up to half for seconds at a
		// time, so set-up is repeated after every cycle, outside the heap
		// measurement, and setup_s is the median over the whole run.
		setups := []float64{setup}
		runtime.GC()
		heap := startHeapSampler(5 * time.Millisecond)
		resetup := func() error {
			heap.pause()
			defer heap.resume()
			_, t, err := offlineSetup(sh, seed)
			runtime.GC()
			setups = append(setups, t)
			return err
		}
		cycles, err := runCycles(rep, "measure", sh, inputs, refs, seconds, true, nil, resetup)
		peak := heap.finish()
		if err != nil {
			return err
		}
		rep.set("setup_s", median(setups), len(setups))
		var rates, wallRates, p50s []float64
		for _, c := range cycles {
			rates = append(rates, float64(c.jobs)/c.cpu.Seconds())
			wallRates = append(wallRates, float64(c.jobs)/c.wall.Seconds())
			p50s = append(p50s, us(c.lat.quantile(0.50)))
		}
		rep.info("jobs_per_s %.1f 1/s (wall, median of %d cycles)", median(wallRates), len(cycles))
		rep.set("jobs_per_cpu_s", median(rates), len(cycles))
		rep.set("latency_p50_us", median(p50s), int(cycles[0].lat.n)*len(cycles))
		rep.set("peak_heap_mb", peak, len(cycles)*len(inputs))
		return nil
	}

	gc0 := readGC()
	plain, err := runCycles(rep, "plain", sh, inputs, refs, seconds/2, true, nil, nil)
	if err != nil {
		return err
	}
	gc := gc0.to(readGC())
	tr := newTracer(spansPerLayer)
	tracedStart := time.Now()
	tracedCycles, err := runCycles(rep, "traced", sh, inputs, refs, seconds/2, false, tr, nil)
	tracedWall := time.Since(tracedStart)
	if err != nil {
		return err
	}
	var plainCPU, tracedCPU, p99s []float64
	plainJobs := 0
	for _, c := range plain {
		plainCPU = append(plainCPU, c.cpu.Seconds())
		p99s = append(p99s, us(c.lat.quantile(0.99)))
		plainJobs += c.jobs
	}
	rep.set("driver.event_p99_us", median(p99s), int(plain[0].lat.n)*len(plain))
	for _, c := range tracedCycles {
		tracedCPU = append(tracedCPU, c.cpu.Seconds())
	}
	rep.set("trace.overhead_share", median(tracedCPU)/median(plainCPU)-1, len(tracedCPU))
	kjobs := float64(plainJobs) / 1000
	rep.set("runtime.gc_cycles", float64(gc.cycles)/kjobs, int(gc.cycles))
	rep.set("runtime.gc_pause_p99_us", us(gc.pauseP99), int(gc.numPauses))
	rep.set("runtime.alloc_mb", gc.allocMB/kjobs, len(plain))
	offlineLayers(rep, refs, tracedCycles, tr, tracedWall)
	return writeSpans(rep, tr, spansPath)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// exactCounts are what one seed's reference passes add up to. They are
// deterministic: every run of the same seed on the same code reproduces
// them, traced or not, so they are compared exactly, apart from the
// noise-bounded timings.
type exactCounts struct {
	Events   uint64            `json:"events"`
	Audit    map[string]uint64 `json:"audit"`
	Refits   uint64            `json:"refits"`
	Attempts int               `json:"attempts"`
	Tasks    int               `json:"tasks"`
	Granted  int               `json:"loans_granted"`
	Consumed int               `json:"loans_consumed"`
}

func countsOf(inputs []*offlineInput, refs []passOut) exactCounts {
	c := exactCounts{Audit: make(map[string]uint64)}
	for v, r := range refs {
		for k, n := range r.kinds {
			c.Audit[k.String()] += n
		}
		c.Events += r.fp.Events
		c.Refits += r.fp.Refits
		c.Attempts += r.fp.Attempts
		c.Tasks += inputs[v].tasks
		c.Granted += r.loans.Granted
		c.Consumed += r.loans.Consumed
	}
	return c
}

// reportCounts prints the exact counts and sets the ones declared as
// metrics.
func reportCounts(rep *report, c exactCounts) {
	kinds := make([]string, 0, len(c.Audit))
	var audit uint64
	for k, n := range c.Audit {
		kinds = append(kinds, k)
		audit += n
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rep.info("count audit.%-20s %d", k, c.Audit[k])
	}
	rep.set("driver.events", float64(c.Events), 1)
	rep.set("driver.attempts_per_task", share(float64(c.Attempts), float64(c.Tasks)), c.Tasks)
	rep.set("obs.audit_events", float64(audit), 1)
	rep.set("estimate.refits", float64(c.Refits), 1)
	rep.set("core.reservations", float64(c.Audit[obs.KindReserve.String()]), 1)
	rep.set("core.prereservations", float64(c.Audit[obs.KindPreReserve.String()]), 1)
	armed := c.Audit[obs.KindDeadlineArmed.String()]
	rep.set("core.deadline_expired_share",
		share(float64(c.Audit[obs.KindDeadlineExpire.String()]), float64(armed)), int(armed))
	rep.set("shard.loans_granted", float64(c.Granted), 1)
	rep.set("shard.loan_use_share", share(float64(c.Consumed), float64(c.Granted)), c.Granted)
}

// offlineLayers derives the per-layer metrics of the traced cycles, which
// took wall time wall.
func offlineLayers(rep *report, refs []passOut, cycles []*cycleOut, tr *tracer, wall time.Duration) {
	pass, step := tr.layer(layerPass), tr.layer(layerStep)
	sch, est := tr.layer(layerSched), tr.layer(layerEstimate)
	var events uint64
	var refitDurs []float64
	accepted, refits, miscounted := 0, 0, 0
	for _, c := range cycles {
		events += c.events
		for i, e := range c.est {
			for _, d := range e.refits {
				refitDurs = append(refitDurs, us(d))
			}
			refits += len(e.refits)
			accepted += e.accepted
			if uint64(len(e.refits)) != c.fps[i].Refits {
				miscounted++
			}
		}
	}
	rep.check("estimate.refits_counted", miscounted == 0,
		fmt.Sprintf("%d traced passes where the wrapper and the estimator snapshot disagree", miscounted))
	n := float64(len(cycles))
	// The driver's self time is what the passes and steps spent outside
	// the wrapped layers; every layer's self time together must not
	// exceed the traced cycles' wall time.
	driverSelf := pass.self + step.self
	ok, detail := tr.selfWithinWall(wall, layerPass, layerStep, layerSched, layerEstimate)
	rep.check("layers.self_within_wall", ok, detail)
	rep.set("driver.self_ns_per_event", float64(driverSelf)/float64(events), int(events))
	rep.set("sched.calls", float64(sch.calls)/n, int(sch.calls))
	rep.set("sched.ns_per_call", float64(sch.total)/float64(sch.calls), int(sch.calls))
	rep.set("sched.busy_share", share(float64(sch.total), float64(pass.total)), len(cycles))
	rep.set("estimate.calls", float64(est.calls)/n, int(est.calls))
	rep.set("estimate.refit_us_p50", median(refitDurs), len(refitDurs))
	rep.set("estimate.busy_share", share(float64(est.total), float64(pass.total)), len(cycles))
	rep.set("estimate.accept_share", share(float64(accepted), float64(refits)), refits)
	if step.calls > 0 {
		rep.set("shard.stepper_ns_per_event", float64(step.total)/float64(events), int(step.calls))
	}

	// obs: replay each reference's recorded stream into a fresh ring the
	// size ssrd uses, and render each reference's registry.
	var appendNs, promUs []float64
	for _, r := range refs {
		evs := r.audit.Events()
		for i := 0; i < 3; i++ {
			a := obs.NewAudit(0)
			start := time.Now()
			for _, ev := range evs {
				a.Append(ev)
			}
			appendNs = append(appendNs, float64(time.Since(start))/float64(len(evs)))
		}
		for i := 0; i < 5; i++ {
			start := time.Now()
			_ = r.reg.WritePrometheus(io.Discard) // io.Discard never fails
			promUs = append(promUs, us(time.Since(start)))
		}
	}
	rep.set("obs.audit_append_ns", median(appendNs), len(appendNs))
	rep.set("obs.prometheus_write_us", median(promUs), len(promUs))
}

// writeSpans writes the tracer's spans and reports how many were kept.
func writeSpans(rep *report, tr *tracer, path string) error {
	kept, err := tr.writeSpans(path)
	if err != nil {
		return err
	}
	rep.set("trace.spans", float64(kept), kept)
	rep.info("spans written to %s", path)
	return nil
}
