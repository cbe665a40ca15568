package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ssr/internal/driver"
	"ssr/internal/obs"
	"ssr/internal/service"
	"ssr/internal/stats"
)

const (
	warmup = time.Second
	// measureShare is the percentage of --seconds the untraced run's
	// measured phase lasts; warm-up and set-up take most of the rest.
	measureShare = 90
	// probeEvery spaces the no-op CallShard probes that time how long a
	// call waits for the shard loop.
	probeEvery = 5 * time.Millisecond
	// inProcessSubmits is how many specs the traced run submits straight
	// to Service.Submit, and decodeSamples how many bodies it decodes.
	inProcessSubmits = 300
	decodeSamples    = 1000
)

// phase is one stretch of load against a stack.
type phase struct {
	results []opResult
	late    []time.Duration
	wall    time.Duration
	cpu     time.Duration
	jobs    []sentJob
	missing int
}

// sentJob is one accepted submit.
type sentJob struct {
	id    int64
	due   time.Time
	tasks int
}

// loadState threads the seeded generator through a run's phases.
type loadState struct {
	rng  *rand.Rand
	next int // next job pool index
}

// open runs an open-loop phase: submits at rate, reads alongside them,
// then waits for every accepted job's job_done.
func (s *onlineStack) open(ls *loadState, length time.Duration, rate float64) *phase {
	ops := poissonSchedule(ls.rng, length, rate, readRatio, scrapeEvery, ls.next)
	for _, o := range ops {
		if o.kind == opSubmit {
			ls.next++
		}
	}
	cpu0, t0 := cpuTime(), time.Now()
	results, late := openLoop(ops, loadWorkers, s.do)
	return s.settle(results, late, cpu0, t0)
}

// settle waits for the phase's accepted jobs to finish, detecting it from
// job_done events, never by polling the service.
func (s *onlineStack) settle(results []opResult, late []time.Duration, cpu0 time.Duration, t0 time.Time) *phase {
	p := &phase{results: results, late: late}
	var ids []int64
	for _, r := range results {
		if r.kind == opSubmit && r.ok() && r.jobID > 0 {
			ids = append(ids, r.jobID)
			p.jobs = append(p.jobs, sentJob{id: r.jobID, due: r.dueAt,
				tasks: s.jobs[r.job%len(s.jobs)].tasks})
		}
	}
	p.missing = s.watch.wait(ids, quiesceTimeout)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	return p
}

// latencies splits a phase's latencies in milliseconds: submits (due to
// 2xx), reads (due to response) and jobs (due to job_done).
func (s *onlineStack) latencies(p *phase) (submit, read, job []float64) {
	for _, r := range p.results {
		if !r.ok() {
			continue
		}
		if r.kind == opSubmit {
			submit = append(submit, ms(r.latency()))
		} else {
			read = append(read, ms(r.latency()))
		}
	}
	for _, j := range p.jobs {
		if at, ok, _ := s.watch.job(j.id); ok {
			job = append(job, ms(at.Sub(j.due)))
		}
	}
	return submit, read, job
}

// windowJobs is how many consecutive jobs one latency window holds.
const windowJobs = 1000

// windowedMedian splits job latencies, in due order, into windows of
// windowJobs and returns the median over windows of each window's median.
// A stall that hits one window, such as the machine's other tenants taking
// the CPU for a few milliseconds, then moves the result by one window's
// worth at most.
func windowedMedian(lat []float64) (float64, int) {
	windows := len(lat) / windowJobs
	if windows < 1 {
		return quantile(lat, 0.50), 1
	}
	var w50 []float64
	for w := 0; w < windows; w++ {
		w50 = append(w50, quantile(lat[w*len(lat)/windows:(w+1)*len(lat)/windows], 0.50))
	}
	return median(w50), windows
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// verify checks a phase's outcomes and counts them into the report:
// every request answered 2xx, every accepted job reached job_done with as
// many attempts as tasks.
func (s *onlineStack) verify(rep *report, name string, p *phase) {
	non2xx, undone, wrongAttempts := 0, 0, 0
	var first string
	for _, r := range p.results {
		if !r.ok() {
			if non2xx == 0 {
				first = fmt.Sprintf("; first: op %d status %d err %v", r.kind, r.status, r.err)
			}
			non2xx++
		}
	}
	for _, j := range p.jobs {
		_, ok, attempts := s.watch.job(j.id)
		switch {
		case !ok:
			undone++
		case attempts != j.tasks:
			wrongAttempts++
		}
	}
	rep.attempted += int64(len(p.results) + len(p.jobs))
	rep.failed += int64(non2xx + undone + wrongAttempts)
	if non2xx+undone+wrongAttempts > 0 {
		rep.check(name, false, fmt.Sprintf("%d non-2xx, %d jobs not done, %d jobs with attempts != tasks%s",
			non2xx, undone, wrongAttempts, first))
	}
}

// verifyStack runs the checks that hold for a whole stack's life.
func (s *onlineStack) verifyStack(rep *report, name string) error {
	ms, err := s.svc.Metrics()
	if err != nil {
		return err
	}
	s.watch.mu.Lock()
	dropped := s.watch.dropped
	s.watch.mu.Unlock()
	rep.check(name+".subscribers", !dropped && ms.DroppedSubscribers == 0,
		fmt.Sprintf("%d dropped", ms.DroppedSubscribers))
	classes := len(s.svc.Estimators().Snapshot())
	limit := presetClasses() * len(onlineTenants)
	rep.check(name+".estimator_classes", classes <= limit,
		fmt.Sprintf("%d classes, at most %d", classes, limit))
	rep.check(name+".jobs", ms.JobsFailed == 0 && ms.JobsRunning == 0,
		fmt.Sprintf("%d completed, %d failed, %d running", ms.JobsCompleted, ms.JobsFailed, ms.JobsRunning))
	return nil
}

// setupRounds is how many times the online workload sets up, back to
// back; setup_s is their median. One set-up takes over 100 ms of CPU, so
// the rounds span a few seconds.
const setupRounds = 15

// runOnline measures online_http. Untraced: a warm-up, the open-loop
// phase at baseRate that the end-to-end metrics come from, then the rate
// ladder. Traced: the latency phase once untraced and once traced, plus
// in-process timings of the layers the HTTP path crosses.
func runOnline(rep *report, seed int64, seconds time.Duration, traced bool, spansPath string) error {
	ls := &loadState{rng: stats.Stream(seed, "perfbench-online-load")}
	var (
		jobs   []onlineJob
		stack  *onlineStack
		setups []float64
	)
	for r := 0; r < setupRounds; r++ {
		if stack != nil {
			if err := stack.close(); err != nil {
				return err
			}
		}
		jobs, stack = nil, nil
		runtime.GC()
		start := cpuTime()
		var err error
		if jobs, err = makeOnlineJobs(seed, poolJobs); err != nil {
			return err
		}
		if stack, err = startOnline(jobs, onlineDilation, nil); err != nil {
			return err
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}
	if traced {
		return runOnlineTraced(rep, ls, stack, seconds, spansPath)
	}
	defer stack.close()
	rep.set("setup_s", median(setups), len(setups))

	stack.verify(rep, "warmup", stack.open(ls, warmup, baseRate))
	heap := startHeapSampler(5 * time.Millisecond)
	p := stack.open(ls, seconds*measureShare/100, baseRate)
	peak := heap.finish()
	stack.verify(rep, "measure", p)
	submit, read, job := stack.latencies(p)
	p50, windows := windowedMedian(job)
	rep.set("jobs_per_cpu_s", float64(len(p.jobs))/p.cpu.Seconds(), len(p.jobs))
	rep.set("latency_p50_us", 1000*p50, len(job))
	rep.set("peak_heap_mb", peak, 1)
	rep.info("latency windows %d of %d jobs; %d jobs at %.0f/s offered in %v",
		windows, windowJobs, len(p.jobs), baseRate, p.wall)
	onlineLatencies(rep, submit, read, job, p)
	return stack.verifyStack(rep, "service")
}

// onlineLatencies reports the client-side latencies of a phase. Their
// tails are not end-to-end metrics: on a machine whose other tenants take
// the CPU for milliseconds at a time, the tails follow that steal rather
// than the program.
func onlineLatencies(rep *report, submit, read, job []float64, p *phase) {
	rep.set("online.job_p99_ms", quantile(job, 0.99), len(job))
	rep.set("online.submit_p50_ms", quantile(submit, 0.50), len(submit))
	rep.set("online.submit_p99_ms", quantile(submit, 0.99), len(submit))
	rep.set("online.read_p50_ms", quantile(read, 0.50), len(read))
	rep.set("online.read_p99_ms", quantile(read, 0.99), len(read))
	rep.set("loadgen.late_p99_ms", quantile(durMs(p.late), 0.99), len(p.late))
}

// ladder finds the highest offered rate whose job p99 meets jobP99Limit
// with every request answered 2xx and no job left behind. It stops at the
// first rate that fails; refusals there are an outcome of overload, not a
// defect, so that rate's requests stay out of the failure count.
func (s *onlineStack) ladder(rep *report, ls *loadState, rung time.Duration) float64 {
	maxRate := 0.0
	for _, rate := range ladder {
		p := s.open(ls, rung, rate)
		_, _, job := s.latencies(p)
		p99 := quantile(job, 0.99)
		refused := 0
		for _, r := range p.results {
			if !r.ok() {
				refused++
			}
		}
		ok := p.missing == 0 && refused == 0 && p99 <= ms(jobP99Limit)
		rep.info("ladder %6.0f jobs/s: job p99 %.2f ms over %d jobs, %d refused, generator late p99 %.2f ms, pass=%v",
			rate, p99, len(job), refused, quantile(durMs(p.late), 0.99), ok)
		if !ok {
			break
		}
		s.verify(rep, fmt.Sprintf("ladder.%g", rate), p)
		maxRate = rate
	}
	return maxRate
}

// runOnlineTraced is the traced online run. plain runs the latency phase
// and the rate ladder untraced; a second stack with the queue and handler
// wrapped runs the latency phase traced, with realtime probes alongside.
func runOnlineTraced(rep *report, ls *loadState, plain *onlineStack, seconds time.Duration, spansPath string) error {
	plain.verify(rep, "warmup", plain.open(ls, warmup, baseRate))
	gc0 := readGC()
	p := plain.open(ls, seconds/3, baseRate)
	gc := gc0.to(readGC())
	plain.verify(rep, "measure", p)
	submit, read, job := plain.latencies(p)
	onlineLatencies(rep, submit, read, job, p)
	kjobs := float64(len(p.jobs)) / 1000
	rep.set("runtime.gc_cycles", float64(gc.cycles)/kjobs, int(gc.cycles))
	rep.set("runtime.gc_pause_p99_us", us(gc.pauseP99), int(gc.numPauses))
	rep.set("runtime.alloc_mb", gc.allocMB/kjobs, len(p.jobs))
	plainCPU := us(p.cpu) / float64(len(p.jobs))
	rep.set("online.max_rate_jobs_s", plain.ladder(rep, ls, seconds/30), len(ladder))
	if err := plain.verifyStack(rep, "service"); err != nil {
		return err
	}
	if err := plain.close(); err != nil {
		return err
	}

	tr := newTracer(spansPerLayer)
	s, err := startOnline(plain.jobs, onlineDilation, tr)
	if err != nil {
		return err
	}
	defer s.close()
	s.verify(rep, "traced.warmup", s.open(ls, warmup, baseRate))
	stopProbes := s.probe()
	p = s.open(ls, seconds/3, baseRate)
	waits := stopProbes()
	s.verify(rep, "traced.measure", p)
	tracedCPU := us(p.cpu) / float64(len(p.jobs))
	rep.set("trace.overhead_share", tracedCPU/plainCPU-1, len(p.jobs))
	rep.set("realtime.call_wait_p50_us", quantile(waits, 0.50), len(waits))
	rep.set("realtime.call_wait_p99_us", quantile(waits, 0.99), len(waits))
	rep.set("loadgen.sent", float64(len(p.results)), len(p.results))
	s.httpLayers(rep, tr, p)

	sch := tr.layer(layerSched)
	rep.set("sched.calls", float64(sch.calls), int(sch.calls))
	rep.set("sched.ns_per_call", float64(sch.total)/float64(sch.calls), int(sch.calls))
	rep.set("sched.busy_share", share(float64(sch.total), float64(p.wall)), 1)

	s.watch.mu.Lock()
	events, reserves := s.watch.events, s.watch.reserves
	s.watch.mu.Unlock()
	attempts, tasks := 0, 0
	for _, j := range p.jobs {
		_, _, a := s.watch.job(j.id)
		attempts += a
		tasks += j.tasks
	}
	rep.set("driver.attempts_per_task", share(float64(attempts), float64(tasks)), tasks)
	rep.set("core.reservations", float64(reserves), 1)
	if err := s.inProcess(rep); err != nil {
		return err
	}
	var engineEvents uint64
	if err := s.svc.Call(func(d *driver.Driver) { engineEvents = d.Engine().Events() }); err != nil {
		return err
	}
	ms, err := s.svc.Metrics()
	if err != nil {
		return err
	}
	rep.set("driver.events", float64(engineEvents), 1)
	rep.set("bus.events_per_job", share(float64(events), float64(ms.JobsCompleted)), ms.JobsCompleted)
	rep.set("bus.dropped_subscribers", float64(ms.DroppedSubscribers), 1)
	rep.set("baseline.dropped_share", share(float64(ms.Slowdowns.Dropped), float64(ms.JobsCompleted)), ms.JobsCompleted)
	snap := s.svc.Estimators().Snapshot()
	var fits, rejects uint64
	for _, c := range snap {
		fits += c.Fits
		rejects += c.Rejects
	}
	rep.set("estimate.refits", float64(fits+rejects), len(snap))
	rep.set("estimate.accept_share", share(float64(fits), float64(fits+rejects)), int(fits+rejects))
	s.obsLayers(rep)
	if err := s.verifyStack(rep, "traced.service"); err != nil {
		return err
	}
	return writeSpans(rep, tr, spansPath)
}

// probe starts a goroutine timing no-op CallShard round trips every
// probeEvery; the returned stop function ends it and returns the waits in
// microseconds.
func (s *onlineStack) probe() func() []float64 {
	stop := make(chan struct{})
	done := make(chan struct{})
	var waits []float64
	go func() {
		defer close(done)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			start := time.Now()
			if err := s.svc.CallShard(0, func(*driver.Driver) {}); err != nil {
				return
			}
			waits = append(waits, us(time.Since(start)))
		}
	}()
	var once sync.Once
	return func() []float64 {
		once.Do(func() { close(stop) })
		<-done
		return waits
	}
}

// httpLayers joins each request's client interval with its server
// interval into spans: the server span is the handler's time, the client
// span's self time is what the transport and client added.
func (s *onlineStack) httpLayers(rep *report, tr *tracer, p *phase) {
	s.serverMu.Lock()
	server := s.server
	s.serverMu.Unlock()
	var submitSrv, readSrv, transport []float64
	var clientTotal, serverTotal time.Duration
	non2xx := 0
	for _, r := range p.results {
		if !r.ok() {
			non2xx++
		}
		iv, ok := server[r.reqID]
		if !ok || r.reqID == 0 {
			continue
		}
		name := "read"
		if r.kind == opSubmit {
			name = "submit"
		}
		id, self := tr.add(layerClient, name, 0, r.sentAt, r.doneAt, [][2]time.Time{iv})
		tr.add(layerServer, name, id, iv[0], iv[1], nil)
		srv := iv[1].Sub(iv[0])
		clientTotal += r.doneAt.Sub(r.sentAt)
		serverTotal += srv
		transport = append(transport, us(self))
		if r.kind == opSubmit {
			submitSrv = append(submitSrv, us(srv))
		} else {
			readSrv = append(readSrv, us(srv))
		}
	}
	rep.check("layers.self_within_wall", serverTotal <= clientTotal,
		fmt.Sprintf("server %v within client %v", serverTotal, clientTotal))
	rep.set("http.submit_server_p50_us", quantile(submitSrv, 0.50), len(submitSrv))
	rep.set("http.submit_server_p99_us", quantile(submitSrv, 0.99), len(submitSrv))
	rep.set("http.read_server_p99_us", quantile(readSrv, 0.99), len(readSrv))
	rep.set("http.transport_p50_us", quantile(transport, 0.50), len(transport))
	rep.set("http.non2xx", float64(non2xx), len(p.results))
}

// inProcess times the service layer without HTTP: JSON decode plus
// Validate on pool bodies, and Service.Submit on a sample of the same
// specs.
func (s *onlineStack) inProcess(rep *report) error {
	var decode, submit []float64
	var specs []service.JobSpec
	for i := 0; i < decodeSamples; i++ {
		body := s.jobs[i%len(s.jobs)].body
		start := time.Now()
		var spec service.JobSpec
		err := json.Unmarshal(body, &spec)
		if err == nil {
			err = spec.Validate()
		}
		decode = append(decode, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("decode pool body %d: %w", i, err)
		}
		if len(specs) < inProcessSubmits {
			specs = append(specs, spec)
		}
	}
	var ids []int64
	for _, spec := range specs {
		start := time.Now()
		st, err := s.svc.Submit(spec)
		submit = append(submit, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("in-process submit: %w", err)
		}
		ids = append(ids, st.ID)
	}
	missing := s.watch.wait(ids, quiesceTimeout)
	rep.attempted += int64(len(ids))
	rep.failed += int64(missing)
	rep.check("in_process.jobs", missing == 0, fmt.Sprintf("%d of %d not done", missing, len(ids)))
	rep.set("service.decode_validate_us", quantile(decode, 0.50), len(decode))
	rep.set("service.submit_p50_us", quantile(submit, 0.50), len(submit))
	rep.set("service.submit_p99_us", quantile(submit, 0.99), len(submit))
	return nil
}

// obsLayers times the observability layer on the stack's own state: the
// retained audit stream replayed into a fresh ring, and a Prometheus
// render of the registry.
func (s *onlineStack) obsLayers(rep *report) {
	audit := s.svc.Audit()
	rep.set("obs.audit_events", float64(audit.Total()), 1)
	evs := audit.Events()
	var appendNs, promUs []float64
	for i := 0; i < 3; i++ {
		a := obs.NewAudit(0)
		start := time.Now()
		for _, ev := range evs {
			a.Append(ev)
		}
		appendNs = append(appendNs, float64(time.Since(start))/float64(len(evs)))
	}
	for i := 0; i < 20; i++ {
		start := time.Now()
		_ = s.svc.Registry().WritePrometheus(io.Discard) // io.Discard never fails
		promUs = append(promUs, us(time.Since(start)))
	}
	rep.set("obs.audit_append_ns", median(appendNs), len(appendNs))
	rep.set("obs.prometheus_write_us", median(promUs), len(promUs))
}
