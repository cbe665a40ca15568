package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/service"
	"ssr/internal/shard"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/workload"
)

// benchSeed fixes every scenario's workload so decision counts and
// fingerprints are identical run to run (the determinism tests assert it).
const benchSeed = 606

const (
	fgPriority = dag.Priority(10)
	bgPriority = dag.Priority(1)
)

// ssrOpts mirrors the large-scale experiment configuration: SSR with
// reservation for the foreground class only, 3s locality wait, 5x miss
// penalty.
func ssrOpts() driver.Options {
	return driver.Options{
		Mode:               driver.ModeSSR,
		SSR:                core.DefaultConfig(),
		ReserveMinPriority: fgPriority,
		LocalityWait:       3 * time.Second,
		LocalityFactor:     5,
	}
}

// Scenarios returns the fixed scenario set, in report order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "offline_step_1000",
			Desc: "offline engine step rate: 1000-node (-short: 100) cluster, ML suite vs background batch, ModeSSR",
			Run:  runOfflineStep,
		},
		{
			Name: "online_admission",
			Desc: "online admission->dispatch latency through internal/service at high dilation",
			Run:  runOnlineAdmission,
		},
		{
			Name: "federation_k4",
			Desc: "federated throughput, K=4 shards with cross-shard lending",
			Run:  func(short bool) (uint64, string, error) { return runFederation(short, 4) },
		},
		{
			Name: "federation_k16",
			Desc: "federated throughput, K=16 shards with cross-shard lending",
			Run:  func(short bool) (uint64, string, error) { return runFederation(short, 16) },
		},
	}
}

// offlineWorkload builds the foreground ML suite plus a background batch
// sized to the scenario scale.
func offlineWorkload(short bool) (fg, bg []*dag.Job, err error) {
	bgCfg := workload.BackgroundConfig{
		Jobs:           2000,
		Window:         10 * time.Minute,
		MeanTask:       120 * time.Second,
		Alpha:          1.6,
		DurationScale:  1,
		MaxParallelism: 60,
	}
	if short {
		bgCfg.Jobs = 300
		bgCfg.Window = 6 * time.Minute
		bgCfg.MeanTask = 40 * time.Second
		bgCfg.MaxParallelism = 40
	}
	fgStart := bgCfg.Window / 4
	at := fgStart
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(i+1), fgPriority, at,
			stats.SubStream(benchSeed, "bench-fg-"+spec.Name, i))
		if err != nil {
			return nil, nil, err
		}
		fg = append(fg, j)
		at += 20 * time.Second
	}
	bg, err = workload.Background(bgCfg, 10000, bgPriority,
		stats.Stream(benchSeed, "bench-bg"))
	if err != nil {
		return nil, nil, err
	}
	return fg, bg, nil
}

// runOfflineStep is the core hot-path scenario: one full simulation of the
// ML foreground suite against a standing background backlog on a
// 1000-node, 4000-slot cluster (100 nodes under -short), scheduled with
// SSR. Decisions are engine events fired.
func runOfflineStep(short bool) (uint64, string, error) {
	nodes := 1000
	if short {
		nodes = 100
	}
	fg, bg, err := offlineWorkload(short)
	if err != nil {
		return 0, "", err
	}
	eng := sim.New()
	cl, err := cluster.New(nodes, 4)
	if err != nil {
		return 0, "", err
	}
	d, err := driver.New(eng, cl, ssrOpts())
	if err != nil {
		return 0, "", err
	}
	for _, j := range fg {
		if err := d.Submit(j); err != nil {
			return 0, "", err
		}
	}
	for _, j := range bg {
		if err := d.Submit(j); err != nil {
			return 0, "", err
		}
	}
	if err := d.Run(); err != nil {
		return 0, "", err
	}
	return eng.Events(), offlineFingerprint(eng.Events(), d.Makespan(), d.Results()), nil
}

// offlineFingerprint condenses a finished offline run into a string two
// identically-seeded runs must reproduce bit for bit.
func offlineFingerprint(events uint64, makespan time.Duration, results []metrics.JobStats) string {
	var jct time.Duration
	for _, st := range results {
		jct += st.JCT()
	}
	return fmt.Sprintf("events=%d makespan=%s jobs=%d jctsum=%s",
		events, makespan, len(results), jct)
}

// runFederation runs the same class of workload through a K-shard offline
// federation with cross-shard lending enabled. Decisions are the summed
// per-shard engine events.
func runFederation(short bool, k int) (uint64, string, error) {
	nodes, perNode := 160, 4
	bgJobs := 800
	window := 8 * time.Minute
	meanTask := 60 * time.Second
	if short {
		nodes = 48
		bgJobs = 160
		window = 5 * time.Minute
		meanTask = 30 * time.Second
	}
	fed, err := shard.New(shard.Options{
		Shards:       k,
		Nodes:        nodes,
		SlotsPerNode: perNode,
		Driver:       ssrOpts(),
	})
	if err != nil {
		return 0, "", err
	}
	var fg []*dag.Job
	at := window / 4
	for i, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(i+1), fgPriority, at,
			stats.SubStream(benchSeed, "bench-fed-fg-"+spec.Name, i))
		if err != nil {
			return 0, "", err
		}
		fg = append(fg, j)
		at += 15 * time.Second
	}
	bg, err := workload.Background(workload.BackgroundConfig{
		Jobs:           bgJobs,
		Window:         window,
		MeanTask:       meanTask,
		Alpha:          1.6,
		DurationScale:  1,
		MaxParallelism: 40,
	}, 10000, bgPriority, stats.Stream(benchSeed, "bench-fed-bg"))
	if err != nil {
		return 0, "", err
	}
	for _, j := range fg {
		if _, err := fed.Submit(j); err != nil {
			return 0, "", err
		}
	}
	for _, j := range bg {
		if _, err := fed.Submit(j); err != nil {
			return 0, "", err
		}
	}
	if err := fed.Run(); err != nil {
		return 0, "", err
	}
	var events uint64
	for _, sh := range fed.Shards() {
		events += sh.Eng.Events()
	}
	return events, offlineFingerprint(events, fed.Makespan(), fed.Results()), nil
}

// runOnlineAdmission pushes a burst of jobs through the real-time service
// and measures wall-clock admission→first-dispatch latency per job.
// Decisions are the driver events the service bus published; the fingerprint
// covers only the wall-clock-independent totals (jobs completed, task
// attempts started), since event interleaving across the runner loop is
// timing dependent.
func runOnlineAdmission(short bool) (uint64, string, error) {
	numJobs := 120
	if short {
		numJobs = 40
	}

	var (
		mu        sync.Mutex
		submitted = make(map[dag.JobID]time.Time)
		latencies []time.Duration
		attempts  atomic.Uint64
	)
	cfg := service.Config{
		Nodes:        24,
		SlotsPerNode: 2,
		Dilation:     5000, // 5000 virtual seconds per wall second
		// Slowdown baselines re-simulate every finished job; that is a
		// different subsystem's cost, so keep it out of this measurement.
		BaselineWorkers: -1,
		Driver: driver.Options{
			Mode:               driver.ModeSSR,
			SSR:                core.DefaultConfig(),
			ReserveMinPriority: fgPriority,
			OnEvent: func(ev *obs.AuditEvent) {
				if ev.Kind != obs.KindAttemptStart {
					return
				}
				attempts.Add(1)
				now := time.Now()
				mu.Lock()
				if t0, ok := submitted[dag.JobID(ev.Job)]; ok {
					delete(submitted, dag.JobID(ev.Job))
					latencies = append(latencies, now.Sub(t0))
				}
				mu.Unlock()
			},
		},
	}
	svc, err := service.New(cfg)
	if err != nil {
		return 0, "", err
	}
	defer svc.Close()

	spec := service.JobSpec{
		Name:     "bench",
		Priority: int(fgPriority),
		Phases: []service.PhaseSpec{
			{DurationsMs: []float64{40000, 40000, 40000, 40000}},
			{DurationsMs: []float64{30000, 30000, 30000, 30000, 30000, 30000}, Deps: []int{0}},
			{DurationsMs: []float64{20000, 20000}, Deps: []int{1}},
		},
	}
	done := 0
	for i := 0; i < numJobs; i++ {
		t0 := time.Now()
		st, err := svc.Submit(spec)
		if err != nil {
			return 0, "", err
		}
		mu.Lock()
		submitted[dag.JobID(st.ID)] = t0
		mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	left, err := svc.Drain(ctx)
	cancel()
	if err != nil {
		return 0, "", fmt.Errorf("drain: %w (%d jobs left)", err, left)
	}
	done = numJobs - left

	mu.Lock()
	lats := append([]time.Duration(nil), latencies...)
	mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		RecordExtra("admit_dispatch_p50_ms", float64(lats[len(lats)/2])/1e6)
		RecordExtra("admit_dispatch_p95_ms", float64(lats[len(lats)*95/100])/1e6)
		RecordExtra("admit_dispatch_max_ms", float64(lats[len(lats)-1])/1e6)
	}
	ms, err := svc.Metrics()
	if err != nil {
		return 0, "", err
	}
	fp := fmt.Sprintf("jobs=%d attempts=%d", done, attempts.Load())
	return ms.EventsPublished, fp, nil
}
