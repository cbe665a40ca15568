package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ssr/internal/dag"
	"ssr/internal/service"
	"ssr/internal/stats"
	"ssr/internal/traceload"
	"ssr/internal/workload"
)

const (
	fgPriority = dag.Priority(10)
	bgPriority = dag.Priority(1)
)

// offlineShape sizes one offline workload: the cluster, the federation
// width and the background batch contending with the ML foreground suite.
type offlineShape struct {
	nodes, slotsPerNode, shards int
	bg                          workload.BackgroundConfig
	// sqlScale multiplies the SQL suite's phase widths. Phases wider than
	// a shard are what send pre-reservation quota to the lending broker.
	sqlScale int
	// fgGap spaces the foreground jobs (the ML suite, then the SQL suite),
	// which start a quarter into the background window.
	fgGap time.Duration
}

// variants is how many independently seeded inputs one run cycles through.
// A single input's cost depends on its draw of heavy-tailed tasks; cycling
// several keeps a run's median from resting on one draw.
const variants = 4

// offlineInput is one seeded input: immutable jobs that every pass
// resubmits to a fresh scheduler.
type offlineInput struct {
	jobs  []*dag.Job
	tasks int
}

// makeOfflineInput builds variant v of the workload for seed. The same
// (seed, v) always yields the same jobs.
func makeOfflineInput(sh offlineShape, seed int64, v int) (*offlineInput, error) {
	in := &offlineInput{}
	at := sh.bg.Window / 4
	rng := stats.Stream(seed, fmt.Sprintf("perfbench-fg-%d", v))
	add := func(j *dag.Job, err error) error {
		if err != nil {
			return err
		}
		in.jobs = append(in.jobs, j)
		at += sh.fgGap
		return nil
	}
	for _, spec := range workload.MLSuite() {
		if err := add(spec.Build(dag.JobID(len(in.jobs)+1), fgPriority, at, rng)); err != nil {
			return nil, err
		}
	}
	for _, spec := range workload.SQLQueries(sh.sqlScale) {
		if err := add(spec.Build(dag.JobID(len(in.jobs)+1), fgPriority, at, rng)); err != nil {
			return nil, err
		}
	}
	bg, err := workload.Background(sh.bg, 10000, bgPriority,
		stats.Stream(seed, fmt.Sprintf("perfbench-bg-%d", v)))
	if err != nil {
		return nil, err
	}
	in.jobs = append(in.jobs, bg...)
	for _, j := range in.jobs {
		in.tasks += j.TotalTasks()
	}
	return in, nil
}

// Online job mix. It is traceload.DefaultGen's cluster mix: a
// BatchFraction share of batch jobs shaped like workload.Background (1-2
// small phases, the second half as wide as the first), the rest
// production jobs from the ML suite (8-12 phases of 20 tasks, so 160-240
// tasks a job). DefaultGen caps production phases at 8 tasks to keep
// synthetic traces small; the benchmark keeps the presets' 20. Every name
// is <class>-<n>, the form estimate.ClassOf groups, so the estimator holds
// at most one class per preset and tenant. Each block of mixBlock jobs
// holds exactly prodPerBlock ML jobs in shuffled order, so every seed
// offers the same mix and differs only in which presets and durations it
// draws.
const mixBlock = 20

var prodPerBlock = int(math.Round(mixBlock * (1 - traceload.DefaultGen().BatchFraction)))

// onlineTenants submit the jobs, each job's tenant drawn uniformly. The
// even split is an assumption with no measured source: two tenants of
// equal weight.
var onlineTenants = []string{"alpha", "beta"}

// presetClasses is the number of distinct job classes the mix can emit.
func presetClasses() int { return len(workload.MLSuite()) + 1 }

// onlineJob is one pre-encoded POST /v1/jobs body.
type onlineJob struct {
	body  []byte
	tasks int
}

// makeOnlineJobs draws n job specs for seed and encodes them once, so the
// load generator spends no CPU on building requests.
func makeOnlineJobs(seed int64, n int) ([]onlineJob, error) {
	rng := stats.Stream(seed, "perfbench-online-specs")
	ml := workload.MLSuite()
	bgCfg := traceload.DefaultGen().Batch
	bgCfg.Jobs = 1
	out := make([]onlineJob, n)
	block := make([]int, mixBlock)
	for i := range out {
		if i%mixBlock == 0 {
			for k := range block {
				block[k] = k
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		job, class, err := drawOnlineJob(rng, block[i%mixBlock], ml, bgCfg)
		if err != nil {
			return nil, err
		}
		spec := service.SpecOf(job)
		spec.Name = fmt.Sprintf("%s-%d", class, i)
		spec.Tenant = onlineTenants[rng.Intn(len(onlineTenants))]
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		out[i] = onlineJob{body: body, tasks: job.TotalTasks()}
	}
	return out, nil
}

// drawOnlineJob draws the job in position slot of a shuffled block.
func drawOnlineJob(rng *rand.Rand, slot int, ml []workload.MLSpec,
	bgCfg workload.BackgroundConfig) (*dag.Job, string, error) {
	if slot < prodPerBlock {
		spec := ml[rng.Intn(len(ml))]
		job, err := spec.Build(1, fgPriority, 0, rng)
		return job, spec.Name, err
	}
	jobs, err := workload.Background(bgCfg, 1, bgPriority, rng)
	if err != nil {
		return nil, "", err
	}
	return jobs[0], "bg", nil
}
