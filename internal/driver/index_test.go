package driver

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/sim"
	"ssr/internal/workload"
)

// checkDispatchIndex verifies the driver's dispatch indexes against the
// state they summarize:
//
//   - each job's queued count equals its phases in the scheduling queue;
//   - queuedJobs holds exactly the jobs with a positive count, ascending
//     by job ID;
//   - no reservation-holding job left out of the dispatch sweep (no phase
//     in the queue) has a placeable phase, so a sweep over every holder
//     would have placed nothing more than the merged sweep does.
func checkDispatchIndex(d *Driver) error {
	want := 0
	for _, jr := range d.jobs {
		n := 0
		for _, pr := range jr.phases {
			if pr != nil && pr.inQueue {
				n++
			}
		}
		if n != jr.queued {
			return fmt.Errorf("job %d has %d phases in the queue, count says %d", jr.job.ID, n, jr.queued)
		}
		if n > 0 {
			want++
		}
	}
	if len(d.queuedJobs) != want {
		return fmt.Errorf("queued-job index holds %d jobs, %d have a queued phase", len(d.queuedJobs), want)
	}
	for i, q := range d.queuedJobs {
		if q.jr.job.ID != q.id || q.jr.queued == 0 {
			return fmt.Errorf("queued-job index entry %d (job %d) is stale", i, q.id)
		}
		if i > 0 && d.queuedJobs[i-1].id >= q.id {
			return fmt.Errorf("queued-job index out of order at job %d", q.id)
		}
	}
	for i := 0; i < d.cl.NumReservedJobs(); i++ {
		jr := d.jobsByID[d.cl.ReservedJobAt(i)]
		if jr == nil || jr.queued > 0 {
			continue
		}
		for _, pr := range jr.phases {
			if pr != nil && pr.placeable() {
				return fmt.Errorf("job %d holds reservations and has placeable phase %d outside the sweep",
					jr.job.ID, pr.phase.ID)
			}
		}
	}
	return nil
}

// contendedJobs draws a seeded mix for a small cluster: a heavy-tailed
// low-priority background batch plus higher-priority ML and SQL jobs
// arriving over the same window, so most running jobs hold reservations.
func contendedJobs(t testing.TB, seed int64) []*dag.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	jobs, err := workload.Background(workload.BackgroundConfig{
		Jobs: 60, Window: 2 * time.Minute, MeanTask: 10 * time.Second,
		Alpha: 1.6, DurationScale: 1, MaxParallelism: 24,
	}, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	id := dag.JobID(len(jobs) + 1)
	for i, spec := range workload.MLSuite() {
		spec.Phases = 4
		spec.Parallelism = 12
		job, err := spec.Build(id, 5, time.Duration(10+25*i)*time.Second, rng)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		id++
	}
	for i, spec := range workload.SQLQueries(1)[:6] {
		job, err := spec.Build(id, dag.Priority(3+i%3), time.Duration(5+15*i)*time.Second, rng)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		id++
	}
	return jobs
}

// TestDispatchIndexesHoldAfterEveryEvent steps seeded contended runs one
// engine event at a time — with node failures, so killed tasks re-enter
// the queue through requeueTask — and checks the cluster's and the
// driver's indexes after every event.
func TestDispatchIndexesHoldAfterEveryEvent(t *testing.T) {
	ssr := core.Config{Enabled: true, IsolationP: 0.9, Alpha: 1.6, PreReserveThreshold: 0.5}
	mitigate := ssr
	mitigate.MitigateStragglers = true
	swept := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, cfg := range []core.Config{ssr, mitigate} {
			eng := sim.New()
			cl, err := cluster.New(12, 4)
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(eng, cl, Options{Mode: ModeSSR, SSR: cfg})
			if err != nil {
				t.Fatal(err)
			}
			for _, job := range contendedJobs(t, seed) {
				if err := d.Submit(job); err != nil {
					t.Fatal(err)
				}
			}
			for i, node := range []int{2, 7, 5} {
				node, at := node, time.Duration(20+30*i)*time.Second
				eng.At(at, func() {
					if err := d.FailNode(node); err != nil {
						t.Errorf("FailNode(%d): %v", node, err)
					}
				})
				eng.At(at+15*time.Second, func() {
					if err := d.RecoverNode(node); err != nil {
						t.Errorf("RecoverNode(%d): %v", node, err)
					}
				})
			}
			for eng.Step() {
				if err := cl.CheckInvariants(); err != nil {
					t.Fatalf("seed %d, event %d at %v: %v", seed, eng.Events(), eng.Now(), err)
				}
				if err := checkDispatchIndex(d); err != nil {
					t.Fatalf("seed %d, event %d at %v: %v", seed, eng.Events(), eng.Now(), err)
				}
				if len(d.appendSweepJobs(nil)) > 0 {
					swept++
				}
			}
			if d.unfinished != 0 {
				t.Fatalf("seed %d: %d jobs unfinished", seed, d.unfinished)
			}
			if d.fc.TasksRetried == 0 {
				t.Errorf("seed %d: no task was retried; the failures missed every busy slot", seed)
			}
		}
	}
	if swept == 0 {
		t.Error("no event left a reservation-holding job in the queue; the sweep was never exercised")
	}
}

// idleSweepDriver builds the shape dispatch has under contention: holders
// jobs each hold reservations while a straggler of their first phase runs,
// and waiting lower-priority jobs sit in the queue with no slot they may
// take. Every dispatch pass then fails to serve the queue head, scans the
// reservations for an override, and sweeps an empty intersection.
func idleSweepDriver(t testing.TB, holders, waiting int) *Driver {
	t.Helper()
	eng := sim.New()
	cl, err := cluster.New(holders, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(eng, cl, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < holders+waiting; i++ {
		prio, first := dag.Priority(1+i%5), durations(1, 1, 1, 1000)
		if i >= holders {
			prio, first = 0, durations(1)
		}
		job, err := dag.Chain(dag.JobID(i+1), "hold", prio, []dag.PhaseSpec{
			{Durations: first},
			{Durations: durations(1, 1, 1, 1)},
		}, dag.WithKnownParallelism())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunUntil(sec(2)); err != nil {
		t.Fatal(err)
	}
	if n := cl.NumReservedJobs(); n != holders {
		t.Fatalf("%d jobs hold reservations, want %d", n, holders)
	}
	if len(d.queuedJobs) != waiting {
		t.Fatalf("%d jobs queued, want %d", len(d.queuedJobs), waiting)
	}
	if n := len(d.appendSweepJobs(nil)); n != 0 {
		t.Fatalf("sweep would visit %d jobs, want none", n)
	}
	return d
}

// TestIdleDispatchAllocatesNothing pins a dispatch pass that ends with an
// empty sweep over many reservation holders at zero allocations.
func TestIdleDispatchAllocatesNothing(t *testing.T) {
	d := idleSweepDriver(t, 150, 60)
	if n := testing.AllocsPerRun(100, d.dispatch); n != 0 {
		t.Fatalf("idle dispatch allocates %v times per pass, want 0", n)
	}
}

// BenchmarkDispatchIdleSweep measures one dispatch pass with 150 jobs
// holding reservations, 60 queued jobs that cannot place, and no
// placeable work.
func BenchmarkDispatchIdleSweep(b *testing.B) {
	d := idleSweepDriver(b, 150, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.dispatch()
	}
}
