package driver

import (
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
)

// checkStatePartition asserts the slot states partition the cluster — the
// invariant every fault, drain and recovery sequence must preserve.
func checkStatePartition(t *testing.T, cl *cluster.Cluster) {
	t.Helper()
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// failAt schedules a node failure at the given virtual time.
func failAt(t *testing.T, e *env, at time.Duration, node int) {
	t.Helper()
	e.eng.At(at, func() {
		if err := e.d.FailNode(node); err != nil {
			t.Errorf("FailNode(%d) at %v: %v", node, at, err)
		}
		checkStatePartition(t, e.cl)
	})
}

// TestReservationRecovery exercises the three ways a node failure can
// intersect the reservation machinery (ISSUE scenarios a–c). Every case must
// keep the slot-state partition invariant and still complete the job.
func TestReservationRecovery(t *testing.T) {
	cases := []struct {
		name  string
		run   func(t *testing.T) *env
		check func(t *testing.T, e *env)
	}{
		{
			// (a) The node goes down while holding a reserved-idle slot
			// across a barrier: the reservation is voided and re-issued
			// as pre-reservation quota.
			name: "reserved idle slot",
			run: func(t *testing.T) *env {
				e := newEnv(t, 2, 1, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
				j := chain(t, 1, "j", 5, []dag.PhaseSpec{
					{Durations: durations(1, 5)},
					{Durations: durations(1, 1)},
				})
				e.mustSubmit(t, j)
				// t=1: the 1s task frees slot 0 (node 0), which Algorithm 1
				// reserves. t=2: node 0 fails while the slot idles.
				failAt(t, e, sec(2), 0)
				e.mustRun(t)
				return e
			},
			check: func(t *testing.T, e *env) {
				fc := e.d.Faults()
				if fc.ReservationsVoided != 1 || fc.ReservationsReissued != 1 {
					t.Errorf("voided=%d reissued=%d, want 1/1",
						fc.ReservationsVoided, fc.ReservationsReissued)
				}
				if fc.AttemptsKilled != 0 {
					t.Errorf("attempts killed = %d, want 0 (slot was idle)", fc.AttemptsKilled)
				}
			},
		},
		{
			// (b1) The node goes down while running a straggler-mitigation
			// copy: the original attempt must carry the task to completion
			// with no retry.
			name: "mitigation copy dies",
			run: func(t *testing.T) *env {
				cfg := core.DefaultConfig()
				cfg.MitigateStragglers = true
				e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: cfg})
				j := chain(t, 1, "j", 5, []dag.PhaseSpec{
					{Durations: durations(1, 1, 10)},
					{Durations: durations(1, 1)},
				})
				e.mustSubmit(t, j)
				// t=1: slots 0,1 freed and reserved; the straggler's copy
				// launches on slot 0. t=2: node 0 (slots 0,1) fails,
				// killing the copy and voiding the reservation on slot 1.
				failAt(t, e, sec(2), 0)
				e.mustRun(t)
				return e
			},
			check: func(t *testing.T, e *env) {
				fc := e.d.Faults()
				st, _ := e.d.Result(1)
				if fc.AttemptsKilled != 1 || st.AttemptsKilled != 1 {
					t.Errorf("attempts killed = %d/%d, want 1 (the copy)",
						fc.AttemptsKilled, st.AttemptsKilled)
				}
				if fc.TasksRetried != 0 {
					t.Errorf("retries = %d, want 0 (original survived)", fc.TasksRetried)
				}
				if fc.ReservationsVoided != 1 || fc.ReservationsReissued != 1 {
					t.Errorf("voided=%d reissued=%d, want 1/1",
						fc.ReservationsVoided, fc.ReservationsReissued)
				}
				if st.CopiesWon != 0 {
					t.Errorf("copies won = %d, want 0 (copy was killed)", st.CopiesWon)
				}
			},
		},
		{
			// (b2) The node running the original goes down instead: the
			// mitigation copy wins the task.
			name: "original dies copy survives",
			run: func(t *testing.T) *env {
				cfg := core.DefaultConfig()
				cfg.MitigateStragglers = true
				e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: cfg})
				j := chain(t, 1, "j", 5, []dag.PhaseSpec{
					{Durations: durations(1, 1, 10)},
					{Durations: durations(1, 1)},
				})
				e.mustSubmit(t, j)
				// The straggler original runs on slot 2 (node 1).
				failAt(t, e, sec(2), 1)
				e.mustRun(t)
				return e
			},
			check: func(t *testing.T, e *env) {
				fc := e.d.Faults()
				st, _ := e.d.Result(1)
				if fc.AttemptsKilled != 1 {
					t.Errorf("attempts killed = %d, want 1 (the original)", fc.AttemptsKilled)
				}
				if fc.TasksRetried != 0 {
					t.Errorf("retries = %d, want 0 (copy survived)", fc.TasksRetried)
				}
				if st.CopiesWon != 1 {
					t.Errorf("copies won = %d, want 1", st.CopiesWon)
				}
			},
		},
		{
			// (c) The node goes down while holding pre-reservation
			// captures (Case 2.3's extra n-m slots grabbed from the free
			// pool): the captures are voided and recaptured elsewhere.
			name: "pre-reservation capture",
			run: func(t *testing.T) *env {
				e := newEnv(t, 4, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
				// m=4 upstream, n=6 downstream: past R=0.5 the tracker
				// pre-reserves the extra 2 slots.
				j := chain(t, 1, "j", 5, []dag.PhaseSpec{
					{Durations: durations(1, 1, 1, 10)},
					{Durations: durations(1, 1, 1, 1, 1, 1)},
				}, dag.WithKnownParallelism())
				e.mustSubmit(t, j)
				// t=1: slots 0-2 reserved, pre-reservation captures the
				// free slots 4,5 (node 2). t=2: node 2 fails.
				failAt(t, e, sec(2), 2)
				e.mustRun(t)
				return e
			},
			check: func(t *testing.T, e *env) {
				fc := e.d.Faults()
				if fc.ReservationsVoided != 2 || fc.ReservationsReissued != 2 {
					t.Errorf("voided=%d reissued=%d, want 2/2",
						fc.ReservationsVoided, fc.ReservationsReissued)
				}
				if fc.AttemptsKilled != 0 {
					t.Errorf("attempts killed = %d, want 0", fc.AttemptsKilled)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.run(t)
			st, ok := e.d.Result(1)
			if !ok || st.Failed {
				t.Fatalf("job did not complete: %+v", st)
			}
			checkStatePartition(t, e.cl)
			e.checkClean(t)
			tc.check(t, e)
		})
	}
}

func TestRetryAfterBackoffOnSurvivingNode(t *testing.T) {
	e := newEnv(t, 2, 1, Options{Retry: RetryPolicy{Backoff: time.Second}})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(10)}})
	e.mustSubmit(t, j)
	// The task starts on slot 0 at t=0; node 0 fails at t=2. After the 1s
	// backoff the retry lands on node 1 at t=3 and runs its full 10s.
	failAt(t, e, sec(2), 0)
	e.mustRun(t)
	if got, want := e.jct(t, 1), sec(13); got != want {
		t.Errorf("JCT = %v, want %v (2s lost + 1s backoff + 10s rerun)", got, want)
	}
	st, _ := e.d.Result(1)
	if st.AttemptsKilled != 1 || st.Retries != 1 || st.Failed {
		t.Errorf("stats = killed %d, retries %d, failed %v; want 1, 1, false",
			st.AttemptsKilled, st.Retries, st.Failed)
	}
	fc := e.d.Faults()
	if fc.NodeFailures != 1 || fc.AttemptsKilled != 1 || fc.TasksRetried != 1 {
		t.Errorf("counters = %v", fc)
	}
	checkStatePartition(t, e.cl)
	e.checkClean(t)
}

func TestExponentialBackoffGrowth(t *testing.T) {
	p := RetryPolicy{Backoff: time.Second, Factor: 2, MaxBackoff: 5 * time.Second, MaxAttempts: 10}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 5 * time.Second, 5 * time.Second}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestJobAbortsAtRetryBudget(t *testing.T) {
	e := newEnv(t, 2, 1, Options{Retry: RetryPolicy{MaxAttempts: 2, Backoff: time.Second}})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(10)}})
	e.mustSubmit(t, j)
	failAt(t, e, sec(2), 0) // first failure: retry onto node 1 at t=3
	failAt(t, e, sec(5), 1) // second failure: budget exhausted, abort
	e.mustRun(t)
	st, ok := e.d.Result(1)
	if !ok {
		t.Fatal("missing result")
	}
	if !st.Failed {
		t.Fatal("job should have been aborted")
	}
	if got, want := st.Finish, sec(5); got != want {
		t.Errorf("abort time = %v, want %v", got, want)
	}
	fc := e.d.Faults()
	if fc.JobsFailed != 1 || fc.AttemptsKilled != 2 || fc.TasksRetried != 1 {
		t.Errorf("counters = %v; want 1 job failed, 2 kills, 1 retry", fc)
	}
	if e.d.Unfinished() != 0 {
		t.Errorf("unfinished = %d after abort, want 0", e.d.Unfinished())
	}
	checkStatePartition(t, e.cl)
	if n := len(e.d.slotOwner); n != 0 {
		t.Errorf("leaked %d slot owners", n)
	}
}

func TestRetryWaitsForNodeRecovery(t *testing.T) {
	e := newEnv(t, 1, 2, Options{Retry: RetryPolicy{Backoff: time.Second}})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(10, 10)}})
	e.mustSubmit(t, j)
	// The only node fails at t=2: both attempts die and their retries
	// have nowhere to go until the node recovers at t=5.
	failAt(t, e, sec(2), 0)
	e.eng.At(sec(5), func() {
		if err := e.d.RecoverNode(0); err != nil {
			t.Errorf("RecoverNode: %v", err)
		}
	})
	e.mustRun(t)
	if got, want := e.jct(t, 1), sec(15); got != want {
		t.Errorf("JCT = %v, want %v (rerun from recovery at t=5)", got, want)
	}
	fc := e.d.Faults()
	if fc.NodeFailures != 1 || fc.NodeRecoveries != 1 || fc.TasksRetried != 2 {
		t.Errorf("counters = %v", fc)
	}
	checkStatePartition(t, e.cl)
	e.checkClean(t)
}

func TestFailNodeUnknownAndRepeated(t *testing.T) {
	e := newEnv(t, 2, 1, Options{})
	if err := e.d.FailNode(5); err == nil {
		t.Error("FailNode(5) on a 2-node cluster should error")
	}
	if err := e.d.FailNode(0); err != nil {
		t.Fatalf("FailNode(0): %v", err)
	}
	if err := e.d.FailNode(0); err != nil {
		t.Fatalf("repeated FailNode(0): %v", err)
	}
	if got := e.d.Faults().NodeFailures; got != 1 {
		t.Errorf("node failures = %d, want 1 (second call is a no-op)", got)
	}
	if err := e.d.RecoverNode(0); err != nil {
		t.Fatalf("RecoverNode: %v", err)
	}
	if err := e.d.RecoverNode(0); err != nil {
		t.Fatalf("repeated RecoverNode: %v", err)
	}
	if got := e.d.Faults().NodeRecoveries; got != 1 {
		t.Errorf("node recoveries = %d, want 1 (second call is a no-op)", got)
	}
}

// A failure must evict the locality the downstream phase would otherwise
// chase: the lost outputs are re-fetched at the penalty, not mistaken for
// local reads on the recovered node.
func TestFailureEvictsDownstreamLocality(t *testing.T) {
	e := newEnv(t, 2, 1, Options{LocalityWait: sec(1), LocalityFactor: 2, Retry: RetryPolicy{Backoff: time.Second}})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 1)},
		{Durations: durations(1, 1)},
	})
	e.mustSubmit(t, j)
	// Phase 0 finishes at t=1 on slots 0,1. Node 0 fails at t=1.5, during
	// phase 1's locality wait, wiping task 0's preferred slot.
	failAt(t, e, sec(1)+sec(0.5), 0)
	e.mustRun(t)
	st, _ := e.d.Result(1)
	if st.Failed {
		t.Fatal("job should complete")
	}
	if st.AnyPlacements == 0 {
		t.Error("expected at least one penalized placement after the preferred slot died")
	}
	checkStatePartition(t, e.cl)
	e.checkClean(t)
}
