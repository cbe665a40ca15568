package driver

import (
	"testing"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
)

// drainAt schedules a drain with the given notice at a virtual time.
func drainAt(t *testing.T, e *env, at, notice time.Duration, node int) {
	t.Helper()
	e.eng.At(at, func() {
		if err := e.d.DrainNode(node, notice); err != nil {
			t.Errorf("DrainNode(%d) at %v: %v", node, at, err)
		}
		checkStatePartition(t, e.cl)
	})
}

// TestDrainPreemptOrRide exercises the per-attempt notice decision: of two
// attempts on the draining node, the one finishing inside the window rides
// to the wire, the other is preempted and restarts on the survivor without
// charging its retry budget.
func TestDrainPreemptOrRide(t *testing.T) {
	e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	// Four tasks on four slots in order: node 0 gets a 2s and a 10s task,
	// node 1 the same.
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(2, 10, 2, 10)}})
	e.mustSubmit(t, j)
	// t=1, notice 3s: the 2s tasks (1s remaining) ride out the window;
	// the 10s task on node 0 cannot and is preempted immediately.
	drainAt(t, e, sec(1), sec(3), 0)
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.NodeDrains != 1 {
		t.Errorf("NodeDrains = %d, want 1", fc.NodeDrains)
	}
	if fc.AttemptsPreempted != 1 {
		t.Errorf("AttemptsPreempted = %d, want 1", fc.AttemptsPreempted)
	}
	if fc.TasksRetried != 0 {
		t.Errorf("TasksRetried = %d, want 0 (preemption is not a task failure)", fc.TasksRetried)
	}
	st, _ := e.d.Result(1)
	if st.Failed {
		t.Fatal("job failed under drain")
	}
	// The preempted 10s task restarted at t=1 on a surviving slot as soon
	// as one freed (t=2), finishing at t=12.
	if got, want := e.jct(t, 1), sec(12); got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	e.checkClean(t)
}

// TestDrainMigratesReservation verifies a reserved-idle slot on the
// draining node moves to a surviving free slot instead of dying with the
// node.
func TestDrainMigratesReservation(t *testing.T) {
	e := newEnv(t, 2, 1, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 5)},
		{Durations: durations(1, 1)},
	})
	e.mustSubmit(t, j)
	// t=1: the 1s task frees slot 0 (node 0) and Algorithm 1 reserves it.
	// t=2: node 0 drains while the reservation idles; slot 1 (node 1) is
	// busy until t=5, so no migration target exists and the reservation
	// re-issues as pre-reservation quota instead.
	drainAt(t, e, sec(2), sec(1), 0)
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.ReservationsMigrated != 0 || fc.ReservationsDrained != 1 || fc.ReservationsReissued != 1 {
		t.Errorf("migrated=%d drained=%d reissued=%d, want 0/1/1",
			fc.ReservationsMigrated, fc.ReservationsDrained, fc.ReservationsReissued)
	}
	e.checkClean(t)
}

// TestDrainMigrationTarget verifies migration proper: with a free survivor
// of the right size, the reservation transfers and no quota is re-issued.
func TestDrainMigrationTarget(t *testing.T) {
	e := newEnv(t, 3, 1, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 5)},
		{Durations: durations(1, 1)},
	})
	e.mustSubmit(t, j)
	// Tasks occupy slots 0 and 1; slot 2 (node 2) stays free. At t=2 the
	// t=1 completion's reservation idles on node 0 — drain migrates it to
	// the free slot on node 2.
	drainAt(t, e, sec(2), sec(1), 0)
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.ReservationsMigrated != 1 || fc.ReservationsDrained != 0 {
		t.Errorf("migrated=%d drained=%d, want 1/0", fc.ReservationsMigrated, fc.ReservationsDrained)
	}
	e.checkClean(t)
}

// TestDrainZeroSurvivors drains the only node: every attempt is preempted
// with nowhere to restart, the wire takes the node down, and a later
// re-offer completes the job. The requeued work must survive a window with
// zero surviving slots.
func TestDrainZeroSurvivors(t *testing.T) {
	e := newEnv(t, 1, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(5, 5)}})
	e.mustSubmit(t, j)
	drainAt(t, e, sec(1), sec(2), 0)
	e.eng.At(sec(10), func() {
		if err := e.d.RecoverNode(0); err != nil {
			t.Errorf("RecoverNode: %v", err)
		}
	})
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.AttemptsPreempted != 2 {
		t.Errorf("AttemptsPreempted = %d, want 2", fc.AttemptsPreempted)
	}
	st, _ := e.d.Result(1)
	if st.Failed {
		t.Fatal("job failed; preemption must not charge the retry budget")
	}
	// Restarted from scratch at the t=10 re-offer.
	if got, want := e.jct(t, 1), sec(15); got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	e.checkClean(t)
}

// TestDrainRacesCompletion drains a node whose last attempt finishes at
// the exact instant the notice window closes: the finish timer was armed
// earlier, so it beats the wire and the task completes.
func TestDrainRacesCompletion(t *testing.T) {
	e := newEnv(t, 2, 1, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(4, 1)}})
	e.mustSubmit(t, j)
	// The 4s task runs on node 0 until t=4; the notice window closes at
	// exactly t=4.
	drainAt(t, e, sec(1), sec(3), 0)
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.AttemptsPreempted != 0 {
		t.Errorf("AttemptsPreempted = %d, want 0 (attempt finishes at the wire)", fc.AttemptsPreempted)
	}
	if got, want := e.jct(t, 1), sec(4); got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	e.checkClean(t)
}

// TestRepeatedDrainUndrain cycles a node through Draining and back while a
// job runs, checking the parked slots return to service and the pending
// wire event is disarmed each time.
func TestRepeatedDrainUndrain(t *testing.T) {
	e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(1, 1, 20, 20)}})
	e.mustSubmit(t, j)
	for i := 0; i < 3; i++ {
		at := sec(float64(2 + 4*i))
		drainAt(t, e, at, sec(10), 0)
		e.eng.At(at+sec(2), func() {
			if err := e.d.UndrainNode(0); err != nil {
				t.Errorf("UndrainNode: %v", err)
			}
			checkStatePartition(t, e.cl)
		})
	}
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.NodeDrains != 3 || fc.NodeUndrains != 3 {
		t.Errorf("drains=%d undrains=%d, want 3/3", fc.NodeDrains, fc.NodeUndrains)
	}
	if e.cl.CountNodes(cluster.NodeUp) != 2 {
		t.Errorf("up nodes = %d, want 2", e.cl.CountNodes(cluster.NodeUp))
	}
	// Every notice was canceled before its wire: the node never went down.
	if e.cl.CountState(cluster.Failed) != 0 {
		t.Errorf("failed slots = %d, want 0", e.cl.CountState(cluster.Failed))
	}
	st, _ := e.d.Result(1)
	if st.Failed {
		t.Fatal("job failed")
	}
	e.checkClean(t)
}

// TestSpeedFactorsScaleServiceTimes verifies heterogeneous slots: a task
// on a 2x node takes half its nominal duration, and an unconfigured
// cluster is untouched.
func TestSpeedFactorsScaleServiceTimes(t *testing.T) {
	e := newEnv(t, 2, 1, Options{})
	if err := e.cl.SetNodeSpeed(0, 2); err != nil {
		t.Fatalf("SetNodeSpeed: %v", err)
	}
	// Two 8s tasks: slot 0 (2x) finishes its task at t=4, then takes the
	// queued... both placed immediately (2 slots). Slot 1 runs at 1x.
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(8, 8)}})
	e.mustSubmit(t, j)
	e.mustRun(t)
	if got, want := e.jct(t, 1), sec(8); got != want {
		t.Errorf("JCT = %v, want %v (slow node bounds the phase)", got, want)
	}
	if got, want := e.d.Makespan(), sec(8); got != want {
		t.Errorf("makespan = %v, want %v", got, want)
	}
	e.checkClean(t)
}

// TestDrainNodeErrors covers the lifecycle error surface.
func TestDrainNodeErrors(t *testing.T) {
	e := newEnv(t, 2, 1, Options{})
	if err := e.d.DrainNode(0, 0); err == nil {
		t.Error("DrainNode with zero notice: want error")
	}
	if err := e.d.DrainNode(9, sec(1)); err == nil {
		t.Error("DrainNode of unknown node: want error")
	}
	if err := e.d.UndrainNode(0); err == nil {
		t.Error("UndrainNode of an Up node: want error")
	}
	if err := e.d.DrainNode(0, sec(1)); err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if err := e.d.DrainNode(0, sec(1)); err == nil {
		t.Error("DrainNode of a draining node: want error")
	}
	if err := e.d.RecoverNode(0); err == nil {
		t.Error("RecoverNode of a draining node: want error (undrain instead)")
	}
	if err := e.d.UndrainNode(0); err != nil {
		t.Fatalf("UndrainNode: %v", err)
	}
	if got := e.cl.CountNodes(cluster.NodeUp); got != 2 {
		t.Errorf("up nodes = %d, want 2", got)
	}
}

// TestDeactivateActivate sizes a pool down before work arrives and brings
// the node back mid-run.
func TestDeactivateActivate(t *testing.T) {
	e := newEnv(t, 2, 1, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	if err := e.d.DeactivateNode(1); err != nil {
		t.Fatalf("DeactivateNode: %v", err)
	}
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(4, 4)}})
	e.mustSubmit(t, j)
	e.eng.At(sec(1), func() {
		if err := e.d.ActivateNode(1); err != nil {
			t.Errorf("ActivateNode: %v", err)
		}
	})
	e.mustRun(t)
	fc := e.d.Faults()
	if fc.NodeFailures != 0 || fc.NodeRecoveries != 0 {
		t.Errorf("pool sizing counted as faults: failures=%d recoveries=%d",
			fc.NodeFailures, fc.NodeRecoveries)
	}
	// Second task starts on node 1 at t=1: JCT 5s, not 8s serialized.
	if got, want := e.jct(t, 1), sec(5); got != want {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	e.checkClean(t)
}

// TestDeactivateBusyNodeRefused: a node holding work cannot be deactivated.
func TestDeactivateBusyNodeRefused(t *testing.T) {
	e := newEnv(t, 2, 1, Options{})
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{{Durations: durations(2, 2)}})
	e.mustSubmit(t, j)
	e.eng.At(sec(1), func() {
		if err := e.d.DeactivateNode(0); err == nil {
			t.Error("DeactivateNode of a busy node: want error")
		}
	})
	e.mustRun(t)
	e.checkClean(t)
}
