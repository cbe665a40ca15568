package driver

import (
	"testing"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/obs"
	"ssr/internal/trace"
)

func TestReserveMinPriorityScopesSSR(t *testing.T) {
	// Two structurally identical 2-phase jobs, one above and one below
	// the reservation threshold, each against its own competitor.
	run := func(prio dag.Priority) bool {
		opts := Options{
			Mode:               ModeSSR,
			SSR:                core.DefaultConfig(),
			ReserveMinPriority: 5,
		}
		e := newEnv(t, 1, 2, opts)
		j := chain(t, 1, "j", prio, []dag.PhaseSpec{
			{Durations: durations(1, 4)},
			{Durations: durations(1, 1)},
		})
		// The competitor has the same priority, so it can take the
		// freed slot at t=1 only if no reservation protects it.
		comp := chain(t, 2, "comp", prio, []dag.PhaseSpec{{Durations: durations(10, 10)}})
		e.mustSubmit(t, j, comp)
		e.mustRun(t)
		// With a reservation, j's phase 1 runs 4-5 (JCT 5); without,
		// the competitor holds the slot and phase 1 drags.
		return e.jct(t, 1) == sec(5)
	}
	if !run(5) {
		t.Error("job at the threshold priority should be protected")
	}
	if run(4) {
		t.Error("job below the threshold must not reserve")
	}
}

func TestForceRemotePricesConstrainedPlacements(t *testing.T) {
	j := chain(t, 1, "j", 5, []dag.PhaseSpec{
		{Durations: durations(1, 1)},
		{Durations: durations(2, 2)},
	})
	normal, err := AloneJCT(j, 1, 2, Options{})
	if err != nil {
		t.Fatalf("AloneJCT: %v", err)
	}
	if normal != sec(3) {
		t.Fatalf("normal alone JCT = %v, want 3s", normal)
	}
	e := newEnv(t, 1, 2, Options{Mode: ModeNone, ForceRemote: true, LocalityFactor: 5})
	j2 := chain(t, 2, "j2", 5, []dag.PhaseSpec{
		{Durations: durations(1, 1)},
		{Durations: durations(2, 2)},
	})
	e.mustSubmit(t, j2)
	e.mustRun(t)
	// Phase 0 (root, unconstrained) runs at base speed; phase 1 pays
	// 5x even on its own slots: 1 + 10.
	if got := e.jct(t, 2); got != sec(11) {
		t.Errorf("ForceRemote JCT = %v, want 11s", got)
	}
	st, _ := e.d.Result(2)
	if st.AnyPlacements != 2 {
		t.Errorf("AnyPlacements = %d, want 2", st.AnyPlacements)
	}
}

func TestTraceRecordsAttempts(t *testing.T) {
	rec := &trace.Recorder{}
	cfg := core.DefaultConfig()
	cfg.MitigateStragglers = true
	e := newEnv(t, 1, 4, Options{Mode: ModeSSR, SSR: cfg, OnEvent: obs.Tracer(rec)})
	j, err := dag.Chain(1, "traced", 10, []dag.PhaseSpec{
		{Durations: durations(1, 1, 1, 100), CopyDurations: durations(1, 1, 1, 2)},
		{Durations: durations(1, 1, 1, 1)},
	})
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	e.mustSubmit(t, j)
	e.mustRun(t)

	events := rec.Events()
	st, _ := e.d.Result(1)
	// Every attempt appears: 8 originals + launched copies.
	if got, want := len(events), 8+st.CopiesLaunched; got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	kills, copies := 0, 0
	for _, ev := range events {
		if ev.Killed {
			kills++
		}
		if ev.Copy {
			copies++
		}
		if ev.End < ev.Start {
			t.Errorf("event ends before it starts: %+v", ev)
		}
		if ev.JobName != "traced" {
			t.Errorf("wrong job name: %+v", ev)
		}
	}
	if copies != st.CopiesLaunched {
		t.Errorf("trace copies = %d, want %d", copies, st.CopiesLaunched)
	}
	// Each task that got a copy produced exactly one killed attempt.
	if kills != st.CopiesLaunched {
		t.Errorf("kills = %d, want %d (one loser per duplicated task)", kills, st.CopiesLaunched)
	}
	// Summaries agree.
	sums := trace.Summarize(events)
	if len(sums) != 1 || sums[0].Attempts != len(events) {
		t.Errorf("summary mismatch: %+v", sums)
	}
}

func TestReconciliationReleasesSurplusReservations(t *testing.T) {
	// A 2-phase job with a shrinking, unknown-parallelism transition
	// (map 4 -> reduce 1): Case 1 reserves all four slots at the
	// barrier; reconciliation must release the three the reduce phase
	// cannot use, letting the backlogged competitor in.
	e := newEnv(t, 1, 4, Options{Mode: ModeSSR, SSR: core.DefaultConfig()})
	j := chain(t, 1, "shrink", 10, []dag.PhaseSpec{
		{Durations: durations(2, 2, 2, 2)},
		{Durations: durations(10)},
	})
	bg := chain(t, 2, "bg", 1, []dag.PhaseSpec{{Durations: durations(3, 3, 3)}})
	e.mustSubmit(t, j, bg)
	e.mustRun(t)
	// Barrier at t=2; reduce keeps one slot (2-12); the other three go
	// to bg immediately: bg JCT = 5.
	if got := e.jct(t, 2); got != sec(5) {
		t.Errorf("bg JCT = %v, want 5s (surplus reservations released at the barrier)", got)
	}
	if got := e.jct(t, 1); got != sec(12) {
		t.Errorf("fg JCT = %v, want 12s", got)
	}
	e.checkClean(t)
}

func TestReconciliationKeepsSlotsForMitigation(t *testing.T) {
	// Same shape, but with straggler mitigation the surplus reserved
	// slots stay as mitigators.
	cfg := core.DefaultConfig()
	cfg.MitigateStragglers = true
	e := newEnv(t, 1, 4, Options{Mode: ModeSSR, SSR: cfg})
	j, err := dag.Chain(1, "shrink", 10, []dag.PhaseSpec{
		{Durations: durations(2, 2, 2, 2)},
		{Durations: durations(10), CopyDurations: durations(1)},
	})
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	bg := chain(t, 2, "bg", 1, []dag.PhaseSpec{{Durations: durations(3, 3, 3)}})
	e.mustSubmit(t, j, bg)
	e.mustRun(t)
	// The reduce task starts at 2; reserved slots cover it, so a warm
	// copy launches immediately (1s): phase done at 3.
	if got := e.jct(t, 1); got != sec(3) {
		t.Errorf("fg JCT = %v, want 3s (reserved slots mitigated the reduce task)", got)
	}
	st, _ := e.d.Result(1)
	if st.CopiesWon != 1 {
		t.Errorf("CopiesWon = %d, want 1", st.CopiesWon)
	}
	e.checkClean(t)
}

func TestStaticSentinelSurvivesFullRun(t *testing.T) {
	// After a run with many jobs, the static partition is re-fenced.
	e := newEnv(t, 2, 2, Options{
		Mode:              ModeStatic,
		StaticSlots:       2,
		StaticMinPriority: 5,
	})
	for i := 1; i <= 6; i++ {
		prio := dag.Priority(1)
		if i%2 == 0 {
			prio = 7
		}
		e.mustSubmit(t, chain(t, dag.JobID(i), "j", prio, []dag.PhaseSpec{
			{Durations: durations(1, 2)},
		}))
	}
	e.mustRun(t)
	e.checkClean(t)
	for s := cluster.SlotID(0); s < 2; s++ {
		res, ok := e.cl.Slot(s).Reservation()
		if !ok || res.Job != StaticJobID {
			t.Errorf("slot %d not re-fenced: %+v/%v", s, res, ok)
		}
	}
}

func TestTimeoutExpiryIgnoresStaleTimers(t *testing.T) {
	// A slot whose timeout reservation is consumed and re-reserved must
	// not be released by the first (stale) expiry timer.
	e := newEnv(t, 1, 1, Options{Mode: ModeTimeout, Timeout: sec(3)})
	// Job a: two-phase chain; phase 0 task finishes at t=1 (reserve
	// until 4), phase 1 task runs 1-2 (consuming it) and re-reserves
	// until 5. A competitor must not get the slot at t=4.
	a := chain(t, 1, "a", 5, []dag.PhaseSpec{
		{Durations: durations(1)},
		{Durations: durations(1)},
		{Durations: durations(2.5)},
	})
	b := chain(t, 2, "b", 5, []dag.PhaseSpec{{Durations: durations(5)}},
		dag.WithSubmit(sec(1.5)))
	e.mustSubmit(t, a, b)
	e.mustRun(t)
	// a runs 0-1, 1-2, 2-4.5 back to back on the single slot (each
	// barrier bridged by a fresh timeout reservation; the stale t=4
	// timer from the first reservation must not hand the slot to b at
	// any point mid-run).
	if got := e.jct(t, 1); got != sec(4.5) {
		t.Errorf("a JCT = %v, want 4.5s", got)
	}
	if got := e.jct(t, 2); got != sec(8) {
		t.Errorf("b JCT = %v, want 8s (runs 4.5-9.5 after a completes)", got)
	}
	e.checkClean(t)
}

func TestWaiterSkipsForeignPartitionSlot(t *testing.T) {
	// Two narrow phases of different jobs wait on overlapping slots; a
	// freed slot must go to the waiter whose partition actually lives
	// there, not just any waiter.
	e := newEnv(t, 1, 2, Options{Mode: ModeNone, LocalityWait: sec(30), LocalityFactor: 5})
	// Job a runs phase 0 on slots 0,1; its phase 1 tasks pin to them.
	a := chain(t, 1, "a", 5, []dag.PhaseSpec{
		{Durations: durations(2, 2)},
		{Durations: durations(1, 1)},
	})
	e.mustSubmit(t, a)
	e.mustRun(t)
	st, _ := e.d.Result(1)
	// With a 30s locality wait and an otherwise empty cluster, both
	// phase-1 tasks are placed through the waiter path the moment their
	// own slots free: all placements local.
	if st.AnyPlacements != 0 {
		t.Errorf("AnyPlacements = %d, want 0", st.AnyPlacements)
	}
	if got := e.jct(t, 1); got != sec(3) {
		t.Errorf("JCT = %v, want 3s", got)
	}
}
