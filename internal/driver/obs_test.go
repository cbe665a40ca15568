package driver

import (
	"encoding/json"
	"testing"
	"unsafe"

	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/faults"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/trace"
)

// obsWorkload builds the 2-job SSR scenario the observability tests share:
// a foreground chain with a straggler (deadline arming, reservations,
// releases) against a backlogged background job.
func obsWorkload(t *testing.T) []*dag.Job {
	t.Helper()
	fg := chain(t, 1, "fg", 10, []dag.PhaseSpec{
		{Durations: durations(1, 1, 1, 30)},
		{Durations: durations(5, 5, 5, 5)},
	})
	bg := chain(t, 2, "bg", 1, []dag.PhaseSpec{
		{Durations: durations(20, 20, 20, 20, 20, 20, 20, 20)},
	})
	return []*dag.Job{fg, bg}
}

func runObsWorkload(t *testing.T, opts Options) *env {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.IsolationP = 0.9
	cfg.Alpha = 1.6
	opts.Mode = ModeSSR
	opts.SSR = cfg
	e := newEnv(t, 1, 4, opts)
	e.mustSubmit(t, obsWorkload(t)...)
	e.mustRun(t)
	return e
}

// stripJob zeroes the Job pointer so stats from two independent runs
// compare by value.
func stripJob(stats []metrics.JobStats) []metrics.JobStats {
	out := append([]metrics.JobStats(nil), stats...)
	for i := range out {
		out[i].Job = nil
	}
	return out
}

// TestObservabilityIsPassive is the determinism guarantee: the same
// workload, run with the full observability stack attached and with none,
// produces bit-identical scheduling outcomes.
func TestObservabilityIsPassive(t *testing.T) {
	bare := runObsWorkload(t, Options{})

	reg := obs.NewRegistry()
	rec := trace.NewRecorder()
	observed := runObsWorkload(t, Options{
		Audit:   obs.NewAudit(0),
		Metrics: obs.NewSchedMetrics(reg),
		OnEvent: obs.Tracer(rec),
	})

	if got, want := observed.d.Makespan(), bare.d.Makespan(); got != want {
		t.Errorf("makespan with obs = %v, without = %v", got, want)
	}
	a, b := stripJob(bare.d.Results()), stripJob(observed.d.Results())
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("per-job results diverge with observability attached:\nbare: %s\nobs:  %s", aj, bj)
	}
}

// TestAuditStreamContent checks the decision stream of an SSR run: virtual
// timestamps, deadline inputs, and reservation open/close balance.
func TestAuditStreamContent(t *testing.T) {
	audit := obs.NewAudit(0)
	reg := obs.NewRegistry()
	m := obs.NewSchedMetrics(reg)
	e := runObsWorkload(t, Options{Audit: audit, Metrics: m})
	e.checkClean(t)

	evs := audit.Events()
	if len(evs) == 0 {
		t.Fatal("no audit events from an SSR run")
	}
	counts := map[obs.Kind]int{}
	var lastSeq uint64
	for i, ev := range evs {
		counts[ev.Kind]++
		if i > 0 && ev.Seq != lastSeq+1 {
			t.Fatalf("audit seq gap at %d: %d after %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Time < 0 {
			t.Fatalf("audit event %d has negative virtual time %v", i, ev.Time)
		}
	}
	if counts[obs.KindReserve] == 0 {
		t.Error("no reserve decisions audited")
	}
	if counts[obs.KindRelease] == 0 {
		t.Error("no release decisions audited")
	}
	if counts[obs.KindDeadlineArmed] == 0 {
		t.Error("no deadline_armed events audited")
	}
	// Every reservation opened must close: the run ends clean.
	opened := counts[obs.KindReserve] + counts[obs.KindPreReserve]
	closed := counts[obs.KindReserveConsumed] + counts[obs.KindUnreserve] + counts[obs.KindReserveVoided]
	if opened != closed {
		t.Errorf("reservation open/close imbalance: %d opened, %d closed (%v)", opened, closed, counts)
	}
	for _, ev := range evs {
		if ev.Kind != obs.KindDeadlineArmed {
			continue
		}
		if ev.TmSec <= 0 || ev.N <= 0 || ev.P != 0.9 || ev.Alpha != 1.6 || ev.DeadlineSec <= 0 {
			t.Errorf("deadline_armed lost its inputs: %+v", ev)
		}
	}

	// The metrics counters must agree with the audit stream.
	if got := m.Reservations.Value(); got != float64(counts[obs.KindReserve]) {
		t.Errorf("Reservations counter = %v, audit saw %d", got, counts[obs.KindReserve])
	}
	if got := m.DeadlinesArmed.Value(); got != float64(counts[obs.KindDeadlineArmed]) {
		t.Errorf("DeadlinesArmed counter = %v, audit saw %d", got, counts[obs.KindDeadlineArmed])
	}
	if got := m.ReservationHold.Snapshot().Count; got != uint64(closed) {
		t.Errorf("ReservationHold observations = %d, want %d (one per closed reservation)", got, closed)
	}
	if m.QueueWait.Snapshot().Count == 0 {
		t.Error("no queue-wait observations")
	}
	if m.PhaseJCT.Snapshot().Count == 0 {
		t.Error("no phase-JCT observations")
	}
}

// TestPerfettoExport renders a 2-job SSR run to Chrome trace-event JSON and
// checks its structure: valid JSON, complete events for tasks, balanced
// async spans for reservations on a category of their own.
func TestPerfettoExport(t *testing.T) {
	audit := obs.NewAudit(0)
	rec := trace.NewRecorder()
	runObsWorkload(t, Options{Audit: audit, OnEvent: obs.Tracer(rec)})

	data, err := obs.Perfetto(rec.Events(), audit.Events())
	if err != nil {
		t.Fatalf("Perfetto: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	tasks, resvB, resvE, meta := 0, 0, 0, 0
	open := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && (ev.Cat == "task" || ev.Cat == "copy"):
			tasks++
			if ev.Cat == "reservation" {
				t.Error("task event carries reservation category")
			}
		case ev.Cat == "reservation" && ev.Ph == "b":
			resvB++
			if open[ev.ID] {
				t.Errorf("reservation span %s opened twice", ev.ID)
			}
			open[ev.ID] = true
		case ev.Cat == "reservation" && ev.Ph == "e":
			resvE++
			if !open[ev.ID] {
				t.Errorf("reservation span %s closed without opening", ev.ID)
			}
			delete(open, ev.ID)
		case ev.Ph == "M":
			meta++
		}
	}
	if tasks == 0 {
		t.Error("no task complete events")
	}
	if resvB == 0 {
		t.Error("no reservation spans")
	}
	if resvB != resvE || len(open) != 0 {
		t.Errorf("unbalanced reservation spans: %d begins, %d ends, %d left open", resvB, resvE, len(open))
	}
	if meta == 0 {
		t.Error("no track metadata events")
	}
}

// TestPerfettoDrainSpans renders a run with node drains and checks the
// exporter pairs drain start with undrain/down into balanced lifecycle
// spans on the control track, with preemptions as instant markers.
func TestPerfettoDrainSpans(t *testing.T) {
	audit := obs.NewAudit(0)
	cfg := core.DefaultConfig()
	e := newEnv(t, 2, 2, Options{Mode: ModeSSR, SSR: cfg, Audit: audit})
	e.mustSubmit(t, chain(t, 1, "j1", 5, []dag.PhaseSpec{
		{Durations: durations(10, 10, 10, 10)},
	}))
	faults.Script{
		{At: sec(1), Node: 0, Notice: sec(2)},
		{At: sec(2), Node: 0, Undrain: true},
		{At: sec(4), Node: 1, Notice: sec(1)},
	}.Install(e.d)
	e.mustRun(t)

	data, err := obs.Perfetto(nil, audit.Events())
	if err != nil {
		t.Fatalf("Perfetto: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	spansB, spansE, markers := 0, 0, 0
	open := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "lifecycle" {
			continue
		}
		switch ev.Ph {
		case "b":
			spansB++
			open[ev.ID] = true
		case "e":
			spansE++
			if !open[ev.ID] {
				t.Errorf("lifecycle span %s closed without opening", ev.ID)
			}
			delete(open, ev.ID)
		case "i":
			markers++
		}
	}
	if spansB != 2 || spansE != 2 {
		t.Errorf("drain spans b/e = %d/%d, want 2/2 (one undrained, one completed)", spansB, spansE)
	}
	if markers == 0 {
		t.Error("no lifecycle instant markers (preemptions) in trace")
	}
}

// TestEmitDoesNotAllocate pins the stream's cost: handing an event to the
// audit ring, the metrics bundle and an OnEvent hook copies it once into
// the driver and allocates nothing, and the event is at most 8 bytes
// larger than the 200-byte decision record it grew from.
func TestEmitDoesNotAllocate(t *testing.T) {
	if size := unsafe.Sizeof(obs.AuditEvent{}); size > 208 {
		t.Errorf("obs.AuditEvent is %d bytes, want at most 208", size)
	}
	e := newEnv(t, 1, 2, Options{
		Audit:   obs.NewAudit(4),
		Metrics: obs.NewSchedMetrics(obs.NewRegistry()),
		OnEvent: func(*obs.AuditEvent) {},
	})
	for _, kind := range []obs.Kind{obs.KindRelease, obs.KindReserveConsumed, obs.KindAttemptStart, obs.KindPhaseDone} {
		ev := obs.AuditEvent{Kind: kind, Job: 1, JobName: "j", Slot: 0}
		if n := testing.AllocsPerRun(100, func() { e.d.emit(&ev) }); n != 0 {
			t.Errorf("emit(%v) allocates %v times per event", kind, n)
		}
	}
}

// TestStaticFencesSkipOnEvent pins where OnEvent's stream starts: the
// ModeStatic fences set up inside New reach the audit ring but not
// OnEvent.
func TestStaticFencesSkipOnEvent(t *testing.T) {
	var events []obs.AuditEvent
	audit := obs.NewAudit(0)
	newEnv(t, 2, 2, Options{Mode: ModeStatic, StaticSlots: 3, Audit: audit, OnEvent: collect(&events)})
	if audit.Total() != 3 || len(events) != 0 {
		t.Errorf("fences: %d audited, %d on OnEvent; want 3 and 0", audit.Total(), len(events))
	}
}
