package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"ssr/internal/dag"
	"ssr/internal/trace"
)

// The Perfetto exporter renders a run as Chrome trace-event JSON, loadable
// at ui.perfetto.dev or chrome://tracing. Processes are shards, threads are
// slots: task attempts become "X" complete events on their slot's track,
// reservation intervals (reconstructed from the audit stream's
// slot-transition kinds) and cross-shard loans become nestable async "b"/"e"
// spans, and deadline decisions become instant markers carrying their
// t_m/N/P/alpha inputs.

// perfEvent is one Chrome trace-event JSON object.
type perfEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds of virtual time
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoTrace is the top-level JSON object.
type perfettoTrace struct {
	TraceEvents     []perfEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// borrowedTid is the thread track hosting remote (borrowed-slot) attempts
// and loan spans; home slot s maps to tid s+1.
const borrowedTid = 0

func slotTid(slot int) int {
	if slot < 0 {
		return borrowedTid
	}
	return slot + 1
}

func usOf(d time.Duration) int64 { return d.Microseconds() }

// Tracer returns the trace recorder's filter over the driver's event
// stream: each finished or killed attempt becomes one trace.Event, and
// every other kind is ignored.
func Tracer(rec *trace.Recorder) func(*AuditEvent) {
	return func(ev *AuditEvent) {
		if ev.Kind != KindAttemptFinish && ev.Kind != KindAttemptKill {
			return
		}
		rec.Append(trace.Event{
			Job:     dag.JobID(ev.Job),
			JobName: ev.JobName,
			Phase:   ev.Phase,
			Task:    ev.Task,
			Slot:    ev.Slot,
			Copy:    ev.Copy,
			Local:   ev.Local,
			Killed:  ev.Kind == KindAttemptKill,
			Start:   ev.Time - ev.Elapsed,
			End:     ev.Time,
		})
	}
}

// Perfetto converts task attempts and an audit stream into Chrome
// trace-event JSON. attempts carry no shard tag, so their tracks land in
// process 0 — the offline single-driver case; audit events keep their own
// shard as the process. Either input may be empty.
func Perfetto(attempts []trace.Event, audit []AuditEvent) ([]byte, error) {
	var (
		events []perfEvent
		maxTs  int64
		// track names discovered along the way: pid -> tid -> seen
		tracks = map[int]map[int]bool{}
	)
	touch := func(pid, tid int) {
		if tracks[pid] == nil {
			tracks[pid] = map[int]bool{}
		}
		tracks[pid][tid] = true
	}
	bump := func(ts int64) {
		if ts > maxTs {
			maxTs = ts
		}
	}

	for _, ev := range attempts {
		cat := "task"
		if ev.Copy {
			cat = "copy"
		}
		name := ev.JobName
		if name == "" {
			name = fmt.Sprintf("job-%d", ev.Job)
		}
		pid, tid := 0, slotTid(ev.Slot)
		touch(pid, tid)
		ts, end := usOf(ev.Start), usOf(ev.End)
		bump(end)
		events = append(events, perfEvent{
			Name: fmt.Sprintf("%s p%d t%d", name, ev.Phase, ev.Task),
			Cat:  cat,
			Ph:   "X",
			Ts:   ts,
			Dur:  end - ts,
			Pid:  pid,
			Tid:  tid,
			Args: map[string]any{
				"job": ev.Job, "phase": ev.Phase, "task": ev.Task,
				"copy": ev.Copy, "local": ev.Local, "killed": ev.Killed,
			},
		})
	}

	// Reservation spans: pair each reserve/pre_reserve with the transition
	// that ends it on the same (shard, slot). Loan spans: FIFO-pair grants
	// with returns/finishes per shard.
	type openRes struct {
		ev AuditEvent
	}
	type resKey struct{ shard, slot int }
	openResv := map[resKey]openRes{}
	openLoans := map[int][]AuditEvent{} // shard -> granted, oldest first
	openDrains := map[resKey]AuditEvent{}
	spanSeq := 0

	asyncSpan := func(prefix, name, cat string, pid, tid int, from, to int64, args map[string]any) {
		id := fmt.Sprintf("%s%d", prefix, spanSeq)
		spanSeq++
		touch(pid, tid)
		events = append(events,
			perfEvent{Name: name, Cat: cat, Ph: "b", Ts: from, Pid: pid, Tid: tid, ID: id, Args: args},
			perfEvent{Name: name, Cat: cat, Ph: "e", Ts: to, Pid: pid, Tid: tid, ID: id},
		)
	}
	resName := func(ev AuditEvent) string {
		name := ev.JobName
		if name == "" {
			name = fmt.Sprintf("job-%d", ev.Job)
		}
		if ev.Kind == KindPreReserve {
			return "pre-reserve " + name
		}
		return "reserve " + name
	}
	closeRes := func(open AuditEvent, endedBy string, at int64) {
		asyncSpan("r", resName(open), "reservation", open.Shard, slotTid(open.Slot),
			usOf(open.Time), at, map[string]any{
				"job": open.Job, "phase": open.Phase, "slot": open.Slot,
				"pre": open.Kind == KindPreReserve, "endedBy": endedBy,
			})
	}

	for _, ev := range audit {
		ts := usOf(ev.Time)
		bump(ts)
		switch ev.Kind {
		case KindReserve, KindPreReserve:
			openResv[resKey{ev.Shard, ev.Slot}] = openRes{ev: ev}
		case KindReserveConsumed, KindUnreserve, KindReserveVoided:
			k := resKey{ev.Shard, ev.Slot}
			if open, ok := openResv[k]; ok {
				delete(openResv, k)
				closeRes(open.ev, ev.Kind.String(), ts)
			}
		case KindLoanGrant:
			for i := 0; i < ev.Count; i++ {
				openLoans[ev.Shard] = append(openLoans[ev.Shard], ev)
			}
		case KindLoanReturn, KindLoanFinish:
			n := ev.Count
			if ev.Kind == KindLoanFinish && n == 0 {
				n = 1
			}
			q := openLoans[ev.Shard]
			for ; n > 0 && len(q) > 0; n-- {
				g := q[0]
				q = q[1:]
				name := g.JobName
				if name == "" {
					name = fmt.Sprintf("job-%d", g.Job)
				}
				asyncSpan("l", "loan "+name, "lending", g.Shard, borrowedTid,
					usOf(g.Time), ts, map[string]any{
						"job": g.Job, "phase": g.Phase, "endedBy": ev.Kind.String(),
					})
			}
			openLoans[ev.Shard] = q
		case KindDrainStart:
			openDrains[resKey{ev.Shard, ev.Slot}] = ev
		case KindDrainEnd, KindUndrain:
			k := resKey{ev.Shard, ev.Slot}
			if open, ok := openDrains[k]; ok {
				delete(openDrains, k)
				asyncSpan("d", fmt.Sprintf("drain node %d", open.Slot), "lifecycle",
					open.Shard, borrowedTid, usOf(open.Time), ts, map[string]any{
						"node": open.Slot, "noticeMs": open.Count,
						"endedBy": ev.Kind.String(),
					})
			}
		case KindAttemptPreempt, KindReserveMigrate, KindNodeUp:
			name := "attempt preempted"
			args := map[string]any{"job": ev.Job, "phase": ev.Phase, "slot": ev.Slot}
			switch ev.Kind {
			case KindReserveMigrate:
				name = "reservation migrated"
				args["dest"] = ev.Count
			case KindNodeUp:
				name = "node up"
				args = map[string]any{"node": ev.Slot, "slots": ev.Count}
			}
			touch(ev.Shard, slotTid(-1))
			events = append(events, perfEvent{
				Name: name, Cat: "lifecycle", Ph: "i", Ts: ts,
				Pid: ev.Shard, Tid: slotTid(-1), Args: args,
			})
		case KindDeadlineArmed, KindDeadlineExpire:
			name := "deadline armed"
			args := map[string]any{"job": ev.Job, "phase": ev.Phase}
			if ev.Kind == KindDeadlineArmed {
				args["tmSec"] = ev.TmSec
				args["n"] = ev.N
				args["p"] = ev.P
				args["alpha"] = ev.Alpha
				args["deadlineSec"] = ev.DeadlineSec
				if ev.Src != "" {
					args["src"] = ev.Src
				}
			} else {
				name = "deadline expired"
			}
			touch(ev.Shard, slotTid(-1))
			events = append(events, perfEvent{
				Name: name, Cat: "deadline", Ph: "i", Ts: ts,
				Pid: ev.Shard, Tid: slotTid(-1), Args: args,
			})
		case KindAdapt:
			// Estimator state as Perfetto counter tracks: one alpha track
			// and one effective-P track per (tenant, class), stepping at
			// each re-fit, plus an instant marker carrying the full
			// old -> new record.
			cls := ev.Class
			if ev.Tenant != "" {
				cls = ev.Tenant + "/" + cls
			}
			touch(ev.Shard, slotTid(-1))
			events = append(events,
				perfEvent{Name: "estimator alpha " + cls, Cat: "estimator", Ph: "C",
					Ts: ts, Pid: ev.Shard, Args: map[string]any{"alpha": ev.Alpha}},
				perfEvent{Name: "estimator P " + cls, Cat: "estimator", Ph: "C",
					Ts: ts, Pid: ev.Shard, Args: map[string]any{"p": ev.P}},
				perfEvent{Name: "adapt " + cls, Cat: "estimator", Ph: "i", Ts: ts,
					Pid: ev.Shard, Tid: slotTid(-1), Args: map[string]any{
						"reason": ev.Src, "window": ev.Count, "ks": ev.KS,
						"oldAlpha": ev.OldAlpha, "alpha": ev.Alpha,
						"oldP": ev.OldP, "p": ev.P, "tmSec": ev.TmSec,
					}},
			)
		}
	}

	// Close any span still open at the end of the recorded window.
	openKeys := make([]resKey, 0, len(openResv))
	for k := range openResv { //maporder:ok keys collected then sorted below
		openKeys = append(openKeys, k)
	}
	sort.Slice(openKeys, func(i, j int) bool {
		if openKeys[i].shard != openKeys[j].shard {
			return openKeys[i].shard < openKeys[j].shard
		}
		return openKeys[i].slot < openKeys[j].slot
	})
	for _, k := range openKeys {
		closeRes(openResv[k].ev, "end_of_trace", maxTs)
	}
	drainKeys := make([]resKey, 0, len(openDrains))
	for k := range openDrains { //maporder:ok keys collected then sorted below
		drainKeys = append(drainKeys, k)
	}
	sort.Slice(drainKeys, func(i, j int) bool {
		if drainKeys[i].shard != drainKeys[j].shard {
			return drainKeys[i].shard < drainKeys[j].shard
		}
		return drainKeys[i].slot < drainKeys[j].slot
	})
	for _, k := range drainKeys {
		open := openDrains[k]
		asyncSpan("d", fmt.Sprintf("drain node %d", open.Slot), "lifecycle",
			open.Shard, borrowedTid, usOf(open.Time), maxTs, map[string]any{
				"node": open.Slot, "noticeMs": open.Count, "endedBy": "end_of_trace",
			})
	}
	loanShards := make([]int, 0, len(openLoans))
	for sh := range openLoans { //maporder:ok keys collected then sorted below
		loanShards = append(loanShards, sh)
	}
	sort.Ints(loanShards)
	for _, sh := range loanShards {
		for _, g := range openLoans[sh] {
			name := g.JobName
			if name == "" {
				name = fmt.Sprintf("job-%d", g.Job)
			}
			asyncSpan("l", "loan "+name, "lending", g.Shard, borrowedTid,
				usOf(g.Time), maxTs, map[string]any{
					"job": g.Job, "phase": g.Phase, "endedBy": "end_of_trace",
				})
		}
	}

	// Metadata: name the processes and threads so Perfetto's track labels
	// read "shard 0 / slot 3" instead of bare numbers.
	var meta []perfEvent
	pids := make([]int, 0, len(tracks))
	for pid := range tracks { //maporder:ok keys collected then sorted below
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		meta = append(meta, perfEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("shard %d", pid)},
		})
		tids := make([]int, 0, len(tracks[pid]))
		for tid := range tracks[pid] { //maporder:ok keys collected then sorted below
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		for _, tid := range tids {
			name := fmt.Sprintf("slot %d", tid-1)
			if tid == borrowedTid {
				name = "borrowed / control"
			}
			meta = append(meta, perfEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": name},
			})
		}
	}

	// Stable output: metadata first, then events by timestamp (ties keep
	// emission order).
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return json.MarshalIndent(perfettoTrace{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	}, "", " ")
}

// WritePerfetto renders the trace to w.
func WritePerfetto(w io.Writer, attempts []trace.Event, audit []AuditEvent) error {
	data, err := Perfetto(attempts, audit)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WritePerfettoFile renders the trace to path.
func WritePerfettoFile(path string, attempts []trace.Event, audit []AuditEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePerfetto(f, attempts, audit); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
