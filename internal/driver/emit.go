package driver

import (
	"fmt"

	"ssr/internal/cluster"
	"ssr/internal/dag"
	"ssr/internal/obs"
	"ssr/internal/sim"
)

// This file is the driver's one exit: every decision and lifecycle
// transition leaves through emit, and only this file touches the stream's
// consumers (Options.Audit, Options.Metrics, Options.OnEvent). All of it is
// passive — consuming an event never changes a scheduling decision — and
// timestamped from the virtual clock, so offline runs stay bit-identical
// with consumers attached.

// resInfo remembers one live reservation for attribution on its closing
// transition (the cluster clears the slot's reservation record before the
// listener fires on Reserved->X).
type resInfo struct {
	at    sim.Time
	job   dag.JobID
	phase int
}

// observed reports whether any consumer is attached to the stream.
func (d *Driver) observed() bool {
	return d.opts.Audit != nil || d.opts.Metrics != nil || d.opts.OnEvent != nil
}

// emit stamps the virtual time, the shard and (for decision kinds, when
// unset) the owning job's tenant on ev and hands it by pointer, in order,
// to the audit ring, the metrics bundle and the OnEvent hook. Consumers run
// synchronously inside the simulation event, must not retain the pointer
// and must not re-enter the driver. OnEvent reads a driver-owned copy, so
// callers' events never escape to the heap. Lifecycle events carry their
// tenant from construction.
func (d *Driver) emit(ev *obs.AuditEvent) {
	if !d.observed() {
		return
	}
	ev.Time = d.eng.Now()
	ev.Shard = d.opts.AuditShard
	if ev.Tenant == "" && ev.Job > 0 && !ev.Kind.Lifecycle() {
		if jr := d.jobsByID[dag.JobID(ev.Job)]; jr != nil {
			ev.Tenant = jr.job.Tenant
		}
	}
	if d.opts.Audit != nil {
		d.opts.Audit.Observe(ev)
	}
	if d.opts.Metrics != nil {
		d.opts.Metrics.Observe(ev)
	}
	if d.opts.OnEvent != nil {
		d.ev = *ev
		d.opts.OnEvent(&d.ev)
	}
}

// jobEvent emits a job or phase lifecycle transition (phase 0 for job
// kinds); elapsed is a finished phase's duration.
func (d *Driver) jobEvent(kind obs.Kind, jr *jobRun, phase int, elapsed sim.Time) {
	d.emit(&obs.AuditEvent{Kind: kind, Job: int64(jr.job.ID), JobName: jr.job.Name,
		Tenant: jr.job.Tenant, Phase: phase, Slot: -1, Elapsed: elapsed})
}

// attemptEvent emits an attempt lifecycle transition. Elapsed is the
// task's queue wait since its phase was submitted on attempt_start and the
// attempt's run time afterwards; src marks a kill's cause (obs.SrcPreempt
// or "").
func (d *Driver) attemptEvent(kind obs.Kind, att *attempt, src string) {
	jr, since := att.pr.jr, att.start
	if kind == obs.KindAttemptStart {
		since = att.pr.start
	}
	d.emit(&obs.AuditEvent{Kind: kind, Job: int64(jr.job.ID), JobName: jr.job.Name,
		Tenant: jr.job.Tenant, Phase: att.pr.phase.ID, Task: att.taskIdx, Slot: int(att.slot),
		Copy: att.isCopy, Local: att.local, Src: src, Elapsed: d.eng.Now() - since})
}

// auditJobName resolves a job's name for audit events; the static-fence
// sentinel reads "static".
func (d *Driver) auditJobName(id dag.JobID) string {
	if id == StaticJobID {
		return "static"
	}
	if jr := d.jobsByID[id]; jr != nil {
		return jr.job.Name
	}
	return ""
}

// watchSlots subscribes the stream to the cluster's slot transitions
// behind the usage integrator, when any consumer is attached.
func (d *Driver) watchSlots() {
	ul := d.usage.Listener()
	if !d.observed() {
		d.cl.SetListener(ul)
		return
	}
	d.resAt = make(map[cluster.SlotID]resInfo)
	d.cl.SetListener(func(id cluster.SlotID, from, to cluster.SlotState) {
		ul(id, from, to)
		d.onSlotTransition(id, from, to)
	})
}

// fenceStatic reserves the ModeStatic partition at construction. The
// fences reach the audit ring and the metrics but not OnEvent, whose
// subscribers (the service bus among them) see the stream from New's
// return on: a static slot shows up there only when a recovery re-fences
// it.
func (d *Driver) fenceStatic() error {
	onEvent := d.opts.OnEvent
	d.opts.OnEvent = nil
	defer func() { d.opts.OnEvent = onEvent }()
	for i := 0; i < d.opts.StaticSlots; i++ {
		res := cluster.Reservation{Job: StaticJobID, Priority: d.opts.StaticMinPriority - 1}
		if err := d.cl.Reserve(cluster.SlotID(i), res); err != nil {
			return fmt.Errorf("driver: static reservation: %w", err)
		}
	}
	return nil
}

// onSlotTransition observes every cluster state change: reservation spans
// open on ->Reserved (where the slot's reservation record is still
// readable) and close on Reserved->, carrying the hold time. It runs after
// the usage integrator's listener.
func (d *Driver) onSlotTransition(id cluster.SlotID, from, to cluster.SlotState) {
	now := d.eng.Now()
	if to == cluster.Reserved {
		ri := resInfo{at: now, job: StaticJobID}
		if res, ok := d.cl.Slot(id).Reservation(); ok {
			ri.job, ri.phase = res.Job, res.Phase
		}
		d.resAt[id] = ri
		kind := obs.KindReserve
		if from == cluster.Free {
			kind = obs.KindPreReserve
		}
		d.emit(&obs.AuditEvent{Kind: kind, Job: int64(ri.job),
			JobName: d.auditJobName(ri.job), Phase: ri.phase, Slot: int(id)})
		return
	}
	if from != cluster.Reserved {
		return
	}
	ri, ok := d.resAt[id]
	if !ok {
		return
	}
	delete(d.resAt, id)
	kind := obs.KindUnreserve
	switch to {
	case cluster.Busy:
		kind = obs.KindReserveConsumed
	case cluster.Failed:
		kind = obs.KindReserveVoided
	}
	d.emit(&obs.AuditEvent{Kind: kind, Job: int64(ri.job), JobName: d.auditJobName(ri.job),
		Phase: ri.phase, Slot: int(id), Elapsed: now - ri.at})
}

// auditRelease records an Algorithm 1 Release decision.
func (d *Driver) auditRelease(pr *phaseRun, slot cluster.SlotID) {
	d.emit(&obs.AuditEvent{Kind: obs.KindRelease, Job: int64(pr.jr.job.ID),
		JobName: pr.jr.job.Name, Phase: pr.phase.ID, Slot: int(slot)})
}

// loanEvent records n loans granted to, or going home from, a job's phase
// (phase -1 when the loans span phases).
func (d *Driver) loanEvent(kind obs.Kind, jr *jobRun, phase, n int) {
	d.emit(&obs.AuditEvent{Kind: kind, Job: int64(jr.job.ID),
		JobName: jr.job.Name, Phase: phase, Slot: -1, Count: n})
}

// updateNodeGauges refreshes the node lifecycle gauges from cluster state
// after a transition. Node counts also move on FailNode and RecoverNode,
// which emit no node event, so the gauges read the cluster rather than
// the stream.
func (d *Driver) updateNodeGauges() {
	m := d.opts.Metrics
	if m == nil {
		return
	}
	m.NodesDraining.Set(float64(d.cl.CountNodes(cluster.NodeDraining)))
	m.NodesDown.Set(float64(d.cl.CountNodes(cluster.NodeDown)))
}
