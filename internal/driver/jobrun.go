package driver

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/estimate"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/sched"
	"ssr/internal/sim"
)

// jobRun is the runtime state of one submitted job (DAGScheduler role).
type jobRun struct {
	d   *Driver
	job *dag.Job

	phases     []*phaseRun // indexed by phase ID; nil until the phase is ready
	depsLeft   []int
	phasesDone int
	running    int // busy slots currently held (originals + copies)
	finished   bool
	// queued counts the job's phases in the scheduling queue; the job is
	// in Driver.queuedJobs exactly while it is positive.
	queued int
	// borrowed counts idle cross-shard loans held by the job (granted by
	// Options.Lender, not yet consumed by a task or returned).
	borrowed int
	// ssrCfg is the job's effective SSR config, resolved once at
	// submission: mode + ReserveMinPriority gate + per-tenant override.
	ssrCfg core.Config
	// class is the job's estimator class (estimate.ClassOf of its name),
	// resolved once at submission; "" when no estimator is attached.
	class string
	// remaining approximates the job's remaining serial work (sum of
	// base durations of not-yet-finished tasks); the DAGPS queue orders
	// on it.
	remaining time.Duration

	stats metrics.JobStats
}

func newJobRun(d *Driver, job *dag.Job) *jobRun {
	jr := &jobRun{
		d:        d,
		job:      job,
		phases:   make([]*phaseRun, job.NumPhases()),
		depsLeft: make([]int, job.NumPhases()),
	}
	for _, p := range job.Phases() {
		jr.depsLeft[p.ID] = len(p.Deps)
	}
	cfg := d.ssrConfig()
	if job.Priority < d.opts.ReserveMinPriority {
		cfg = core.Disabled()
	} else if cfg.Enabled && d.opts.TenantSSR != nil {
		cfg = d.opts.TenantSSR(job.Tenant, cfg)
	}
	jr.ssrCfg = cfg
	if d.opts.Adaptive != nil {
		jr.class = estimate.ClassOf(job.Name)
	}
	jr.remaining = job.SerialWork()
	jr.stats = metrics.JobStats{Job: job, Submit: job.Submit}
	return jr
}

// activate fires at the job's submission time. A job aborted before its
// arrival (an online drain can do that) stays dead.
func (jr *jobRun) activate() {
	if jr.finished {
		return
	}
	jr.d.jobEvent(obs.KindJobStart, jr, 0, 0)
	for _, root := range jr.job.Roots() {
		jr.d.submitPhase(jr, root)
	}
	jr.d.scheduleDispatch()
}

// taskState tracks one task's attempts within a phase.
type taskState struct {
	done bool
	orig *attempt
	dup  *attempt
	// failures counts attempts lost to node failures; at
	// Options.Retry.MaxAttempts the job is aborted.
	failures int
}

// attempt is one execution of a task (original or speculative copy) on a
// slot. A remote attempt runs on a slot borrowed from a sibling shard:
// slot is NoSlot (it is not in the home cluster), and loan identifies the
// checked-out slot at the lender.
type attempt struct {
	pr      *phaseRun
	taskIdx int
	isCopy  bool
	local   bool
	slot    cluster.SlotID
	start   sim.Time
	timer   *sim.Timer
	remote  bool
	loan    LoanID
}

// newAttempt takes an attempt from the driver's free list (or allocates
// one) and resets it to the given state. The hot path recycles attempts
// through freeAttempt, so steady-state task launches allocate nothing.
func (d *Driver) newAttempt(a attempt) *attempt {
	if n := len(d.attFree); n > 0 {
		att := d.attFree[n-1]
		d.attFree[n-1] = nil
		d.attFree = d.attFree[:n-1]
		*att = a
		return att
	}
	att := new(attempt)
	*att = a
	return att
}

// freeAttempt recycles an attempt after its task completed. The caller
// must already have dropped every reference: the task's orig/dup slots,
// slotOwner, and the timer's callback argument (cleared by the engine on
// fire or cancel). The timer handle itself is released to the engine's
// free list on the way. Fault-path kills do not recycle — those attempts
// are simply left to the garbage collector, keeping the invariant simple:
// only onFinish frees.
func (d *Driver) freeAttempt(att *attempt) {
	d.eng.Release(att.timer)
	*att = attempt{}
	d.attFree = append(d.attFree, att)
}

// phaseRun is the runtime state of one phase (TaskSetManager role). It
// implements sched.Item so the scheduling queue can order it.
type phaseRun struct {
	jr    *jobRun
	phase *dag.Phase

	tracker *core.PhaseTracker
	start   sim.Time
	// demand is the slot capacity each task of this phase needs;
	// downDemand is the largest demand among direct downstream phases
	// (what a reserved slot must fit to be worth holding, Sec. III-C).
	demand     int
	downDemand int

	// Wide (shuffle-like) dependency: tasks with index below
	// constrained prefer any of the upstream slots; the rest run
	// anywhere at full speed.
	preferred   []cluster.SlotID
	prefSet     map[cluster.SlotID]bool
	constrained int

	// Narrow (one-to-one) dependency: task i prefers exactly the slot
	// that produced upstream partition i (iterative jobs updating a
	// cached RDD — the paper's Fig. 3a). All tasks are constrained.
	narrow     bool
	taskPref   []cluster.SlotID
	prefBySlot map[cluster.SlotID][]int
	pending    []bool
	consLeft   int
	anyScan    int

	// consQ/freeQ hold not-yet-started task indices of a wide phase;
	// heads advance as tasks are placed.
	consQ, consHead int
	freeQ, freeHead int

	tasks        []taskState
	runningTasks int
	done         int

	// retryQ holds task indices whose attempts were killed by a node
	// failure and whose backoff has elapsed; they are re-placed by the
	// general dispatch loop ahead of first-time tasks.
	retryQ []int

	localityOpen  bool
	localityTimer *sim.Timer
	deadlineTimer *sim.Timer
	specTimer     *sim.Timer
	doneDurations []time.Duration

	inQueue        bool
	preWant        int
	inPreReservers bool
	// loanPending marks an asynchronous Borrow in flight for this phase,
	// so dispatch does not issue duplicate requests.
	loanPending bool
}

var _ sched.Item = (*phaseRun)(nil)

// JobID implements sched.Item.
func (pr *phaseRun) JobID() dag.JobID { return pr.jr.job.ID }

// PhaseID implements sched.Item.
func (pr *phaseRun) PhaseID() int { return pr.phase.ID }

// Priority implements sched.Item.
func (pr *phaseRun) Priority() dag.Priority { return pr.jr.job.Priority }

// ReadyTime implements sched.Item.
func (pr *phaseRun) ReadyTime() time.Duration { return pr.start }

// JobRunning implements sched.Item.
func (pr *phaseRun) JobRunning() int { return pr.jr.running }

// RemainingWork reports the owning job's remaining serial work (DAGPS
// queue ordering).
func (pr *phaseRun) RemainingWork() time.Duration { return pr.jr.remaining }

// TaskDemand reports the per-task slot demand (packing queue ordering).
func (pr *phaseRun) TaskDemand() int { return pr.demand }

// preSize returns the slot capacity a pre-reservation for this phase's
// downstream computation must have.
func (pr *phaseRun) preSize() int {
	if pr.downDemand > 0 {
		return pr.downDemand
	}
	return 1
}

// queuedConstrained returns the number of unplaced locality-constrained
// tasks.
func (pr *phaseRun) queuedConstrained() int {
	if pr.narrow {
		return pr.consLeft
	}
	return pr.consQ - pr.consHead
}

// queuedFree returns the number of unplaced unconstrained tasks.
func (pr *phaseRun) queuedFree() int { return pr.freeQ - pr.freeHead }

// queuedRetry returns the number of fault-killed tasks awaiting
// re-dispatch (backoff elapsed).
func (pr *phaseRun) queuedRetry() int { return len(pr.retryQ) }

// queued returns the total number of unplaced tasks.
func (pr *phaseRun) queued() int {
	return pr.queuedConstrained() + pr.queuedFree() + pr.queuedRetry()
}

// isConstrained reports whether task idx has a locality preference.
func (pr *phaseRun) isConstrained(idx int) bool {
	if pr.narrow {
		return true
	}
	return idx < pr.constrained
}

// placeable reports whether the phase currently has a task the general
// dispatch loop may place on an arbitrary slot. Aborted jobs place
// nothing. Retries are immediately placeable: their locality wait was
// spent on the first attempt, and their preferred slots may be gone.
func (pr *phaseRun) placeable() bool {
	if pr.jr.finished {
		return false
	}
	return pr.queuedRetry() > 0 || pr.queuedFree() > 0 ||
		(pr.localityOpen && pr.queuedConstrained() > 0)
}

// popNarrow consumes pending narrow task idx.
func (pr *phaseRun) popNarrow(idx int) {
	pr.pending[idx] = false
	pr.consLeft--
}

// nextTaskIdxFor pops the next task index for a placement onto an
// already-acquired arbitrary slot, and reports whether the placement honors
// the task's data locality. Unconstrained tasks go first; constrained ones
// follow once the locality wait is over, preferring a task whose partition
// lives on this very slot.
func (pr *phaseRun) nextTaskIdxFor(slot cluster.SlotID) (int, bool, bool) {
	if len(pr.retryQ) > 0 {
		idx := pr.retryQ[0]
		pr.retryQ = pr.retryQ[1:]
		return idx, !pr.isConstrained(idx) || pr.localTo(idx, slot), true
	}
	if pr.queuedFree() > 0 {
		idx := pr.constrained + pr.freeHead
		pr.freeHead++
		return idx, true, true
	}
	if !pr.localityOpen || pr.queuedConstrained() == 0 {
		return 0, false, false
	}
	if pr.narrow {
		// A pending task local to this slot wins; otherwise pop the
		// next pending task (remote).
		for _, idx := range pr.prefBySlot[slot] {
			if pr.pending[idx] {
				pr.popNarrow(idx)
				return idx, true, true
			}
		}
		for ; pr.anyScan < len(pr.pending); pr.anyScan++ {
			if pr.pending[pr.anyScan] {
				idx := pr.anyScan
				pr.popNarrow(idx)
				return idx, false, true
			}
		}
		return 0, false, false
	}
	idx := pr.consHead
	pr.consHead++
	return idx, pr.prefSet[slot], true
}

// localTo reports whether placing task idx on slot honors its data
// locality (for retried tasks, whose preference may have been evicted by
// the failure that killed them).
func (pr *phaseRun) localTo(idx int, slot cluster.SlotID) bool {
	if pr.narrow {
		return pr.taskPref[idx] == slot
	}
	return pr.prefSet[slot]
}

// takeConstrainedFor pops a constrained task that is local to the given
// slot, for the preferred-slot placement paths. It reports false when no
// pending constrained task treats the slot as local.
func (pr *phaseRun) takeConstrainedFor(slot cluster.SlotID) (int, bool) {
	if pr.narrow {
		for _, idx := range pr.prefBySlot[slot] {
			if pr.pending[idx] {
				pr.popNarrow(idx)
				return idx, true
			}
		}
		return 0, false
	}
	if pr.queuedConstrained() > 0 && pr.prefSet[slot] {
		idx := pr.consHead
		pr.consHead++
		return idx, true
	}
	return 0, false
}

// submitPhase makes a phase's task set schedulable (the barrier upstream of
// it has cleared, or it is a root phase of a newly submitted job).
func (d *Driver) submitPhase(jr *jobRun, pid int) {
	job := jr.job
	phase := job.Phase(pid)
	m := phase.Parallelism()

	n := core.UnknownParallelism
	if job.ParallelismKnown {
		n = job.DownstreamParallelism(pid)
	}
	tracker, err := core.NewPhaseTracker(jr.ssrCfg, m, n, job.IsFinal(pid))
	if err != nil {
		// Options and job were validated up front; a failure here is
		// a programming error worth surfacing loudly in simulation.
		panic(fmt.Sprintf("driver: phase tracker for job %d phase %d: %v", job.ID, pid, err))
	}

	pr := &phaseRun{
		jr:      jr,
		phase:   phase,
		tracker: tracker,
		start:   d.eng.Now(),
		tasks:   make([]taskState, m),
		demand:  phase.Demand,
	}
	for _, child := range job.Children(pid) {
		if cd := job.Phase(child).Demand; cd > pr.downDemand {
			pr.downDemand = cd
		}
	}
	taskPref, narrowOK := d.loc.NarrowPrefs(job, pid)
	for _, s := range taskPref {
		if s == cluster.NoSlot {
			// An upstream partition produced on a borrowed sibling slot
			// has no home placement; fall back to the wide-preference
			// path, which skips unrecorded slots.
			narrowOK = false
			break
		}
	}
	if narrowOK {
		pr.narrow = true
		pr.taskPref = taskPref
		pr.prefBySlot = make(map[cluster.SlotID][]int, m)
		pr.pending = make([]bool, m)
		// Collect preferred in task order, not by ranging the map: the
		// slice drives slot visit order downstream (placePreferred, the
		// waiter lists), and map iteration order would make per-slot
		// assignment — and everything observing it — vary across runs.
		for idx, s := range taskPref {
			if _, seen := pr.prefBySlot[s]; !seen {
				pr.preferred = append(pr.preferred, s)
			}
			pr.prefBySlot[s] = append(pr.prefBySlot[s], idx)
			pr.pending[idx] = true
		}
		pr.consLeft = m
	} else {
		pr.preferred = d.loc.PreferredSlots(job, pid)
		pr.constrained = len(pr.preferred)
		if pr.constrained > m {
			pr.constrained = m
		}
		if pr.constrained > 0 {
			pr.prefSet = make(map[cluster.SlotID]bool, len(pr.preferred))
			for _, s := range pr.preferred {
				pr.prefSet[s] = true
			}
		}
		pr.consQ = pr.constrained
		pr.freeQ = m - pr.constrained
	}
	pr.localityOpen = pr.queuedConstrained() == 0
	jr.phases[pid] = pr
	d.jobEvent(obs.KindPhaseStart, jr, pid, 0)
	if ad := d.opts.Adaptive; ad != nil {
		ad.ObservePhase(jr.job.Tenant, jr.class, m)
	}

	if !pr.localityOpen {
		for _, s := range pr.preferred {
			d.waiters[s] = append(d.waiters[s], pr)
		}
		pr.localityTimer = d.eng.AfterArg(d.opts.LocalityWait, d.openLocalityArg, pr)
		// Constrained tasks may start immediately on preferred slots
		// that are idle (typically the job's own reserved slots).
		d.placePreferred(pr)
	}
	d.syncQueue(pr)
	d.startSpeculation(pr)
	// A phase fully placed at submission with surplus reserved slots
	// left over (a shrinking transition under Case 1's n = m guess)
	// satisfies the mitigation trigger immediately.
	if pr.queued() == 0 {
		d.maybeMitigate(pr)
	}
}

// openLocality ends the phase's locality wait: constrained tasks accept any
// slot (at the locality penalty) from now on.
func (d *Driver) openLocality(pr *phaseRun) {
	pr.localityOpen = true
	d.eng.Release(pr.localityTimer)
	pr.localityTimer = nil
	d.syncQueue(pr)
	d.scheduleDispatch()
}

// syncQueue adds or removes the phase from the scheduling queue according
// to whether it has arbitrary-slot-placeable work. It is the only place a
// phase enters or leaves the queue, so it also keeps the job's queued-phase
// count and the driver's queued-job index in step.
func (d *Driver) syncQueue(pr *phaseRun) {
	jr := pr.jr
	if pr.placeable() && !pr.inQueue {
		pr.inQueue = true
		d.opts.Queue.Add(pr)
		if jr.queued++; jr.queued == 1 {
			d.queuedJobs = slices.Insert(d.queuedJobs, d.queuedJobIndex(jr.job.ID), queuedJob{id: jr.job.ID, jr: jr})
		}
	} else if !pr.placeable() && pr.inQueue {
		pr.inQueue = false
		d.opts.Queue.Remove(pr)
		if jr.queued--; jr.queued == 0 {
			i := d.queuedJobIndex(jr.job.ID)
			d.queuedJobs = slices.Delete(d.queuedJobs, i, i+1)
		}
	}
}

// queuedJobIndex returns the position of job in queuedJobs, or where it
// would be inserted.
func (d *Driver) queuedJobIndex(job dag.JobID) int {
	return sort.Search(len(d.queuedJobs), func(i int) bool { return d.queuedJobs[i].id >= job })
}

// placePreferred assigns constrained tasks to currently takeable preferred
// slots (free, reserved for this job, or reserved at lower priority). For
// narrow phases each slot serves the task(s) whose partitions it holds;
// for wide phases any preferred slot serves any constrained task.
func (d *Driver) placePreferred(pr *phaseRun) {
	job := pr.jr.job
	for _, s := range pr.preferred {
		if pr.queuedConstrained() == 0 {
			return
		}
		for hasLocal(pr, s) && d.cl.TryAcquire(s, job.ID, job.Priority, pr.demand) {
			idx, ok := pr.takeConstrainedFor(s)
			if !ok {
				// Unreachable: hasLocal guarded it. Put the slot back.
				if err := d.cl.Release(s); err != nil {
					panic(fmt.Sprintf("driver: release: %v", err))
				}
				return
			}
			d.assign(pr, idx, s, true)
		}
	}
}

// hasLocal reports whether the phase has a pending constrained task local
// to the given slot.
func hasLocal(pr *phaseRun, slot cluster.SlotID) bool {
	if pr.narrow {
		for _, idx := range pr.prefBySlot[slot] {
			if pr.pending[idx] {
				return true
			}
		}
		return false
	}
	return pr.queuedConstrained() > 0 && pr.prefSet[slot]
}

// scaleDur divides a service time by the hosting node's speed factor
// (heterogeneous slots: a speed-2 node runs tasks twice as fast). On a
// homogeneous cluster SpeedOf's nil-table fast path makes this a
// branch-predictable no-op.
func (d *Driver) scaleDur(dur time.Duration, slot cluster.SlotID) time.Duration {
	if sp := d.cl.SpeedOf(d.cl.Slot(slot).Node); sp != 1 {
		return time.Duration(float64(dur) / sp)
	}
	return dur
}

// assign starts the original attempt of task idx on an already-acquired
// (Busy) slot. local reports whether the placement honors the task's data
// locality.
func (d *Driver) assign(pr *phaseRun, idx int, slot cluster.SlotID, local bool) {
	jr := pr.jr
	task := pr.phase.Tasks[idx]
	dur := task.Duration
	constrained := pr.isConstrained(idx)
	if d.opts.ForceRemote && constrained {
		local = false
	}
	if constrained && !local {
		dur = time.Duration(float64(dur) * d.opts.LocalityFactor)
		jr.stats.AnyPlacements++
	} else {
		jr.stats.LocalPlacements++
	}
	att := d.newAttempt(attempt{pr: pr, taskIdx: idx, local: local || !constrained, slot: slot, start: d.eng.Now()})
	att.timer = d.eng.AfterArg(d.scaleDur(dur, slot), d.onFinishArg, att)
	pr.tasks[idx].orig = att
	d.slotOwner[slot] = att
	pr.runningTasks++
	jr.running++
	d.attemptEvent(obs.KindAttemptStart, att, "")
	d.recordTimeline(jr)
	d.syncQueue(pr)
}

// launchCopy starts a speculative copy of task idx on a reserved slot the
// cluster just handed us (already Busy). Copies always run at the base copy
// duration: the reserved slot executed this phase's tasks moments ago, so
// its JVM is warm and the shuffle inputs are equally remote either way
// (Sec. IV-C's interference-free property).
func (d *Driver) launchCopy(pr *phaseRun, idx int, slot cluster.SlotID) {
	jr := pr.jr
	task := pr.phase.Tasks[idx]
	att := d.newAttempt(attempt{pr: pr, taskIdx: idx, isCopy: true, local: true, slot: slot, start: d.eng.Now()})
	att.timer = d.eng.AfterArg(d.scaleDur(task.CopyDuration, slot), d.onFinishArg, att)
	pr.tasks[idx].dup = att
	d.slotOwner[slot] = att
	jr.running++
	jr.stats.CopiesLaunched++
	d.emit(&obs.AuditEvent{Kind: obs.KindCopyLaunch, Job: int64(jr.job.ID),
		JobName: jr.job.Name, Phase: pr.phase.ID, Task: idx, Slot: int(slot)})
	d.attemptEvent(obs.KindAttemptStart, att, "")
	d.recordTimeline(jr)
}
