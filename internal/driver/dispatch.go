package driver

import (
	"sort"

	"ssr/internal/cluster"
	"ssr/internal/dag"
)

// scheduleDispatch coalesces dispatch requests raised during the current
// event into a single dispatch pass at the same virtual instant. This is
// also where resource offers are batched: every slot freed or reserved
// during the current event is served by one dispatch sweep instead of a
// per-slot probe. The timer and its callback are recycled (AtArg with a
// long-lived func, Release after firing), so steady-state stepping
// allocates nothing here.
func (d *Driver) scheduleDispatch() {
	if d.dispatchScheduled {
		return
	}
	d.dispatchScheduled = true
	d.dispatchTimer = d.eng.AtArg(d.eng.Now(), d.dispatchTick, nil)
}

// dispatch is the TaskSchedulerImpl role: match queued tasks (and
// pre-reservation requests) to available slots until nothing more can be
// placed. The loop terminates because every iteration either consumes a
// slot or exits:
//
//   - pre-reservers outranking the best queued item capture free slots;
//   - the best queued item is served from preferred / own-reserved / free
//     / override slots;
//   - if the best item cannot be served there are no free slots left, and
//     only jobs holding their own reservations can still place — handled
//     by a sweep over the jobs that both hold reservations and have a
//     phase in the queue.
func (d *Driver) dispatch() {
	for {
		it := d.opts.Queue.Best()
		if it == nil {
			d.servePreReservers(nil)
			break
		}
		pr, ok := it.(*phaseRun)
		if !ok {
			panic("driver: foreign item in scheduling queue")
		}
		prio := pr.Priority()
		d.servePreReservers(&prio)
		if !d.serveOne(pr) {
			break
		}
	}
	// Jobs holding reservations can place their queued tasks regardless
	// of queue order; sweep them so a blocked high-priority head of the
	// queue cannot starve them. Only a job with a phase in the queue has a
	// placeable phase, so the sweep visits the intersection of the
	// cluster's reservation holders with the queued-job index, both
	// ascending by job ID (see DESIGN.md, "Dispatch indexes"). The snapshot
	// (placements below mutate both sets) goes into a reused scratch buffer
	// so steady-state sweeps allocate nothing.
	d.sweepJobs = d.appendSweepJobs(d.sweepJobs[:0])
	for _, jr := range d.sweepJobs {
		if jr.finished {
			continue
		}
		jobID := jr.job.ID
		for _, pr := range jr.phases {
			if pr == nil {
				continue
			}
			for pr.placeable() {
				slot, ok := d.cl.AcquireReservedFor(jobID, pr.demand)
				if !ok {
					break
				}
				idx, local, ok := pr.nextTaskIdxFor(slot)
				if !ok {
					d.mustReserve(slot, cluster.Reservation{
						Job: jobID, Priority: jr.job.Priority, Phase: pr.phase.ID,
					})
					break
				}
				d.assign(pr, idx, slot, local)
			}
		}
	}
}

// appendSweepJobs appends to buf, ascending by job ID, every job that holds
// idle reservations and has a phase in the scheduling queue: the sorted
// merge of the cluster's reservation holders with queuedJobs.
func (d *Driver) appendSweepJobs(buf []*jobRun) []*jobRun {
	q := d.queuedJobs
	n := d.cl.NumReservedJobs()
	for i, j := 0, 0; i < n && j < len(q); {
		held, queued := d.cl.ReservedJobAt(i), q[j].id
		switch {
		case held < queued:
			i++
		case held > queued:
			j++
		default:
			buf = append(buf, q[j].jr)
			i++
			j++
		}
	}
	return buf
}

// serveOne places one task of pr, trying placement sources from best to
// worst: preferred slots, the job's own reserved slots, free slots, then
// overriding a lower-priority reservation. It reports whether a task was
// placed.
func (d *Driver) serveOne(pr *phaseRun) bool {
	job := pr.jr.job
	// Preferred slots first (locality-constrained tasks).
	if pr.queuedConstrained() > 0 {
		for _, s := range pr.preferred {
			if hasLocal(pr, s) && d.cl.TryAcquire(s, job.ID, job.Priority, pr.demand) {
				idx, ok := pr.takeConstrainedFor(s)
				if !ok {
					break
				}
				d.assign(pr, idx, s, true)
				return true
			}
		}
	}
	// The job's own reserved slots.
	if slot, ok := d.cl.AcquireReservedFor(job.ID, pr.demand); ok {
		if idx, local, ok := pr.nextTaskIdxFor(slot); ok {
			d.assign(pr, idx, slot, local)
			return true
		}
		// No placeable task after all (only constrained tasks still in
		// their locality wait): re-reserve and bail.
		d.mustReserve(slot, cluster.Reservation{
			Job: job.ID, Priority: job.Priority, Phase: pr.phase.ID,
		})
		return false
	}
	// Any free slot.
	if slot, ok := d.cl.AcquireFree(pr.demand); ok {
		if idx, local, ok := pr.nextTaskIdxFor(slot); ok {
			d.assign(pr, idx, slot, local)
			return true
		}
		if err := d.cl.Release(slot); err != nil {
			panic("driver: release of just-acquired slot failed: " + err.Error())
		}
		return false
	}
	// Override a strictly lower-priority reservation.
	if slot, ok := d.cl.AcquireOverride(job.Priority, pr.demand); ok {
		if idx, local, ok := pr.nextTaskIdxFor(slot); ok {
			d.assign(pr, idx, slot, local)
			return true
		}
		if err := d.cl.Release(slot); err != nil {
			panic("driver: release of just-acquired slot failed: " + err.Error())
		}
		return false
	}
	// Last resort: a slot borrowed from a sibling shard, at the locality
	// penalty for constrained tasks.
	return d.serveLoan(pr)
}

// servePreReservers lets phases with outstanding pre-reservation quota
// capture free slots. When minPrio is non-nil only phases with a strictly
// higher priority capture (a queued equal-priority task beats a
// pre-reservation); with nil every pre-reserver is served.
func (d *Driver) servePreReservers(minPrio *dag.Priority) {
	if len(d.preReservers) == 0 {
		return
	}
	// The slice is kept sorted by addPreReserver (the sort key — priority
	// desc, then job and phase asc for determinism — is static per
	// phase), so serving is a single in-order sweep with no per-dispatch
	// sort. Entries whose quota was zeroed (dropPreReserver marks, this
	// sweep prunes) fall out here.
	kept := d.preReservers[:0]
	for _, pr := range d.preReservers {
		if pr.preWant > 0 && (minPrio == nil || pr.Priority() > *minPrio) {
			res := cluster.Reservation{
				Job:      pr.jr.job.ID,
				Priority: pr.jr.job.Priority,
				Phase:    pr.phase.ID,
			}
			for pr.preWant > 0 {
				slot, ok := d.cl.ReserveAnyFree(res, pr.preSize())
				if !ok {
					break
				}
				pr.preWant--
				d.notifyWaiters(slot)
			}
			// The home pool is exhausted but quota remains: past
			// threshold R the downstream demand may be covered by
			// sibling shards (cross-shard pre-reservation).
			d.requestLoan(pr)
		}
		if pr.preWant > 0 {
			kept = append(kept, pr)
		} else {
			pr.inPreReservers = false
		}
	}
	// Zero dangling tail pointers for GC.
	for i := len(kept); i < len(d.preReservers); i++ {
		d.preReservers[i] = nil
	}
	d.preReservers = kept
}

// preReserverLess is the static total order of the pre-reserver list:
// highest priority first, ties by job then phase. Every key is fixed for
// the lifetime of a phase, so the list stays sorted under insertion alone.
func preReserverLess(a, b *phaseRun) bool {
	if a.Priority() != b.Priority() {
		return a.Priority() > b.Priority()
	}
	if a.JobID() != b.JobID() {
		return a.JobID() < b.JobID()
	}
	return a.PhaseID() < b.PhaseID()
}

// addPreReserver registers a phase with outstanding pre-reservation quota,
// inserting it at its sorted position. A phase already in the list (even
// one marked for pruning whose quota was re-granted before the sweep ran)
// is left where it is.
func (d *Driver) addPreReserver(pr *phaseRun) {
	if pr.inPreReservers || pr.preWant <= 0 {
		return
	}
	pr.inPreReservers = true
	i := sort.Search(len(d.preReservers), func(i int) bool {
		return preReserverLess(pr, d.preReservers[i])
	})
	d.preReservers = append(d.preReservers, nil)
	copy(d.preReservers[i+1:], d.preReservers[i:])
	d.preReservers[i] = pr
}

// dropPreReserver cancels a phase's outstanding quota (its barrier cleared
// or the job finished). The list entry is only marked dead here — zero
// quota — and physically pruned by the next servePreReservers sweep, so
// dropping is O(1) and safe against callers holding an iteration over the
// list.
func (d *Driver) dropPreReserver(pr *phaseRun) {
	pr.preWant = 0
}

// notifyWaiters offers a slot that just became Free or Reserved to phases
// still inside their locality wait that prefer this very slot. The
// highest-priority eligible waiter wins; stale entries are pruned.
func (d *Driver) notifyWaiters(slot cluster.SlotID) {
	ws := d.waiters[slot]
	if len(ws) == 0 {
		return
	}
	kept := ws[:0]
	for _, pr := range ws {
		if pr.localityOpen || pr.queuedConstrained() == 0 || pr.jr.finished {
			continue // stale: no longer waiting on preferred slots
		}
		kept = append(kept, pr)
	}
	for i := len(kept); i < len(ws); i++ {
		ws[i] = nil
	}
	if len(kept) == 0 {
		delete(d.waiters, slot)
		return
	}
	d.waiters[slot] = kept

	best := -1
	for i := range kept {
		if !hasLocal(kept[i], slot) {
			continue
		}
		if best < 0 || kept[i].Priority() > kept[best].Priority() {
			best = i
		}
	}
	if best < 0 {
		return
	}
	pr := kept[best]
	job := pr.jr.job
	if hasLocal(pr, slot) && d.cl.TryAcquire(slot, job.ID, job.Priority, pr.demand) {
		if idx, ok := pr.takeConstrainedFor(slot); ok {
			d.assign(pr, idx, slot, true)
		} else if err := d.cl.Release(slot); err != nil {
			panic("driver: release of just-acquired slot failed: " + err.Error())
		}
	}
}

// mustReserve reserves a slot, panicking on state-machine violations that
// would indicate a driver bug.
func (d *Driver) mustReserve(slot cluster.SlotID, res cluster.Reservation) {
	if err := d.cl.Reserve(slot, res); err != nil {
		panic("driver: reserve failed: " + err.Error())
	}
	d.notifyWaiters(slot)
}

// mustRelease releases a slot, panicking on state-machine violations.
func (d *Driver) mustRelease(slot cluster.SlotID) {
	if err := d.cl.Release(slot); err != nil {
		panic("driver: release failed: " + err.Error())
	}
	d.notifyWaiters(slot)
}
