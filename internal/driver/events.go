package driver

import (
	"ssr/internal/dag"
	"ssr/internal/sim"
)

// Progress is a point-in-time snapshot of one job's execution state, safe
// to take between simulation events (the online service layer polls it).
type Progress struct {
	// Job identifies the job.
	Job dag.JobID
	// PhasesDone and NumPhases report barrier progress.
	PhasesDone int
	NumPhases  int
	// RunningSlots is the number of busy slots the job currently holds
	// (originals plus speculative copies).
	RunningSlots int
	// ReservedIdle is the number of idle slots reserved for the job.
	ReservedIdle int
	// Finished reports the job reached a terminal state; Failed
	// distinguishes aborts from completions.
	Finished bool
	Failed   bool
	// Phases describes each submitted-but-incomplete phase.
	Phases []PhaseProgress
}

// PhaseProgress describes one in-flight phase.
type PhaseProgress struct {
	// ID is the phase's index within the job.
	ID int
	// TasksDone and Tasks report task progress.
	TasksDone int
	Tasks     int
	// Running is the number of attempts currently executing.
	Running int
	// DeadlineAt is the virtual time the phase's reservation deadline
	// expires, or a negative value when no deadline is armed.
	DeadlineAt sim.Time
}

// Progress reports a job's current execution state; ok is false for unknown
// job IDs.
func (d *Driver) Progress(id dag.JobID) (Progress, bool) {
	jr, ok := d.jobsByID[id]
	if !ok {
		return Progress{}, false
	}
	p := Progress{
		Job:          id,
		PhasesDone:   jr.phasesDone,
		NumPhases:    jr.job.NumPhases(),
		RunningSlots: jr.running,
		ReservedIdle: d.cl.ReservedCount(id),
		Finished:     jr.finished,
		Failed:       jr.stats.Failed,
	}
	for _, pr := range jr.phases {
		if pr == nil || pr.tracker.Done() {
			continue
		}
		pp := PhaseProgress{
			ID:         pr.phase.ID,
			TasksDone:  pr.done,
			Tasks:      len(pr.tasks),
			Running:    pr.runningTasks,
			DeadlineAt: -1,
		}
		if pr.deadlineTimer != nil && pr.deadlineTimer.Live() {
			pp.DeadlineAt = pr.deadlineTimer.At()
		}
		p.Phases = append(p.Phases, pp)
	}
	return p, true
}
