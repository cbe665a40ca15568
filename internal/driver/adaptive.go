package driver

import (
	"time"

	"ssr/internal/estimate"
	"ssr/internal/obs"
)

// AdaptiveSSR closes the SSR control loop: the driver feeds it every
// finished task attempt, every submitted phase and every armed deadline's
// outcome (all from inside engine events, on the virtual clock — never
// wall time, so offline replays with an estimator attached stay exactly
// reproducible), and reads back estimator-derived Eq. 3 knobs and copy
// budgets. *estimate.Registry is the production implementation; tests
// stub it. A nil Options.Adaptive leaves every decision on static
// configuration, bit-identical to builds without the hook.
type AdaptiveSSR interface {
	// ObserveTask feeds one completed attempt's service time; the
	// returned Adaptation (ok true) describes a re-fit it triggered.
	ObserveTask(tenant, class string, dur time.Duration) (estimate.Adaptation, bool)
	// ObservePhase feeds one submitted phase's degree of parallelism.
	ObservePhase(tenant, class string, parallelism int)
	// ObserveOutcome feeds one armed deadline's outcome (expired before
	// the barrier or held through it), anchored at the job's configured
	// isolation target.
	ObserveOutcome(tenant, class string, targetP float64, expired bool)
	// Knobs returns the estimator-derived alpha and effective P for the
	// class; ok false (no accepted fit yet) keeps the caller on static
	// configuration.
	Knobs(tenant, class string, targetP float64) (estimate.Knobs, bool)
	// CopyBudget caps concurrent straggler-mitigation copies for one
	// phase of the class given its ongoing task count; 0 forbids copies.
	CopyBudget(tenant, class string, ongoing int) int
}

var _ AdaptiveSSR = (*estimate.Registry)(nil)

// Deadline-knob provenance recorded in AuditEvent.Src.
const (
	// SrcStatic marks knobs taken from static configuration.
	SrcStatic = "static"
	// SrcEstimated marks knobs re-derived from estimator snapshots.
	SrcEstimated = "estimated"
)

// observeFinish feeds one finished attempt into the estimator and turns a
// triggered re-fit into a typed adapt audit event (old -> new knobs,
// window stats, accept/reject reason).
func (d *Driver) observeFinish(jr *jobRun, dur time.Duration) {
	ad := d.opts.Adaptive
	if ad == nil {
		return
	}
	rec, refit := ad.ObserveTask(jr.job.Tenant, jr.class, dur)
	if !refit {
		return
	}
	d.emit(&obs.AuditEvent{Kind: obs.KindAdapt, Job: int64(jr.job.ID),
		JobName: jr.job.Name, Slot: -1, Src: rec.Reason, Class: rec.Class,
		Count: rec.Window, KS: rec.KS,
		Alpha: rec.NewAlpha, P: rec.NewP, TmSec: rec.NewTmSec,
		OldAlpha: rec.OldAlpha, OldP: rec.OldP})
}

// observeOutcome reports an armed deadline's outcome for the job's class.
func (d *Driver) observeOutcome(jr *jobRun, expired bool) {
	if ad := d.opts.Adaptive; ad != nil {
		ad.ObserveOutcome(jr.job.Tenant, jr.class, jr.ssrCfg.IsolationP, expired)
	}
}

// deadlineKnobs resolves the Eq. 3 knobs for arming a phase's deadline:
// the estimator's accepted fit when one exists, else the job's static
// config. src attributes the choice in the deadline audit event ("" when
// no estimator is attached, keeping pre-adaptive audit bytes unchanged).
func (d *Driver) deadlineKnobs(jr *jobRun) (p, alpha float64, src string) {
	p, alpha = jr.ssrCfg.IsolationP, jr.ssrCfg.Alpha
	ad := d.opts.Adaptive
	if ad == nil || !jr.ssrCfg.Enabled {
		return p, alpha, ""
	}
	if k, ok := ad.Knobs(jr.job.Tenant, jr.class, p); ok {
		return k.P, k.Alpha, SrcEstimated
	}
	return p, alpha, SrcStatic
}
