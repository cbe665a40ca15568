package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"ssr/internal/dag"
	"ssr/internal/estimate"
	"ssr/internal/stats"
)

// The adaptive experiment closes the Eq. 3 loop: a stream of identical
// two-phase jobs whose true task-duration tail α is NOT what the operator
// configured — either wrong from the start (stale prior) or shifting at
// the midpoint of the run (drift) — scheduled once with the static knobs
// and once with streaming estimators (driver.Options.Adaptive) re-deriving
// α and P from observed durations. The paper's deadline is only as good as
// its tail estimate: a too-optimistic α yields deadlines that expire on
// most phases (isolation collapses below the configured P), while a
// too-pessimistic α holds reservations far longer than needed (reserved-
// idle waste). The adaptive run should recover the isolation target after
// the estimator's window flushes the stale samples.

// adaptiveScenario is one misconfigured-prior/drift setting: jobs before
// the midpoint draw task durations from Pareto(preAlpha), jobs after it
// from Pareto(postAlpha), while static SSR computes deadlines with
// cfgAlpha throughout.
type adaptiveScenario struct {
	name                string
	cfgAlpha            float64
	preAlpha, postAlpha float64
}

var adaptiveScenarios = []adaptiveScenario{
	// Tail gets heavier mid-run: static deadlines become far too short
	// and expire on ~3/4 of phases.
	{name: "drift-down", cfgAlpha: 2.5, preAlpha: 2.5, postAlpha: 1.2},
	// Operator's prior was wrong from the first job; same failure mode,
	// but the estimator never has correct samples to unlearn.
	{name: "stale-prior", cfgAlpha: 2.5, preAlpha: 1.2, postAlpha: 1.2},
	// Tail gets lighter mid-run: both modes hold the target (a pessimistic
	// prior only over-reserves), but the estimator tracks the true tail
	// (est-alpha column) where static keeps its ~9x-too-long deadlines.
	{name: "drift-up", cfgAlpha: 1.3, preAlpha: 1.3, postAlpha: 2.8},
}

const (
	// adaptiveP is the configured isolation target for every cell.
	adaptiveP = 0.9
	// adaptiveWide/adaptiveJoin are the two phase widths; the wide phase
	// is the n of Eq. 3, the join keeps the job two-phase so the wide
	// phase is non-final and arms exactly one deadline per job.
	adaptiveWide = 16
	adaptiveJoin = 4
	// adaptiveXm is the Pareto scale (xm) of task durations, seconds.
	adaptiveXm = 2.0
)

func adaptiveJobCount(s Scale) int {
	if s == Quick {
		return 64
	}
	return 128
}

func adaptiveRuns(s Scale) int {
	if s == Quick {
		return 1
	}
	return 3
}

// adaptiveJob builds one two-phase fork/join job ("par-<i>", one shared
// estimator class "par") with every task duration drawn from
// Pareto(alpha, adaptiveXm).
func adaptiveJob(id int, alpha float64, submit time.Duration, rng *rand.Rand) (*dag.Job, error) {
	dist := stats.Pareto{Alpha: alpha, Xm: adaptiveXm}
	draw := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(dist.Sample(rng) * float64(time.Second))
		}
		return out
	}
	return dag.NewJob(dag.JobID(id), fmt.Sprintf("par-%d", id), fgPriority,
		[]dag.PhaseSpec{
			{Durations: draw(adaptiveWide)},
			{Durations: draw(adaptiveJoin), Deps: []int{0}},
		},
		dag.WithSubmit(submit), dag.WithKnownParallelism())
}

// adaptiveRow is one (scenario, mode, seed) cell outcome.
type adaptiveRow struct {
	scenario, mode string
	// isolation is the fraction of last-quarter jobs whose deadline held
	// (no expiry) — the empirical counterpart of the configured P.
	isolation float64
	// expired/measured count the last-quarter deadlines behind isolation.
	expired, measured int
	// reservedFrac is reserved-idle slot-time over capacity for the whole
	// run: the over-reservation cost of a too-pessimistic α.
	reservedFrac float64
	// estAlpha is the estimator's final fitted tail (0 for static cells).
	estAlpha float64
}

func adaptiveOne(sc adaptiveScenario, adaptive bool, seed int64, scale Scale, obsc *Collector) (adaptiveRow, error) {
	mode := "static"
	opts := ssrOpts()
	opts.SSR.IsolationP = adaptiveP
	opts.SSR.Alpha = sc.cfgAlpha
	var est *estimate.Registry
	if adaptive {
		mode = "adaptive"
		// A smaller-than-default window so the estimator relearns within
		// ~10 post-drift jobs (each job contributes 20 task durations).
		est = estimate.New(estimate.Config{Window: 192, MinSamples: 48, RefitEvery: 16})
		opts.Adaptive = est
	}
	opts = obsc.Instrument(fmt.Sprintf("adaptive/%s/%s", sc.name, mode), opts)

	n := adaptiveJobCount(scale)
	jobs := make([]*dag.Job, n)
	for i := range jobs {
		alpha := sc.preAlpha
		if i >= n/2 {
			alpha = sc.postAlpha
		}
		j, err := adaptiveJob(i+1, alpha, time.Duration(i)*20*time.Second,
			stats.SubStream(seed, "adaptive-job", i))
		if err != nil {
			return adaptiveRow{}, err
		}
		jobs[i] = j
	}
	// 96 slots: wide phases of neighbouring jobs overlap without queueing,
	// so expiries measure deadline quality, not contention.
	res, err := runSim(48, 2, opts, jobs)
	if err != nil {
		return adaptiveRow{}, err
	}
	row := adaptiveRow{scenario: sc.name, mode: mode}
	// Measure the last quarter: far enough past the midpoint drift that a
	// 192-sample window holds only post-drift durations.
	for _, j := range jobs[n-n/4:] {
		row.measured++
		if res.stats[j.ID].DeadlineExpiries > 0 {
			row.expired++
		}
	}
	row.isolation = 1 - float64(row.expired)/float64(row.measured)
	row.reservedFrac = res.drv.Usage().ReservedFraction(res.makespan)
	if est != nil {
		for _, cs := range est.Snapshot() {
			if cs.Class == "par" {
				row.estAlpha = cs.Alpha
			}
		}
	}
	return row, nil
}

// adaptiveExperiment sweeps scenario x {static, adaptive} x seeds. The
// headline comparison is drift-down isolation: static holds ~0.1 of its
// deadlines after the tail shifts under it, adaptive recovers to the
// configured P = 0.9 once its window flushes.
func adaptiveExperiment() Experiment {
	cells := func(p Params) ([]Cell, error) {
		seeds := runSeeds(p.Seed, adaptiveRuns(p.Scale))
		var cells []Cell
		for _, sc := range adaptiveScenarios {
			for _, adaptive := range []bool{false, true} {
				sc, adaptive := sc, adaptive
				for r, seed := range seeds {
					seed := seed
					mode := "static"
					if adaptive {
						mode = "adaptive"
					}
					cells = append(cells, Cell{
						Key: fmt.Sprintf("adaptive/%s/%s/run%d", sc.name, mode, r+1),
						Run: func() (any, error) {
							return adaptiveOne(sc, adaptive, seed, p.Scale, p.Obs)
						},
					})
				}
			}
		}
		return cells, nil
	}
	assemble := func(p Params, values []any) (*Result, error) {
		res := NewResult("Adaptive SSR vs static priors under tail drift (configured P = 0.9, last-quarter deadlines)",
			Column{"scenario", KindString}, Column{"mode", KindString},
			Column{"isolation", KindFloat2}, Column{"deadlines held", KindString},
			Column{"reserved-idle", KindPercent}, Column{"est alpha", KindFloat2})
		runs := adaptiveRuns(p.Scale)
		cur := cursor{values: values}
		for range adaptiveScenarios {
			for range []bool{false, true} {
				var acc adaptiveRow
				for r := 0; r < runs; r++ {
					row := cur.next().(adaptiveRow)
					acc.scenario, acc.mode = row.scenario, row.mode
					acc.isolation += row.isolation / float64(runs)
					acc.reservedFrac += row.reservedFrac / float64(runs)
					acc.estAlpha += row.estAlpha / float64(runs)
					acc.expired += row.expired
					acc.measured += row.measured
				}
				res.AddRow(acc.scenario, acc.mode, acc.isolation,
					fmt.Sprintf("%d/%d", acc.measured-acc.expired, acc.measured),
					acc.reservedFrac, acc.estAlpha)
				res.Metrics[acc.mode+"-isolation-"+acc.scenario] = acc.isolation
				res.Metrics[acc.mode+"-reserved-"+acc.scenario] = acc.reservedFrac
			}
		}
		return res, nil
	}
	return Define("adaptive", "adaptive Eq. 3 knobs vs static priors under tail drift", cells, assemble)
}
