package shard

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/metrics"
	"ssr/internal/obs"
	"ssr/internal/sim"
)

// Federation is K shards behind one offline submission and run API.
type Federation struct {
	opts   Options
	shards []*Shard
	broker *Broker
	home   map[dag.JobID]*Shard
	// now is the global virtual instant of the event currently being
	// stepped; the broker stamps cross-shard releases with it so no
	// shard ever observes an effect earlier than its cause.
	now sim.Time
}

// New builds a federation of opts.Shards partitions.
func New(opts Options) (*Federation, error) {
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	f := &Federation{opts: o, home: make(map[dag.JobID]*Shard)}

	split := NodeSplit(o.Nodes, o.Shards)
	for i := 0; i < o.Shards; i++ {
		eng := sim.New()
		cl, err := cluster.New(split[i], o.SlotsPerNode)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		f.shards = append(f.shards, &Shard{Index: i, Eng: eng, Cl: cl})
	}

	lending := o.Shards > 1 && !o.Lending.Disabled
	if lending {
		peers := make([]Peer, o.Shards)
		for i, sh := range f.shards {
			sh := sh
			peers[i] = Peer{
				Cluster: sh.Cl,
				Call:    func(fn func()) error { fn(); return nil },
				At:      func(t sim.Time, fn func()) { sh.Eng.At(t, fn) },
				Now:     func() sim.Time { return f.now },
			}
		}
		f.broker = NewBroker(peers, o.Lending)
	}

	for i, sh := range f.shards {
		i, sh := i, sh
		dopts := o.Driver
		user := o.Driver.OnEvent
		dopts.OnEvent = func(ev *obs.AuditEvent) {
			switch ev.Kind {
			case obs.KindJobDone, obs.KindJobFail:
				sh.pending--
			case obs.KindDrainStart:
				// Idle loans checked out of the draining node go home
				// before the wire.
				if f.broker != nil {
					f.broker.RecallNode(i, ev.Slot, f.now)
				}
			}
			if user != nil {
				user(ev)
			}
		}
		if f.broker != nil {
			dopts.Lender = f.broker.Lender(i)
		}
		dopts.Audit = o.Audit
		dopts.AuditShard = i
		if o.Registry != nil {
			dopts.Metrics = obs.NewSchedMetrics(o.Registry,
				obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		}
		drv, err := driver.New(sh.Eng, sh.Cl, dopts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh.Drv = drv
		if f.broker != nil {
			f.broker.BindDriver(i, drv)
		}
	}
	return f, nil
}

// Shards returns the federation's partitions.
func (f *Federation) Shards() []*Shard { return f.shards }

// Broker returns the lending broker, or nil when lending is off (K = 1 or
// disabled).
func (f *Federation) Broker() *Broker { return f.broker }

// Home returns the shard index a job was routed to; -1 for unknown jobs.
func (f *Federation) Home(id dag.JobID) int {
	if sh := f.home[id]; sh != nil {
		return sh.Index
	}
	return -1
}

// loads snapshots every shard's occupancy for the router.
func (f *Federation) loads() []Load {
	out := make([]Load, len(f.shards))
	for i, sh := range f.shards {
		out[i] = Load{
			Slots:    sh.Cl.NumSlots(),
			Busy:     sh.Cl.CountState(cluster.Busy),
			Reserved: sh.Cl.CountState(cluster.Reserved),
			Pending:  sh.pending,
			Assigned: sh.assigned,
		}
	}
	return out
}

// Submit routes a job to a shard and registers it there. It returns the
// chosen shard index. Job IDs must be unique across the whole federation.
func (f *Federation) Submit(job *dag.Job) (int, error) {
	if _, dup := f.home[job.ID]; dup {
		return -1, fmt.Errorf("shard: duplicate job ID %d", job.ID)
	}
	idx := f.opts.Router.Pick(JobInfo{
		ID:             job.ID,
		Name:           job.Name,
		Priority:       job.Priority,
		MaxParallelism: job.MaxParallelism(),
		TotalTasks:     job.TotalTasks(),
		MaxDemand:      job.MaxDemand(),
		Tenant:         job.Tenant,
	}, f.loads())
	if idx < 0 || idx >= len(f.shards) {
		return -1, fmt.Errorf("shard: router %s picked out-of-range shard %d", f.opts.Router.Name(), idx)
	}
	sh := f.shards[idx]
	if err := sh.Drv.Submit(job); err != nil {
		return -1, err
	}
	f.home[job.ID] = sh
	sh.assigned++
	sh.pending++
	return idx, nil
}

// Step fires the globally earliest pending event across all shards (ties
// break toward the lowest shard index) and reports whether one fired. The
// strict global order makes multi-shard runs deterministic: every event
// executes at a global instant no earlier than any event before it, so a
// cross-shard effect (a loan grant or return) scheduled "now" can never
// rewind a sibling's clock.
func (f *Federation) Step() bool {
	best := -1
	var at sim.Time
	for i, sh := range f.shards {
		if t, ok := sh.Eng.NextAt(); ok && (best < 0 || t < at) {
			best, at = i, t
		}
	}
	if best < 0 {
		return false
	}
	f.now = at
	f.shards[best].Eng.Step()
	return true
}

// Run steps the federation until every engine drains, then verifies all
// submitted jobs reached a terminal state (mirroring driver.Run's check).
func (f *Federation) Run() error {
	for f.Step() {
	}
	for i, sh := range f.shards {
		if n := sh.Drv.Unfinished(); n > 0 {
			return fmt.Errorf("shard %d: %d jobs unfinished after event queues drained", i, n)
		}
	}
	// Pin every shard's usage integrals at its drained clock, mirroring
	// driver.Run (which the federation bypasses by stepping engines
	// directly).
	for _, sh := range f.shards {
		sh.Drv.Usage().Finish(sh.Eng.Now())
	}
	return nil
}

// Results returns per-job statistics across all shards, sorted by job ID.
func (f *Federation) Results() []metrics.JobStats {
	var out []metrics.JobStats
	for _, sh := range f.shards {
		out = append(out, sh.Drv.Results()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out
}

// Result returns the statistics of one job from its home shard.
func (f *Federation) Result(id dag.JobID) (metrics.JobStats, bool) {
	sh := f.home[id]
	if sh == nil {
		return metrics.JobStats{}, false
	}
	return sh.Drv.Result(id)
}

// Makespan returns the latest job finish across all shards.
func (f *Federation) Makespan() time.Duration {
	var m time.Duration
	for _, sh := range f.shards {
		if d := sh.Drv.Makespan(); d > m {
			m = d
		}
	}
	return m
}

// Utilization returns the federation-wide busy-slot-second fraction up to
// each shard's local horizon, weighted by shard capacity.
func (f *Federation) Utilization() float64 {
	var busy, total float64
	for _, sh := range f.shards {
		horizon := sh.Eng.Now()
		if horizon <= 0 {
			continue
		}
		busy += sh.Drv.Usage().BusyTime().Seconds()
		total += horizon.Seconds() * float64(sh.Cl.NumSlots())
	}
	if total == 0 {
		return 0
	}
	return busy / total
}
