// Package obs is the scheduler's observability layer: a typed decision
// audit stream, a metrics registry with Prometheus text exposition, and a
// Perfetto/Chrome trace-event exporter.
//
// Everything in this package is passive and deterministic: metrics and
// audit events are appended from inside simulation events, stamped with the
// virtual clock, and never feed back into scheduling. An offline run with
// observability attached is bit-identical to the same run without it.
// Writers use atomics so the online service can scrape a registry while K
// shard loops update it.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the shared fixed bucket layout (seconds) used by every
// duration histogram in the registry and by ssrload's client-side report,
// so load-test output and server metrics are directly comparable.
var LatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// LastObs is the most recent update of a counter or histogram series:
// the observed value (the increment, for counters) and a 1-based
// per-series update ordinal. The ordinal is deterministic — it counts
// this series' own updates, not a global clock — so replay output stays
// reproducible; scrapes compare it across polls to tell a live series
// from a stalled one (exemplar-style freshness without a second
// bookkeeping path).
type LastObs struct {
	Value float64 `json:"value"`
	Seq   uint64  `json:"seq"`
}

// lastObs tracks a series' most recent update with two atomics. Value and
// ordinal are not updated as one unit; a reader racing a writer may pair
// a value with the neighboring ordinal, which is fine for freshness
// reporting.
type lastObs struct {
	seq  atomic.Uint64
	bits atomic.Uint64
}

func (l *lastObs) record(v float64) {
	l.bits.Store(math.Float64bits(v))
	l.seq.Add(1)
}

func (l *lastObs) load() (LastObs, bool) {
	seq := l.seq.Load()
	if seq == 0 {
		return LastObs{}, false
	}
	return LastObs{Value: math.Float64frombits(l.bits.Load()), Seq: seq}, true
}

// Counter is a monotonically increasing float64.
type Counter struct {
	bits atomic.Uint64
	last lastObs
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0; negative deltas are dropped).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			c.last.record(v)
			return
		}
	}
}

// Last returns the counter's most recent increment and update ordinal;
// ok is false before the first Add.
func (c *Counter) Last() (LastObs, bool) {
	if c == nil {
		return LastObs{}, false
	}
	return c.last.load()
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: per-bucket counts plus sum and
// count, observable concurrently.
type Histogram struct {
	bounds  []float64       // ascending upper bounds, excluding +Inf
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
	last    lastObs
}

// NewHistogram creates a histogram over the given ascending upper bounds
// (the +Inf bucket is implicit). It is usable standalone or via a Registry.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			h.last.record(v)
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Last returns the histogram's most recent observation and update
// ordinal; ok is false before the first Observe.
func (h *Histogram) Last() (LastObs, bool) {
	if h == nil {
		return LastObs{}, false
	}
	return h.last.load()
}

// HistogramSnapshot is a point-in-time copy of a histogram. CumCounts are
// cumulative per bound in Prometheus le semantics; the final entry is the
// +Inf bucket and equals Count.
type HistogramSnapshot struct {
	Bounds    []float64 `json:"le"`
	CumCounts []uint64  `json:"cumulativeCounts"`
	Count     uint64    `json:"count"`
	Sum       float64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds:    append([]float64(nil), h.bounds...),
		CumCounts: make([]uint64, len(h.counts)),
		Count:     h.count.Load(),
		Sum:       math.Float64frombits(h.sumBits.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		snap.CumCounts[i] = cum
	}
	return snap
}

// Quantile estimates the value at probability p from the bucketed counts
// by linear interpolation inside the containing bucket (the
// histogram_quantile convention). Observations in the +Inf bucket clamp to
// the highest finite bound, and an empty snapshot returns 0. This is what
// lets long-running load generators report percentiles with O(buckets)
// memory instead of retaining every sample.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.CumCounts) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var i int
	for i = 0; i < len(s.CumCounts); i++ {
		if float64(s.CumCounts[i]) >= rank {
			break
		}
	}
	if i >= len(s.Bounds) {
		// +Inf bucket: no finite upper edge to interpolate toward.
		if len(s.Bounds) == 0 {
			return 0
		}
		return s.Bounds[len(s.Bounds)-1]
	}
	lo := 0.0
	var below uint64
	if i > 0 {
		lo = s.Bounds[i-1]
		below = s.CumCounts[i-1]
	}
	hi := s.Bounds[i]
	inBucket := s.CumCounts[i] - below
	if inBucket == 0 {
		return hi
	}
	frac := (rank - float64(below)) / float64(inBucket)
	if frac < 0 {
		frac = 0
	}
	return lo + (hi-lo)*frac
}

// Label is one metric dimension (e.g. shard="2").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labeled instance of a family.
type series struct {
	labels []Label
	key    string // canonical label rendering, also the sort key
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry holds metric families in registration order. Registration is
// idempotent: asking for an existing (name, labels) pair returns the same
// metric, so per-shard and federated components can share one registry.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var nameOK = func(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// labelKey renders labels in sorted-by-key canonical form.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register finds or creates the series for (name, labels); mismatched
// re-registration (same name, different kind) panics — a programming error.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *series {
	if !nameOK(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind, f.kind))
	}
	key := labelKey(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		f.series[key] = s
	}
	return s
}

// Counter finds or creates a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge finds or creates a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram finds or creates a histogram series over the given bounds. The
// bounds of an existing series are kept; callers of a shared registry must
// agree on them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// SeriesSnapshot is one labeled series in a registry snapshot. Value holds
// counter/gauge readings; Histogram is set for histogram series.
type SeriesSnapshot struct {
	Labels    []Label            `json:"labels,omitempty"`
	Value     float64            `json:"value"`
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
	// Last is the series' most recent update (counters and histograms);
	// absent for gauges and never-updated series.
	Last *LastObs `json:"last,omitempty"`
}

// FamilySnapshot is one metric family in a registry snapshot.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot copies the whole registry: families in registration order,
// series sorted by label key — a deterministic, JSON-friendly dump.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilySnapshot, 0, len(r.order))
	for _, name := range r.order {
		f := r.fams[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range sortedSeries(f) {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case kindCounter:
				ss.Value = s.ctr.Value()
				if last, ok := s.ctr.Last(); ok {
					ss.Last = &last
				}
			case kindGauge:
				ss.Value = s.gauge.Value()
			case kindHistogram:
				h := s.hist.Snapshot()
				ss.Histogram = &h
				if last, ok := s.hist.Last(); ok {
					ss.Last = &last
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

func sortedSeries(f *family) []*series {
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series { //maporder:ok collected then sorted by key below
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one line per sample,
// histograms as cumulative _bucket{le=...} plus _sum and _count. Output is
// deterministic: families in registration order, series sorted by labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range sortedSeries(f) {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, formatValue(s.ctr.Value()))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.key, formatValue(s.gauge.Value()))
			case kindHistogram:
				snap := s.hist.Snapshot()
				for i, bound := range snap.Bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
						withLE(s.labels, formatValue(bound)), snap.CumCounts[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					withLE(s.labels, "+Inf"), snap.Count)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.key, formatValue(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.key, snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLE renders labels plus an le bound for histogram bucket lines.
func withLE(labels []Label, le string) string {
	return labelKey(append(append([]Label(nil), labels...), Label{Key: "le", Value: le}))
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// SchedMetrics bundles the per-scheduler (per-shard) metric series folded
// from the driver's event stream: the paper's latency distributions plus
// decision counters. Create one per driver via NewSchedMetrics and hand it
// to driver.Options.Metrics; a nil *SchedMetrics disables collection.
type SchedMetrics struct {
	// QueueWait observes task-set submission to task placement, per task.
	QueueWait *Histogram
	// PhaseJCT observes phase-barrier latency: submission to last finish.
	PhaseJCT *Histogram
	// ReservationHold observes how long each reservation was held, from
	// reserve to consume, cancel or void.
	ReservationHold *Histogram
	// ReservedIdleLoss observes the hold time of reservations that were
	// never consumed — pure utilization loss (canceled or voided).
	ReservedIdleLoss *Histogram
	// LendRoundTrip observes loan grant to return/finish, on the
	// borrower's clock.
	LendRoundTrip *Histogram

	Reservations         *Counter // Algorithm 1 Reserve decisions (Busy -> Reserved)
	PreReservations      *Counter // pre-reservations at threshold R (Free -> Reserved)
	ReservationsConsumed *Counter // reservations used by a task (Reserved -> Busy)
	Unreserves           *Counter // reservations canceled idle (Reserved -> Free)
	Releases             *Counter // Algorithm 1 Release decisions (incl. first m-n)
	DeadlinesArmed       *Counter // deadlines D computed and armed
	DeadlinesExpired     *Counter // deadlines that fired before the barrier
	CopiesLaunched       *Counter // straggler copies launched on reserved slots
	CopiesWon            *Counter // copies that finished first
	CopiesKilled         *Counter // copies killed by their original finishing
	LoansGranted         *Counter // cross-shard loans granted to this scheduler
	LoansReturned        *Counter // loans sent home (idle returns and finishes)

	NodeDrains           *Counter // nodes put on preemption notice
	NodeUndrains         *Counter // preemption notices canceled
	NodeDrainsCompleted  *Counter // notice windows that closed (node went Down)
	NodeActivations      *Counter // nodes brought online by elastic pools
	AttemptsPreempted    *Counter // attempts killed by a closing notice window
	ReservationsMigrated *Counter // reservations moved off draining nodes
	NodesDraining        *Gauge   // nodes currently serving a notice
	NodesDown            *Gauge   // nodes currently down (failed or drained away)

	// loanGrants queues each job's outstanding loan grant times (oldest
	// first) so a return closes the oldest grant's round trip.
	loanGrants map[int64][]time.Duration
}

// Observe folds one driver stream event into the bundle. It is the only
// place scheduler decisions become metric observations; the node gauges,
// which track cluster state rather than events, are set by the driver.
// Calls come from the owning scheduler's goroutine.
func (m *SchedMetrics) Observe(ev *AuditEvent) {
	switch ev.Kind {
	case KindReserve:
		m.Reservations.Inc()
	case KindPreReserve:
		m.PreReservations.Inc()
	case KindReserveConsumed:
		m.ReservationsConsumed.Inc()
		m.ReservationHold.ObserveDuration(ev.Elapsed)
	case KindUnreserve:
		m.Unreserves.Inc()
		m.ReservedIdleLoss.ObserveDuration(ev.Elapsed)
		m.ReservationHold.ObserveDuration(ev.Elapsed)
	case KindReserveVoided:
		m.ReservedIdleLoss.ObserveDuration(ev.Elapsed)
		m.ReservationHold.ObserveDuration(ev.Elapsed)
	case KindRelease:
		m.Releases.Inc()
	case KindDeadlineArmed:
		m.DeadlinesArmed.Inc()
	case KindDeadlineExpire:
		m.DeadlinesExpired.Inc()
	case KindCopyLaunch:
		m.CopiesLaunched.Inc()
	case KindCopyWin:
		m.CopiesWon.Inc()
	case KindCopyKill:
		m.CopiesKilled.Inc()
	case KindLoanGrant:
		m.LoansGranted.Add(float64(ev.Count))
		for i := 0; i < ev.Count; i++ {
			m.loanGrants[ev.Job] = append(m.loanGrants[ev.Job], ev.Time)
		}
	case KindLoanReturn, KindLoanFinish:
		m.LoansReturned.Add(float64(ev.Count))
		q := m.loanGrants[ev.Job]
		for k := ev.Count; k > 0 && len(q) > 0; k-- {
			m.LendRoundTrip.ObserveDuration(ev.Time - q[0])
			q = q[1:]
		}
		m.loanGrants[ev.Job] = q
	case KindDrainStart:
		m.NodeDrains.Inc()
	case KindDrainEnd:
		m.NodeDrainsCompleted.Inc()
	case KindUndrain:
		m.NodeUndrains.Inc()
	case KindNodeUp:
		m.NodeActivations.Inc()
	case KindReserveMigrate:
		m.ReservationsMigrated.Inc()
	case KindAttemptStart:
		if !ev.Copy {
			m.QueueWait.ObserveDuration(ev.Elapsed)
		}
	case KindAttemptKill:
		if ev.Src == SrcPreempt {
			m.AttemptsPreempted.Inc()
		}
	case KindPhaseDone:
		m.PhaseJCT.ObserveDuration(ev.Elapsed)
	case KindJobDone, KindJobFail:
		delete(m.loanGrants, ev.Job)
	}
}

// NewSchedMetrics registers the scheduler metric families in r under the
// given labels (typically a shard tag) and returns the bundle.
func NewSchedMetrics(r *Registry, labels ...Label) *SchedMetrics {
	h := func(name, help string) *Histogram {
		return r.Histogram(name, help, LatencyBuckets, labels...)
	}
	c := func(name, help string) *Counter {
		return r.Counter(name, help, labels...)
	}
	return &SchedMetrics{
		QueueWait:        h("ssr_queue_wait_seconds", "Task-set submission to task placement, per task."),
		PhaseJCT:         h("ssr_phase_duration_seconds", "Phase submission to barrier clear."),
		ReservationHold:  h("ssr_reservation_hold_seconds", "Reservation lifetime: reserve to consume, cancel or void."),
		ReservedIdleLoss: h("ssr_reserved_idle_loss_seconds", "Hold time of reservations canceled or voided unconsumed."),
		LendRoundTrip:    h("ssr_lending_roundtrip_seconds", "Cross-shard loan grant to return, borrower clock."),

		Reservations:         c("ssr_reservations_total", "Algorithm 1 Reserve decisions."),
		PreReservations:      c("ssr_pre_reservations_total", "Pre-reservations captured at threshold R."),
		ReservationsConsumed: c("ssr_reservations_consumed_total", "Reservations used by a task."),
		Unreserves:           c("ssr_unreserves_total", "Reservations canceled while idle."),
		Releases:             c("ssr_releases_total", "Algorithm 1 Release decisions."),
		DeadlinesArmed:       c("ssr_deadlines_armed_total", "Reservation deadlines computed and armed."),
		DeadlinesExpired:     c("ssr_deadlines_expired_total", "Reservation deadlines that expired before the barrier."),
		CopiesLaunched:       c("ssr_copies_launched_total", "Straggler-mitigation copies launched."),
		CopiesWon:            c("ssr_copies_won_total", "Straggler-mitigation copies that won."),
		CopiesKilled:         c("ssr_copies_killed_total", "Straggler-mitigation copies killed by their original."),
		LoansGranted:         c("ssr_loans_granted_total", "Cross-shard slot loans granted."),
		LoansReturned:        c("ssr_loans_returned_total", "Cross-shard slot loans sent home."),

		NodeDrains:           c("ssr_node_drains_total", "Nodes put on preemption notice."),
		NodeUndrains:         c("ssr_node_undrains_total", "Preemption notices canceled before expiry."),
		NodeDrainsCompleted:  c("ssr_node_drains_completed_total", "Notice windows that closed with the node going down."),
		NodeActivations:      c("ssr_node_activations_total", "Nodes brought online by elastic pools."),
		AttemptsPreempted:    c("ssr_node_attempts_preempted_total", "Attempts killed because they could not finish inside a notice window."),
		ReservationsMigrated: c("ssr_node_reservations_migrated_total", "Reservations migrated off draining nodes onto surviving slots."),
		NodesDraining:        r.Gauge("ssr_nodes_draining", "Nodes currently serving a preemption notice.", labels...),
		NodesDown:            r.Gauge("ssr_nodes_down", "Nodes currently down.", labels...),
		loanGrants:           make(map[int64][]time.Duration),
	}
}
