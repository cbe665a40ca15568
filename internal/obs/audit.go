package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// Kind enumerates the reservation-decision audit event types.
type Kind uint8

// Audit event kinds. The slot-transition kinds mirror the cluster state
// machine; the decision kinds record Algorithm 1 and its refinements as the
// driver takes them.
const (
	// KindReserve: a freed slot was reserved for its job's downstream
	// computation (Algorithm 1 Reserve, Busy -> Reserved). Static fences
	// and timeout-mode holds also appear here, owned by their sentinel or
	// job.
	KindReserve Kind = iota + 1
	// KindPreReserve: a free slot was captured by pre-reservation quota at
	// threshold R (Free -> Reserved).
	KindPreReserve
	// KindReserveConsumed: a reserved slot started one of its owner's
	// tasks (Reserved -> Busy).
	KindReserveConsumed
	// KindUnreserve: an idle reservation was canceled — deadline or
	// timeout expiry, reconciliation, or job end (Reserved -> Free).
	KindUnreserve
	// KindReserveVoided: a reservation died with its node
	// (Reserved -> Failed).
	KindReserveVoided
	// KindRelease: Algorithm 1 released a freed slot to the pool instead
	// of reserving it (the first m-n completions of the m > n case, the
	// too-small-slot rule, or a non-reserving tracker state).
	KindRelease
	// KindDeadlineArmed: the phase's first completion estimated t_m and
	// armed the reservation deadline D = t_m (1-P^(1/N))^(-1/alpha); the
	// event carries the inputs and the computed deadline.
	KindDeadlineArmed
	// KindDeadlineExpire: the deadline passed before the barrier cleared;
	// the phase's reservations were returned to the pool.
	KindDeadlineExpire
	// KindCopyLaunch: a straggler-mitigation copy was launched on a
	// reserved slot.
	KindCopyLaunch
	// KindCopyWin: a mitigation copy finished before its original.
	KindCopyWin
	// KindCopyKill: a mitigation copy was killed because its original
	// finished first.
	KindCopyKill
	// KindLoanGrant: Count cross-shard slot loans were granted to the job.
	KindLoanGrant
	// KindLoanReturn: Count idle loans were handed back to their owners.
	KindLoanReturn
	// KindLoanFinish: one consumed loan's task finished and the slot went
	// home.
	KindLoanFinish
	// KindAdmit: service-level admission charged a job against its
	// tenant's quota (Count is the job's slot demand).
	KindAdmit
	// KindAdmitReject: admission rejected a job for quota (Count is the
	// requested slot demand).
	KindAdmitReject
	// KindDrainStart: a node went on preemption notice (Slot carries the
	// node index; Count the notice window in whole milliseconds).
	KindDrainStart
	// KindDrainEnd: a node's notice window closed and it went Down (Slot
	// is the node index; Count the attempts killed at the wire).
	KindDrainEnd
	// KindUndrain: a node's preemption notice was canceled and its parked
	// slots returned to the pool (Slot is the node index; Count the
	// revived slots).
	KindUndrain
	// KindReserveMigrate: a reservation on a draining node was migrated to
	// a surviving free slot (Slot is the destination slot).
	KindReserveMigrate
	// KindAttemptPreempt: an attempt on a draining node was killed because
	// it could not finish inside the notice window.
	KindAttemptPreempt
	// KindNodeUp: an elastic pool activated a node (Slot is the node
	// index; Count the slots brought online).
	KindNodeUp
	// KindAdapt: the streaming estimator re-fit a class's Eq. 3 knobs.
	// Src carries the accept/reject reason, Count the window size, KS the
	// fit distance, OldAlpha/OldP the previous knobs and Alpha/P/TmSec
	// the new (unchanged on a rejected fit).
	KindAdapt

	// The lifecycle kinds below share the driver's one event stream with
	// the decision kinds above, but the audit ring does not retain them
	// (see Lifecycle). Per job they respect causal order: job_start
	// precedes every phase_start; a phase's phase_start precedes its
	// attempt_starts; each attempt_start precedes its attempt_finish or
	// attempt_kill; phase_done follows the phase's last finish; job_done
	// or job_fail comes last.

	// KindJobStart: a submitted job activated at its arrival time.
	KindJobStart
	// KindPhaseStart: a phase's barrier cleared and its task set became
	// schedulable.
	KindPhaseStart
	// KindAttemptStart: a task attempt (original or copy) started on Slot
	// (cluster.NoSlot for a borrowed sibling slot). Elapsed is the time
	// since the phase's task set was submitted.
	KindAttemptStart
	// KindAttemptFinish: an attempt completed its task; Elapsed is its run
	// time.
	KindAttemptFinish
	// KindAttemptKill: an attempt was killed — its sibling won, its node
	// failed or drained (Src SrcPreempt), or its job was aborted. Elapsed
	// is its run time.
	KindAttemptKill
	// KindPhaseDone: every task of a phase completed; Elapsed is the
	// phase's duration from submission.
	KindPhaseDone
	// KindJobDone: a job's final phase completed.
	KindJobDone
	// KindJobFail: a job was aborted (retry budget exhausted or an
	// explicit Abort).
	KindJobFail
)

// SrcPreempt marks a KindAttemptKill forced by a node drain's notice
// window, at its start or at the wire.
const SrcPreempt = "preempt"

// Lifecycle reports whether k is a job, phase or attempt transition
// rather than a reservation decision. The audit ring keeps decisions only.
func (k Kind) Lifecycle() bool { return k >= KindJobStart }

func (k Kind) String() string {
	switch k {
	case KindReserve:
		return "reserve"
	case KindPreReserve:
		return "pre_reserve"
	case KindReserveConsumed:
		return "reserve_consumed"
	case KindUnreserve:
		return "unreserve"
	case KindReserveVoided:
		return "reserve_voided"
	case KindRelease:
		return "release"
	case KindDeadlineArmed:
		return "deadline_armed"
	case KindDeadlineExpire:
		return "deadline_expire"
	case KindCopyLaunch:
		return "copy_launch"
	case KindCopyWin:
		return "copy_win"
	case KindCopyKill:
		return "copy_kill"
	case KindLoanGrant:
		return "loan_grant"
	case KindLoanReturn:
		return "loan_return"
	case KindLoanFinish:
		return "loan_finish"
	case KindAdmit:
		return "admit"
	case KindAdmitReject:
		return "admit_reject"
	case KindDrainStart:
		return "drain_start"
	case KindDrainEnd:
		return "drain_end"
	case KindUndrain:
		return "undrain"
	case KindReserveMigrate:
		return "reserve_migrate"
	case KindAttemptPreempt:
		return "attempt_preempt"
	case KindNodeUp:
		return "node_up"
	case KindAdapt:
		return "adapt"
	case KindJobStart:
		return "job_start"
	case KindPhaseStart:
		return "phase_start"
	case KindAttemptStart:
		return "attempt_start"
	case KindAttemptFinish:
		return "attempt_finish"
	case KindAttemptKill:
		return "attempt_kill"
	case KindPhaseDone:
		return "phase_done"
	case KindJobDone:
		return "job_done"
	case KindJobFail:
		return "job_fail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(k.String())), nil
}

// AuditEvent is one event of the driver's stream — a reservation decision
// or a lifecycle transition — stamped with the virtual clock. Fields beyond
// Seq, Time, Shard and Kind are meaningful only for the kinds that concern
// them; Slot is -1 when no home-cluster slot is involved.
type AuditEvent struct {
	// Seq is the global append sequence number (order across shards).
	Seq uint64 `json:"seq"`
	// Time is the originating scheduler's virtual clock.
	Time time.Duration `json:"tNs"`
	// Shard is the originating scheduler's shard index (0 unsharded).
	Shard int `json:"shard"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Copy and Local qualify attempt lifecycle events: the attempt is a
	// speculative or straggler copy, and it runs data-local.
	Copy  bool `json:"copy,omitempty"`
	Local bool `json:"local,omitempty"`

	Job     int64  `json:"job,omitempty"`
	JobName string `json:"jobName,omitempty"`
	// Tenant is the owning job's tenant ("" pre-tenancy or for events
	// with no owning job, elided from JSON either way).
	Tenant string `json:"tenant,omitempty"`
	Phase  int    `json:"phase,omitempty"`
	Task   int    `json:"task,omitempty"`
	Slot   int    `json:"slot"`
	// Count is the number of slots in a loan grant/return event.
	Count int `json:"count,omitempty"`

	// Deadline inputs and result (KindDeadlineArmed): t_m estimate, task
	// count N, isolation guarantee P, Pareto tail alpha, and the computed
	// deadline D, all on the virtual clock.
	TmSec       float64 `json:"tmSec,omitempty"`
	N           int     `json:"n,omitempty"`
	P           float64 `json:"p,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
	DeadlineSec float64 `json:"deadlineSec,omitempty"`

	// Adaptive control-loop attribution. Src on KindDeadlineArmed says
	// where P/Alpha came from ("static" config or "estimated" knobs); on
	// KindAdapt it is the estimator's accept/reject reason. Class, the
	// old knob values and the fit's KS distance accompany KindAdapt.
	// Every field is omitted from JSON when unset, so runs without an
	// estimator attached serialize byte-identically to earlier builds.
	Src      string  `json:"src,omitempty"`
	Class    string  `json:"class,omitempty"`
	OldAlpha float64 `json:"oldAlpha,omitempty"`
	OldP     float64 `json:"oldP,omitempty"`
	KS       float64 `json:"ks,omitempty"`

	// Elapsed is the span the event closes: a reservation's hold time on
	// reserve_consumed, unreserve and reserve_voided, and the durations
	// documented on the lifecycle kinds. Metrics and traces read it; the
	// audit JSON does not carry it.
	Elapsed time.Duration `json:"-"`
}

// DefaultAuditCapacity is the ring-buffer retention used when NewAudit is
// given a non-positive capacity.
const DefaultAuditCapacity = 8192

// Audit is a bounded ring buffer of decision events. Appends are O(1) and
// never allocate past the ring; once full, the oldest events are
// overwritten (Dropped counts them). It is safe for concurrent use: the
// online service shares one Audit across K shard loops, interleaving their
// streams in append order.
type Audit struct {
	mu    sync.Mutex
	buf   []AuditEvent
	total uint64
}

// NewAudit creates an audit stream retaining up to capacity events
// (DefaultAuditCapacity when capacity <= 0).
func NewAudit(capacity int) *Audit {
	if capacity <= 0 {
		capacity = DefaultAuditCapacity
	}
	return &Audit{buf: make([]AuditEvent, 0, capacity)}
}

// Append records one decision event, stamping its sequence number.
// Appending to a nil Audit is a no-op.
func (a *Audit) Append(ev AuditEvent) { a.Observe(&ev) }

// Observe is the audit ring's filter over the driver's event stream: it
// records decision kinds, stamping their sequence numbers, and skips
// lifecycle kinds.
func (a *Audit) Observe(ev *AuditEvent) {
	if a == nil || ev.Kind.Lifecycle() {
		return
	}
	a.mu.Lock()
	var slot *AuditEvent
	if len(a.buf) < cap(a.buf) {
		a.buf = a.buf[:len(a.buf)+1]
		slot = &a.buf[len(a.buf)-1]
	} else {
		slot = &a.buf[a.total%uint64(cap(a.buf))]
	}
	*slot = *ev
	slot.Seq = a.total
	a.total++
	a.mu.Unlock()
}

// Total returns the number of events ever appended.
func (a *Audit) Total() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Len returns the number of events currently retained.
func (a *Audit) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buf)
}

// Dropped returns the number of events evicted by the ring.
func (a *Audit) Dropped() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total - uint64(len(a.buf))
}

// Events returns the retained events oldest first.
func (a *Audit) Events() []AuditEvent {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEvent, 0, len(a.buf))
	if len(a.buf) < cap(a.buf) {
		return append(out, a.buf...)
	}
	head := int(a.total % uint64(cap(a.buf)))
	out = append(out, a.buf[head:]...)
	return append(out, a.buf[:head]...)
}

// WriteJSONL writes the retained events as JSON Lines, oldest first.
func (a *Audit) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range a.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the retained events to path as JSONL.
func (a *Audit) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
