// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// callbacks. Events that share a timestamp fire in the order they were
// scheduled (FIFO by sequence number), which makes every run fully
// deterministic. The engine is single-threaded by design: determinism and
// reproducibility matter more than parallelism for scheduler simulation.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is a virtual timestamp, measured as an offset from the start of the
// simulation. The zero value is the beginning of simulated time.
type Time = time.Duration

// ErrHalted is returned by Run when the engine was stopped via Halt before
// the event queue drained.
var ErrHalted = errors.New("sim: engine halted")

// Timer is a handle to a scheduled event. It can be used to cancel the event
// before it fires.
type Timer struct {
	eng *Engine
	at  Time
	fn  func()
	// fnArg/arg are the allocation-free callback form (AtArg): a shared
	// function plus a per-event argument, so hot paths that schedule one
	// event per task need not allocate a closure each time.
	fnArg    func(any)
	arg      any
	canceled bool
	fired    bool
	// inq tracks heap membership: set on push, cleared on pop or
	// compaction. A canceled timer stays in the heap (lazy deletion)
	// until popped, so recycling must wait for inq to clear.
	inq bool
	// release marks the timer for return to the engine's free list as
	// soon as it leaves the heap (see Engine.Release).
	release bool
}

// At reports the virtual time the timer is scheduled to fire.
func (t *Timer) At() Time { return t.at }

// Cancel prevents the timer from firing. Canceling an already-fired or
// already-canceled timer is a no-op. Cancel reports whether the timer was
// live (i.e., this call canceled it).
func (t *Timer) Cancel() bool {
	if t.fired || t.canceled {
		return false
	}
	t.canceled = true
	t.fn = nil // release closures/args for GC
	t.fnArg = nil
	t.arg = nil
	if t.eng != nil {
		t.eng.canceled++
		t.eng.maybeCompact()
	}
	return true
}

// Live reports whether the timer is still pending (not fired, not canceled).
func (t *Timer) Live() bool { return !t.fired && !t.canceled }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	halted  bool
	stepped uint64
	// canceled counts dead (canceled but not yet popped) timers in the
	// queue; when they outnumber the live ones the heap is compacted so
	// workloads that cancel en masse do not bloat it.
	canceled int
	// free holds recycled Timer structs (see Release) so steady-state
	// stepping allocates no timer per event.
	free []*Timer
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events fired so far.
func (e *Engine) Events() uint64 { return e.stepped }

// Pending returns the number of live events currently scheduled. Canceled
// timers awaiting lazy removal from the queue are not counted.
func (e *Engine) Pending() int { return len(e.queue) - e.canceled }

// newTimer takes a Timer from the free list (or allocates one), fully
// resets it, so no state from a previous life — cancellation, release
// marks, stale callbacks — can leak into the new event, and queues it at
// t under the next sequence number.
func (e *Engine) newTimer(t Time) *Timer {
	var tm *Timer
	if n := len(e.free); n > 0 {
		tm = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*tm = Timer{}
	} else {
		tm = &Timer{}
	}
	tm.eng = e
	tm.at = t
	tm.inq = true
	e.queue.push(event{at: t, seq: e.seq, tm: tm})
	e.seq++
	return tm
}

// At schedules fn to run at virtual time t. Scheduling in the past (t less
// than Now) is an error: the event fires immediately at the current time
// instead, preserving causality, and At reports this by clamping. To keep
// call sites simple the clamp is silent; use Schedule for a checked variant.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		t = e.now
	}
	tm := e.newTimer(t)
	tm.fn = fn
	return tm
}

// AtArg schedules fn(arg) to run at virtual time t, with the same
// past-clamping as At. Callers on hot paths use it with a long-lived fn
// (typically a method value captured once) so scheduling one event per
// task does not allocate one closure per task.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Timer {
	if t < e.now {
		t = e.now
	}
	tm := e.newTimer(t)
	tm.fnArg = fn
	tm.arg = arg
	return tm
}

// AfterArg schedules fn(arg) to run d after the current virtual time,
// clamping negative delays to zero. See AtArg.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) *Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now+d, fn, arg)
}

// Release returns a finished timer's storage to the engine's free list so
// the next At/AtArg reuses it instead of allocating. The caller asserts it
// holds the only reference and will not touch the handle again — a
// released handle may be reused for an unrelated future event, so a stale
// Cancel through it would cancel someone else's timer. Releasing nil or a
// timer still live in the queue is a no-op for safety; a canceled timer
// still awaiting lazy removal is marked and recycled when it leaves the
// heap.
func (e *Engine) Release(t *Timer) {
	if t == nil || t.eng != e {
		return
	}
	if t.inq {
		if t.canceled {
			t.release = true
		}
		return
	}
	if t.fired || t.canceled {
		e.recycle(t)
	}
}

// recycle resets a timer that is out of the heap and shelves it for reuse.
func (e *Engine) recycle(t *Timer) {
	*t = Timer{}
	e.free = append(e.free, t)
}

// Schedule schedules fn to run at virtual time t and returns an error if t
// is in the past.
func (e *Engine) Schedule(t Time, fn func()) (*Timer, error) {
	if t < e.now {
		return nil, fmt.Errorf("sim: schedule at %v before now %v", t, e.now)
	}
	return e.At(t, fn), nil
}

// After schedules fn to run d after the current virtual time. Negative
// delays are clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// NextAt reports the virtual timestamp of the earliest live pending event.
// ok is false when no live events are scheduled. Canceled timers encountered
// on the way are discarded. Wall-clock adapters use it to decide how long to
// sleep before the next event is due.
func (e *Engine) NextAt() (Time, bool) {
	tm := e.peek()
	if tm == nil {
		return 0, false
	}
	return tm.at, true
}

// Halt stops the run loop after the currently executing event returns. A
// Halt issued while no run loop is active is remembered: the next Run or
// RunUntil honors it immediately (returning ErrHalted before firing any
// event) and clears it.
func (e *Engine) Halt() { e.halted = true }

// compactMin is the queue length below which canceled timers are left in
// place: tiny heaps are cheap to drain lazily and not worth rebuilding.
const compactMin = 32

// maybeCompact rebuilds the heap without its canceled timers once they
// outnumber the live ones, keeping the queue proportional to the number of
// pending events rather than the number ever scheduled.
func (e *Engine) maybeCompact() {
	if len(e.queue) < compactMin || 2*e.canceled <= len(e.queue) {
		return
	}
	kept := e.queue[:0]
	for _, ev := range e.queue {
		if !ev.tm.canceled {
			kept = append(kept, ev)
			continue
		}
		ev.tm.inq = false
		if ev.tm.release {
			e.recycle(ev.tm)
		}
	}
	// Zero the tail so dropped timers are collectable.
	clear(e.queue[len(kept):])
	e.queue = kept
	e.canceled = 0
	e.queue.init()
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It reports whether an event fired (false when the queue is empty or only
// canceled timers remain).
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		tm := e.queue.pop()
		tm.inq = false
		if tm.canceled {
			e.canceled--
			if tm.release {
				e.recycle(tm)
			}
			continue
		}
		e.now = tm.at
		tm.fired = true
		fn, fnArg, arg := tm.fn, tm.fnArg, tm.arg
		tm.fn = nil
		tm.fnArg = nil
		tm.arg = nil
		e.stepped++
		if fn != nil {
			fn()
		} else {
			fnArg(arg)
		}
		return true
	}
	return false
}

// Run fires events until the queue is empty or Halt is called. It returns
// ErrHalted if halted, nil otherwise. A Halt issued before Run starts is
// honored immediately; the pending halt is cleared only once it has been
// honored, so it is never silently lost.
func (e *Engine) Run() error {
	for {
		if e.halted {
			e.halted = false
			return ErrHalted
		}
		if !e.Step() {
			return nil
		}
	}
}

// RunUntil fires events with timestamps at or before deadline, then advances
// the clock to deadline (if the clock is behind it). Events scheduled after
// deadline remain pending. Like Run, it honors (and then clears) a Halt
// issued before the loop started.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		if e.halted {
			e.halted = false
			return ErrHalted
		}
		tm := e.peek()
		if tm == nil || tm.at > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return nil
		}
		e.Step()
	}
}

// peek returns the next live timer without firing it, discarding canceled
// timers it encounters on the way.
func (e *Engine) peek() *Timer {
	for len(e.queue) > 0 {
		tm := e.queue[0].tm
		if !tm.canceled {
			return tm
		}
		e.queue.pop()
		tm.inq = false
		e.canceled--
		if tm.release {
			e.recycle(tm)
		}
	}
	return nil
}

// event is one queue entry. The ordering key (at, seq) is held inline, so
// sifting compares entries without dereferencing their timers. seq is
// unique, which makes (at, seq) a strict total order: any correct min-heap
// pops the same sequence, and events sharing a timestamp fire FIFO.
type event struct {
	at  Time
	seq uint64
	tm  *Timer
}

func (a event) before(b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of events: children of i sit at
// 4i+1..4i+4. The wider fan-out halves the depth of a binary heap, and the
// four children share a cache line or two.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest entry's timer; the queue must be
// non-empty.
func (q *eventQueue) pop() *Timer {
	h := *q
	top := h[0].tm
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		h.siftDown(0, last)
	}
	*q = h
	return top
}

// init restores the heap order over arbitrary contents, sifting down from
// the last parent, (len-2)/4.
func (q eventQueue) init() {
	for i := (len(q)+2)/4 - 1; i >= 0; i-- {
		q.siftDown(i, q[i])
	}
}

// siftDown places ev at slot i or below, moving smaller children up.
func (q eventQueue) siftDown(i int, ev event) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if q[k].before(q[m]) {
				m = k
			}
		}
		if !q[m].before(ev) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ev
}
