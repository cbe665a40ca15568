package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refEvent is one entry of the reference queue: the (at, seq) key every
// correct event queue must pop in ascending order.
type refEvent struct {
	at  Time
	seq uint64
}

// refHeap is a plain container/heap ordered by (at, seq). It exists only
// here, as the model the engine's own queue is checked against.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// refQueue models the engine's observable queue: schedule with past
// clamping, lazy cancellation, and pops that skip canceled entries.
type refQueue struct {
	now      Time
	seq      uint64
	h        refHeap
	canceled map[uint64]bool
	live     int
}

func (r *refQueue) schedule(at Time) uint64 {
	if at < r.now {
		at = r.now
	}
	seq := r.seq
	r.seq++
	heap.Push(&r.h, refEvent{at: at, seq: seq})
	r.live++
	return seq
}

func (r *refQueue) cancel(seq uint64) {
	r.canceled[seq] = true
	r.live--
}

// next pops the earliest live entry, as Step would fire it.
func (r *refQueue) next() (refEvent, bool) {
	for r.h.Len() > 0 {
		ev := heap.Pop(&r.h).(refEvent)
		if r.canceled[ev.seq] {
			delete(r.canceled, ev.seq)
			continue
		}
		r.now = ev.at
		r.live--
		return ev, true
	}
	return refEvent{}, false
}

// TestEngineMatchesReferenceHeap drives the engine and the reference queue
// through the same seeded mix of At, AtArg, After, Cancel, Release, Step,
// RunUntil and mass cancellations (which compact the engine's queue), and
// requires the same fired (at, seq) sequence, the same NextAt and the same
// Pending count throughout.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		ref := &refQueue{canceled: map[uint64]bool{}}
		type handle struct {
			tm  *Timer
			seq uint64
		}
		var handles []handle
		var fired []refEvent
		fireArg := func(arg any) { fired = append(fired, refEvent{at: e.Now(), seq: arg.(uint64)}) }
		schedule := func() {
			seq := ref.seq
			var tm *Timer
			// Some targets lie in the past, so clamping is exercised.
			at := e.Now() + time.Duration(rng.Intn(2000)-200)*time.Microsecond
			switch rng.Intn(3) {
			case 0:
				tm = e.At(at, func() { fired = append(fired, refEvent{at: e.Now(), seq: seq}) })
			case 1:
				tm = e.AtArg(at, fireArg, seq)
			default:
				tm = e.After(at-e.Now(), func() { fired = append(fired, refEvent{at: e.Now(), seq: seq}) })
			}
			ref.schedule(at)
			handles = append(handles, handle{tm: tm, seq: seq})
		}
		cancel := func(i int) {
			h := handles[i]
			if h.tm.Cancel() {
				ref.cancel(h.seq)
			}
		}
		step := func() {
			before := len(fired)
			ok := e.Step()
			want, wantOK := ref.next()
			if ok != wantOK {
				t.Fatalf("seed %d: Step = %v, reference %v", seed, ok, wantOK)
			}
			if !ok {
				return
			}
			if len(fired) != before+1 || fired[before] != want {
				t.Fatalf("seed %d: event %d fired %+v, reference %+v", seed, before, fired[before:], want)
			}
		}
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(100); {
			case r < 45:
				schedule()
			case r < 60 && len(handles) > 0:
				cancel(rng.Intn(len(handles)))
			case r < 70 && len(handles) > 0:
				// Release drops the handle for good: the engine may hand
				// its storage to a later event.
				i := rng.Intn(len(handles))
				e.Release(handles[i].tm)
				handles[i] = handles[len(handles)-1]
				handles = handles[:len(handles)-1]
			case r < 72:
				for i := range handles {
					if rng.Intn(5) > 0 {
						cancel(i)
					}
				}
			case r < 74:
				deadline := e.Now() + time.Duration(rng.Intn(500))*time.Microsecond
				var want []refEvent
				for {
					at, ok := ref.peekLive()
					if !ok || at > deadline {
						break
					}
					ev, _ := ref.next()
					want = append(want, ev)
				}
				ref.now = max(ref.now, deadline)
				before := len(fired)
				if err := e.RunUntil(deadline); err != nil {
					t.Fatalf("seed %d: RunUntil: %v", seed, err)
				}
				if !slices.Equal(fired[before:], want) {
					t.Fatalf("seed %d: RunUntil fired %+v, reference %+v", seed, fired[before:], want)
				}
				if e.Now() != ref.now {
					t.Fatalf("seed %d: Now = %v after RunUntil, reference %v", seed, e.Now(), ref.now)
				}
			default:
				step()
			}
			if got := e.Pending(); got != ref.live {
				t.Fatalf("seed %d op %d: Pending = %d, reference %d", seed, op, got, ref.live)
			}
			gotAt, gotOK := e.NextAt()
			wantAt, wantOK := ref.peekLive()
			if gotAt != wantAt || gotOK != wantOK {
				t.Fatalf("seed %d op %d: NextAt = %v,%v, reference %v,%v", seed, op, gotAt, gotOK, wantAt, wantOK)
			}
		}
		for ref.live > 0 {
			step()
		}
		if e.Step() {
			t.Fatalf("seed %d: engine fired past the reference's last event", seed)
		}
	}
}

// peekLive reports the earliest live entry's time, discarding canceled
// entries on the way, as Engine.NextAt does.
func (r *refQueue) peekLive() (Time, bool) {
	for r.h.Len() > 0 {
		if !r.canceled[r.h[0].seq] {
			return r.h[0].at, true
		}
		delete(r.canceled, heap.Pop(&r.h).(refEvent).seq)
	}
	return 0, false
}

// stepLoad is a steady-state engine load: a fixed population of pending
// events, each of which reschedules itself when it fires and releases its
// old handle, as the driver's task completions do.
type stepLoad struct {
	e     *Engine
	slots []stepSlot
}

type stepSlot struct {
	load *stepLoad
	tm   *Timer
	k    uint64
}

func (s *stepSlot) delay() time.Duration {
	s.k = s.k*6364136223846793005 + 1442695040888963407
	return time.Duration(1+s.k>>54) * time.Microsecond
}

func fireSlot(arg any) {
	s := arg.(*stepSlot)
	e := s.load.e
	e.Release(s.tm)
	s.tm = e.AfterArg(s.delay(), fireSlot, s)
}

// newStepLoad schedules pending self-rescheduling events and runs one full
// turn over them, so the queue and the timer free list are at capacity.
func newStepLoad(pending int) *stepLoad {
	l := &stepLoad{e: New(), slots: make([]stepSlot, pending)}
	for i := range l.slots {
		s := &l.slots[i]
		s.load, s.k = l, uint64(i)
		s.tm = l.e.AfterArg(s.delay(), fireSlot, s)
	}
	for i := 0; i < 2*pending; i++ {
		l.e.Step()
	}
	return l
}

// A steady-state engine step — pop, fire, release, reschedule — allocates
// nothing.
func TestEngineStepAllocatesNothing(t *testing.T) {
	l := newStepLoad(1024)
	if allocs := testing.AllocsPerRun(1000, func() { l.e.Step() }); allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkEngineStep(b *testing.B) {
	l := newStepLoad(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.e.Step()
	}
}
