package service

import (
	"sync"
	"sync/atomic"
)

// Bus is an ordered, replayable event fan-out. Events get contiguous
// sequence numbers in publish order; a bounded ring retains recent history
// so subscribers (SSE reconnects) can resume from a sequence number.
//
// Publish never blocks on slow consumers: a subscriber whose buffer fills
// is dropped (its channel closed), and it can resubscribe from its last
// seen sequence number — the standard SSE Last-Event-ID contract.
type Bus struct {
	mu     sync.Mutex
	ring   []Event
	start  int // ring index of the oldest retained event
	count  int // retained events
	subs   map[*Subscription]struct{}
	closed bool
	// published and dropped are atomics so metrics scrapes read them
	// without contending on mu with the publish hot path.
	published atomic.Uint64 // events published; next seq = published+1
	dropped   atomic.Int64  // subscribers dropped for lagging
}

// Subscription is one live consumer of the bus.
type Subscription struct {
	// C delivers events in order. It is closed when the subscriber lags
	// beyond its buffer, Cancel is called, or the bus closes.
	C   chan Event
	bus *Bus
}

// Cancel detaches the subscription and closes its channel. Safe to call
// once; pending buffered events are still readable from C.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	s.bus.detach(s)
}

// NewBus creates a bus retaining up to capacity events for replay.
func NewBus(capacity int) *Bus {
	if capacity < 1 {
		capacity = 1
	}
	return &Bus{
		ring: make([]Event, capacity),
		subs: make(map[*Subscription]struct{}),
	}
}

// Publish assigns the event its sequence number, retains it, and forwards
// it to every live subscriber. It returns the assigned sequence number.
func (b *Bus) Publish(ev Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	ev.Seq = b.published.Add(1)
	if b.count == len(b.ring) {
		b.ring[b.start] = ev
		b.start = (b.start + 1) % len(b.ring)
	} else {
		b.ring[(b.start+b.count)%len(b.ring)] = ev
		b.count++
	}
	for sub := range b.subs { //maporder:ok fan-out only; every subscriber sees the same ordered stream
		select {
		case sub.C <- ev:
		default:
			// Lagging consumer: drop it rather than stall the
			// scheduler. It can resume from Last-Event-ID.
			b.detach(sub)
			b.dropped.Add(1)
		}
	}
	return ev.Seq
}

// detach removes a subscription and closes its channel; callers hold b.mu.
func (b *Bus) detach(s *Subscription) {
	if _, ok := b.subs[s]; !ok {
		return
	}
	delete(b.subs, s)
	close(s.C)
}

// Published returns the number of events published so far. Lock-free:
// safe to call from metrics scrapes without stalling publishers.
func (b *Bus) Published() uint64 {
	return b.published.Load()
}

// Dropped returns the number of subscribers dropped for lagging. Lock-free.
func (b *Bus) Dropped() int {
	return int(b.dropped.Load())
}

// Subscribe registers a consumer resuming at sequence number since (0 or 1
// replay everything retained). Retained events with Seq >= since are
// returned for the caller to deliver first; the subscription then carries
// every event published after the snapshot, with no gap and no duplicate.
// If history older than since has already been evicted the replay simply
// starts at the oldest retained event.
func (b *Bus) Subscribe(since uint64, buffer int) ([]Event, *Subscription) {
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var replay []Event
	for i := 0; i < b.count; i++ {
		ev := b.ring[(b.start+i)%len(b.ring)]
		if ev.Seq >= since {
			replay = append(replay, ev)
		}
	}
	sub := &Subscription{C: make(chan Event, buffer), bus: b}
	if b.closed {
		close(sub.C)
		return replay, sub
	}
	b.subs[sub] = struct{}{}
	return replay, sub
}

// Snapshot returns the retained events with Seq >= since, without
// subscribing.
func (b *Bus) Snapshot(since uint64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for i := 0; i < b.count; i++ {
		ev := b.ring[(b.start+i)%len(b.ring)]
		if ev.Seq >= since {
			out = append(out, ev)
		}
	}
	return out
}

// Close detaches every subscriber and rejects further publishes.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs { //maporder:ok every subscriber is detached; order-free
		b.detach(sub)
	}
}
