package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/sched"
)

// layer names a span's layer; the per-layer metrics aggregate by it.
type layer int

const (
	layerPass     layer = iota // one offline pass: driver, sim and cluster self time
	layerStep                  // one Federation.Step
	layerSched                 // one sched.Queue call
	layerEstimate              // one driver.AdaptiveSSR call
	layerClient                // one HTTP request as the load generator sees it
	layerServer                // the same request inside service.NewHandler
	layerCount
)

var layerNames = [layerCount]string{"driver", "shard.step", "sched", "estimate", "loadgen", "service.http"}

// span is one recorded call. Start and End are offsets from the tracer's
// epoch; Self is End-Start minus the part of that interval its children
// cover.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layerTotals aggregates every span of one layer, including spans past
// the in-memory cap.
type layerTotals struct {
	calls uint64
	total time.Duration
	self  time.Duration
}

type openSpan struct {
	id      uint64
	layer   layer
	name    string
	start   time.Duration
	covered time.Duration
}

// tracer records spans in memory and writes them out when the run ends.
// Nested spans on one goroutine (the offline passes) use push/pop, which
// charge each span's duration to its parent's covered time; spans that
// cross goroutines (the online requests) are recorded whole with add.
// Totals count every span; only the first perLayer spans of each layer
// are kept for the file.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	nextID   uint64
	totals   [layerCount]layerTotals
	spans    []span
	perLayer uint64
	stack    []openSpan
}

func newTracer(perLayer uint64) *tracer {
	return &tracer{epoch: time.Now(), perLayer: perLayer}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// push opens a span nested in the innermost open one.
func (t *tracer) push(l layer, name string) {
	start := t.now()
	t.mu.Lock()
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, layer: l, name: name, start: start})
	t.mu.Unlock()
}

// pop closes the innermost open span and returns its duration.
func (t *tracer) pop() time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	top := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := end - top.start
	var parent uint64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].covered += dur
		parent = t.stack[n-1].id
	}
	t.recordLocked(top.id, parent, top.layer, top.name, top.start, end, dur-top.covered)
	return dur
}

// add records a finished span whose children (possibly overlapping, from
// other goroutines) cover the given intervals, and returns its ID and self
// time.
func (t *tracer) add(l layer, name string, parent uint64, start, end time.Time,
	children [][2]time.Time) (uint64, time.Duration) {
	self := selfTime(start, end, children)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.recordLocked(t.nextID, parent, l, name, start.Sub(t.epoch), end.Sub(t.epoch), self)
	return t.nextID, self
}

func (t *tracer) recordLocked(id, parent uint64, l layer, name string, start, end, self time.Duration) {
	tot := &t.totals[l]
	tot.calls++
	tot.total += end - start
	tot.self += self
	if tot.calls <= t.perLayer {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layerNames[l], Name: name,
			Start: int64(start), End: int64(end), Self: int64(self)})
	}
}

func (t *tracer) layer(l layer) layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[l]
}

// selfWithinWall reports whether the self times of layers ls add up to no
// more than wall, a wall time measured outside the tracer around the
// traced work, and describes the comparison. Self time counted twice, or
// charged to a span that outlived the traced work, makes it fail.
func (t *tracer) selfWithinWall(wall time.Duration, ls ...layer) (bool, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	parts := make([]string, len(ls))
	for i, l := range ls {
		sum += t.totals[l].self
		parts[i] = fmt.Sprintf("%s %v", layerNames[l], t.totals[l].self)
	}
	return sum <= wall, fmt.Sprintf("self times %v (%s) within wall %v", sum, strings.Join(parts, ", "), wall)
}

// selfTime is the span's duration minus the part of [start, end] that the
// union of its children's intervals covers. Children may overlap each
// other and stick out of the parent; only the covered part inside the
// parent counts.
func selfTime(start, end time.Time, children [][2]time.Time) time.Duration {
	if !end.After(start) {
		return 0
	}
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		s, e := c[0], c[1]
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var covered time.Duration
	var curS, curE time.Time
	for i, c := range iv {
		switch {
		case i == 0:
			curS, curE = c[0], c[1]
		case !c[0].After(curE):
			if c[1].After(curE) {
				curE = c[1]
			}
		default:
			covered += curE.Sub(curS)
			curS, curE = c[0], c[1]
		}
	}
	if len(iv) > 0 {
		covered += curE.Sub(curS)
	}
	return end.Sub(start) - covered
}

// spansPerLayer bounds the spans a traced run keeps in memory for its
// file; the per-layer totals count every span regardless.
const spansPerLayer = 20000

// writeSpans writes the kept spans as JSON Lines to path and returns how
// many it wrote.
func (t *tracer) writeSpans(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("spans dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return 0, fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("write spans: %w", err)
	}
	return len(t.spans), nil
}

// timedPolicy hands every driver a priority queue wrapped in a timedQueue.
// It is driver.PolicySSR's queue under a stopwatch; the reservation mode
// stays whatever Options.Mode says.
type timedPolicy struct{ tr *tracer }

func (p timedPolicy) Name() string { return "ssr" }
func (p timedPolicy) NewQueue() sched.Queue {
	return &timedQueue{q: sched.NewPriorityQueue(), tr: p.tr}
}
func (p timedPolicy) Mode() driver.Mode { return 0 }

// timedQueue records a sched span around every queue call.
type timedQueue struct {
	q  sched.Queue
	tr *tracer
}

func (q *timedQueue) Name() string { return q.q.Name() }

func (q *timedQueue) Add(it sched.Item) {
	q.tr.push(layerSched, "Add")
	q.q.Add(it)
	q.tr.pop()
}

func (q *timedQueue) Remove(it sched.Item) {
	q.tr.push(layerSched, "Remove")
	q.q.Remove(it)
	q.tr.pop()
}

func (q *timedQueue) Best() sched.Item {
	q.tr.push(layerSched, "Best")
	it := q.q.Best()
	q.tr.pop()
	return it
}

func (q *timedQueue) Len() int {
	q.tr.push(layerSched, "Len")
	n := q.q.Len()
	q.tr.pop()
	return n
}

// timedAdaptive records an estimate span around every estimator call and
// times the calls that re-fit a class.
type timedAdaptive struct {
	a        driver.AdaptiveSSR
	tr       *tracer
	refits   []time.Duration
	accepted int
}

func (e *timedAdaptive) ObserveTask(tenant, class string, dur time.Duration) (estimate.Adaptation, bool) {
	e.tr.push(layerEstimate, "ObserveTask")
	ad, ok := e.a.ObserveTask(tenant, class, dur)
	d := e.tr.pop()
	if ok {
		e.refits = append(e.refits, d)
		if ad.Accepted {
			e.accepted++
		}
	}
	return ad, ok
}

func (e *timedAdaptive) ObservePhase(tenant, class string, parallelism int) {
	e.tr.push(layerEstimate, "ObservePhase")
	e.a.ObservePhase(tenant, class, parallelism)
	e.tr.pop()
}

func (e *timedAdaptive) ObserveOutcome(tenant, class string, targetP float64, expired bool) {
	e.tr.push(layerEstimate, "ObserveOutcome")
	e.a.ObserveOutcome(tenant, class, targetP, expired)
	e.tr.pop()
}

func (e *timedAdaptive) Knobs(tenant, class string, targetP float64) (estimate.Knobs, bool) {
	e.tr.push(layerEstimate, "Knobs")
	k, ok := e.a.Knobs(tenant, class, targetP)
	e.tr.pop()
	return k, ok
}

func (e *timedAdaptive) CopyBudget(tenant, class string, ongoing int) int {
	e.tr.push(layerEstimate, "CopyBudget")
	n := e.a.CopyBudget(tenant, class, ongoing)
	e.tr.pop()
	return n
}
