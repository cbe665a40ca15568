package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// opKind is one request type of the online mix.
type opKind int

const (
	opSubmit opKind = iota // POST /v1/jobs
	opGetJob               // GET /v1/jobs/{id}
	opList                 // GET /v1/jobs?limit=
	opScrape               // GET /v1/metrics?format=prometheus
)

// op is one scheduled request: due is its offset from the start of the
// phase; job indexes the pre-encoded job pool for submits; pick in [0, 1)
// chooses which accepted job a lookup reads.
type op struct {
	due  time.Duration
	kind opKind
	job  int
	pick float64
}

// opResult is what a request produced. Latency counts from the due time,
// so a request that waited behind a stalled one carries the stall.
type opResult struct {
	op
	dueAt  time.Time
	sentAt time.Time
	doneAt time.Time
	status int
	reqID  uint64
	jobID  int64
	err    error
}

func (r opResult) latency() time.Duration { return r.doneAt.Sub(r.dueAt) }
func (r opResult) ok() bool               { return r.err == nil && r.status >= 200 && r.status < 300 }

// poissonSchedule draws an open-loop schedule of the given length:
// submits at rate per second, reads at readRatio times that rate (a
// listShare of list pages, the rest single-job lookups), both Poisson,
// plus a metrics scrape every scrapeEvery. Submits take pool indices
// first, first+1, ... The same rng state always yields the same schedule.
func poissonSchedule(rng *rand.Rand, length time.Duration, rate, readRatio float64,
	scrapeEvery time.Duration, first int) []op {
	var ops []op
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= length {
			break
		}
		ops = append(ops, op{due: t, kind: opSubmit, job: first})
		first++
	}
	if readRatio > 0 {
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / (rate * readRatio) * float64(time.Second))
			if t >= length {
				break
			}
			k := opGetJob
			if rng.Float64() < listShare {
				k = opList
			}
			ops = append(ops, op{due: t, kind: k, pick: rng.Float64()})
		}
	}
	if scrapeEvery > 0 {
		for t := scrapeEvery; t < length; t += scrapeEvery {
			ops = append(ops, op{due: t, kind: opScrape})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// openLoop issues ops at their due times regardless of how earlier ones
// fare: one dispatcher sleeps until each due time and hands the op to a
// fixed pool of workers, which run do. It returns every result in schedule
// order and how late the dispatcher handed each op over (the generator's
// own lateness, not the system's).
func openLoop(ops []op, workers int, do func(op) opResult) ([]opResult, []time.Duration) {
	results := make([]opResult, len(ops))
	late := make([]time.Duration, len(ops))
	// Sized to the schedule so the dispatcher never blocks on a busy pool:
	// a blocked dispatcher would stop the clock the latencies count from.
	work := make(chan int, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := do(ops[i])
				r.op = ops[i]
				r.dueAt = start.Add(ops[i].due)
				results[i] = r
			}
		}()
	}
	for i, o := range ops {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		work <- i
	}
	close(work)
	wg.Wait()
	return results, late
}
