package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

const (
	metricHeap     = "/memory/classes/heap/objects:bytes"
	metricGCCycles = "/gc/cycles/total:gc-cycles"
	metricGCPauses = "/sched/pauses/total/gc:seconds"
	metricAllocs   = "/gc/heap/allocs:bytes"
)

// heapSampler tracks the peak heap held by objects (live and not yet
// swept) by sampling runtime/metrics, which does not stop the world.
// Samples taken while it is paused do not count.
type heapSampler struct {
	stop   chan struct{}
	done   chan struct{}
	paused atomic.Bool
	mu     sync.Mutex
	peak   uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: metricHeap}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if !h.paused.Load() {
				metrics.Read(s)
				h.mu.Lock()
				if v := s[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// pause stops samples from counting toward the peak until resume.
func (h *heapSampler) pause()  { h.paused.Store(true) }
func (h *heapSampler) resume() { h.paused.Store(false) }

// finish stops the sampler, waits for it and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// gcSnapshot is a point-in-time read of the Go runtime's GC counters.
type gcSnapshot struct {
	cycles uint64
	allocs uint64
	pauses *metrics.Float64Histogram
}

func readGC() gcSnapshot {
	s := []metrics.Sample{{Name: metricGCCycles}, {Name: metricAllocs}, {Name: metricGCPauses}}
	metrics.Read(s)
	return gcSnapshot{cycles: s[0].Value.Uint64(), allocs: s[1].Value.Uint64(),
		pauses: s[2].Value.Float64Histogram()}
}

// gcDelta is the GC work between two snapshots.
type gcDelta struct {
	cycles    uint64
	allocMB   float64
	pauseP99  time.Duration
	numPauses uint64
}

func (a gcSnapshot) to(b gcSnapshot) gcDelta {
	d := gcDelta{cycles: b.cycles - a.cycles, allocMB: float64(b.allocs-a.allocs) / (1 << 20)}
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		d.numPauses += counts[i]
	}
	if d.numPauses == 0 {
		return d
	}
	// The bucket holding the 99th-percentile pause; report its upper
	// bound (its lower bound when the upper one is unbounded).
	rank := uint64(math.Ceil(0.99 * float64(d.numPauses)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := b.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.pauses.Buckets[i]
			}
			d.pauseP99 = time.Duration(hi * float64(time.Second))
			break
		}
	}
	return d
}

// cpuTime returns the CPU time all threads of this process have used,
// from the kernel's per-task runtime (CLOCK_PROCESS_CPUTIME_ID), which has
// nanosecond resolution where getrusage ticks in milliseconds.
func cpuTime() time.Duration {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
