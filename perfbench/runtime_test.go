package main

import (
	"runtime"
	"testing"
	"time"
)

// Heap held while the sampler is paused does not count toward its peak.
func TestHeapSamplerPause(t *testing.T) {
	runtime.GC()
	h := startHeapSampler(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	h.pause()
	big := make([]byte, 64<<20)
	for i := range big {
		big[i] = 1
	}
	time.Sleep(10 * time.Millisecond)
	runtime.KeepAlive(big)
	big = nil
	runtime.GC()
	h.resume()
	time.Sleep(5 * time.Millisecond)
	if peak := h.finish(); peak <= 0 || peak >= 64 {
		t.Fatalf("peak %.1f MB; the 64 MB held while paused must not count", peak)
	}
}
