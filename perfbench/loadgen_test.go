package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ssr/internal/stats"
)

// Open-loop latency counts from the due time: behind a server that stalls
// the first request for 50ms on the only connection, requests due 10ms and
// 20ms later carry the rest of the stall even though the server answers
// them at once.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	do := func(op) opResult {
		r := opResult{sentAt: time.Now()}
		resp, err := client.Get(srv.URL)
		if err != nil {
			r.err = err
		} else {
			r.status = resp.StatusCode
			_, r.err = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		r.doneAt = time.Now()
		return r
	}
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	results, late := openLoop(ops, 4, do)
	for i, r := range results {
		if !r.ok() {
			t.Fatalf("request %d failed: %d %v", i, r.status, r.err)
		}
		if late[i] > 5*time.Millisecond {
			t.Skipf("generator %v late on a busy machine; the check needs a punctual dispatcher", late[i])
		}
	}
	for i, r := range results {
		if floor := stall - ops[i].due - 5*time.Millisecond; r.latency() < floor {
			t.Errorf("request %d due at %v: latency %v, want at least %v", i, ops[i].due, r.latency(), floor)
		}
	}
	if results[2].doneAt.Sub(results[2].sentAt) > results[2].latency() {
		t.Error("latency from send exceeds latency from due")
	}
}

func TestPoissonScheduleRates(t *testing.T) {
	ops := poissonSchedule(stats.Stream(9, "load"), 20*time.Second, 300, readRatio, scrapeEvery, 5)
	var submits, reads, scrapes int
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatal("schedule not in due order")
		}
		switch o.kind {
		case opSubmit:
			if o.job != 5+submits {
				t.Fatalf("submit %d takes pool index %d", submits, o.job)
			}
			submits++
		case opScrape:
			scrapes++
		default:
			reads++
		}
	}
	if submits < 5700 || submits > 6300 || reads < 2800 || reads > 3200 || scrapes != 79 {
		t.Fatalf("%d submits, %d reads, %d scrapes in 20s at 300/s", submits, reads, scrapes)
	}
}
