package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssr/internal/service"
)

const (
	// onlineDilation makes virtual waits negligible: a 200-task job's
	// virtual minute passes in 60µs of wall time.
	onlineDilation = 1e6
	// clientConns caps the load generator's connections; with the
	// generator in the same process, two keep a 2-core machine busy with
	// the program rather than with client scheduling.
	clientConns = 2
	// loadWorkers run requests for the open-loop dispatcher; requests
	// beyond clientConns queue for a connection inside the transport,
	// which the due-time latency counts.
	loadWorkers = 16
	// The read traffic is an assumption with no measured source: half a
	// read per submit, listShare of them list pages and the rest
	// single-job lookups, and a scrape far more often than Prometheus'
	// default of once a minute, so that WritePrometheus shows in the read
	// tail within one run.
	readRatio   = 0.5
	listShare   = 0.3
	scrapeEvery = 250 * time.Millisecond
	// jobP99Limit is the job latency limit a ladder rate must meet.
	jobP99Limit = 50 * time.Millisecond
	// quiesceTimeout bounds the wait for every accepted job's job_done.
	quiesceTimeout = 30 * time.Second
	// poolJobs is how many distinct job bodies a run draws; submits cycle
	// through them.
	poolJobs = 4096
)

// baseRate is the open-loop submit rate the latency metrics are taken at,
// well below saturation so they measure service, not queueing collapse.
const baseRate = 300.0

// ladder is the fixed set of offered submit rates max_rate_jobs_s is
// taken from.
var ladder = []float64{300, 600, 1000, 1500, 2000, 3000}

// ssrdServiceConfig is ssrd's default configuration with -adaptive on:
// one shard, SSR at P=0.9, audit ring and metrics registry on, 2 baseline
// workers. The cluster is larger than ssrd's default 20 x 2 so that it is
// never contended: with two tenants, contention turns on DRF admission,
// whose 429s would make the run measure refusals instead of service. A
// non-nil tr wraps every shard's queue.
func ssrdServiceConfig(dilation float64, tr *tracer) service.Config {
	cfg := service.Config{
		Nodes:           100,
		SlotsPerNode:    4,
		Shards:          1,
		Dilation:        dilation,
		BaselineWorkers: 2,
		Adaptive:        true,
		Driver:          ssrdDriverOptions(),
	}
	cfg.Lending.MaxLendFraction = ssrdLendFraction
	if tr != nil {
		cfg.Driver.Policy = timedPolicy{tr: tr}
	}
	return cfg
}

// onlineStack is one in-process ssrd: the service behind its HTTP handler
// on a loopback listener, a bus subscription watching for job_done, and
// the HTTP client the load generator uses.
type onlineStack struct {
	svc      *service.Service
	srv      *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	watch    *doneWatcher
	jobs     []onlineJob

	reqSeq   atomic.Uint64
	accepted atomic.Int64 // highest job ID accepted so far

	// server intervals by request ID, traced runs only
	serverMu sync.Mutex
	server   map[uint64][2]time.Time
}

const reqHeader = "X-Perfbench-Req"

// startOnline starts a stack serving jobs' specs. A non-nil tr wraps the
// shard queue and records every request's handler interval.
func startOnline(jobs []onlineJob, dilation float64, tr *tracer) (*onlineStack, error) {
	svc, err := service.New(ssrdServiceConfig(dilation, tr))
	if err != nil {
		return nil, err
	}
	s := &onlineStack{svc: svc, jobs: jobs, serveErr: make(chan error, 1)}
	s.watch = watchBus(svc)
	h := service.NewHandler(svc)
	if tr != nil {
		s.server = make(map[uint64][2]time.Time)
		h = s.timed(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		s.watch.stop()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}
	return s, nil
}

// timed wraps the API handler to record each request's server interval.
func (s *onlineStack) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		if err != nil {
			return
		}
		s.serverMu.Lock()
		s.server[id] = [2]time.Time{start, end}
		s.serverMu.Unlock()
	})
}

// close shuts the stack down and waits for its goroutines.
func (s *onlineStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.watch.stop()
	s.svc.Close()
	return err
}

// do runs one request and reads its whole response.
func (s *onlineStack) do(o op) opResult {
	var (
		req *http.Request
		err error
	)
	switch o.kind {
	case opSubmit:
		req, err = http.NewRequest(http.MethodPost, s.base+"/v1/jobs",
			bytes.NewReader(s.jobs[o.job%len(s.jobs)].body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case opGetJob:
		if n := s.accepted.Load(); n > 0 {
			id := 1 + int64(o.pick*float64(n))
			req, err = http.NewRequest(http.MethodGet, s.base+"/v1/jobs/"+strconv.FormatInt(id, 10), nil)
			break
		}
		req, err = http.NewRequest(http.MethodGet, s.base+"/v1/jobs?limit=20", nil)
	case opList:
		req, err = http.NewRequest(http.MethodGet, s.base+"/v1/jobs?limit=20", nil)
	case opScrape:
		req, err = http.NewRequest(http.MethodGet, s.base+"/v1/metrics?format=prometheus", nil)
	}
	r := opResult{sentAt: time.Now()}
	if err != nil {
		r.err = err
		r.doneAt = time.Now()
		return r
	}
	r.reqID = s.reqSeq.Add(1)
	req.Header.Set(reqHeader, strconv.FormatUint(r.reqID, 10))
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		r.doneAt = time.Now()
		return r
	}
	r.status = resp.StatusCode
	if o.kind == opSubmit && r.ok() {
		var st service.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			r.err = fmt.Errorf("decode job status: %w", err)
		}
		r.jobID = st.ID
		for {
			cur := s.accepted.Load()
			if st.ID <= cur || s.accepted.CompareAndSwap(cur, st.ID) {
				break
			}
		}
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil && r.err == nil {
		r.err = err
	}
	_ = resp.Body.Close() // the body was read to EOF; nothing is lost
	r.doneAt = time.Now()
	return r
}

// doneWatcher consumes the service's event bus like an SSE client would,
// recording when each job's job_done arrives and how many attempts the
// job started. It is how the benchmark sees a job finish; it never polls
// the service.
type doneWatcher struct {
	sub      *service.Subscription
	finished chan struct{}

	mu       sync.Mutex
	done     map[int64]time.Time
	failed   map[int64]bool
	attempts map[int64]int
	events   uint64
	reserves uint64
	expired  uint64
	stopping bool
	dropped  bool
}

// watchBuffer is the subscription's channel size: the bus default replay
// capacity, enough for a few hundred jobs' events should the consumer be
// descheduled; a lagging subscriber is dropped, which fails the run.
const watchBuffer = 1 << 16

func watchBus(svc *service.Service) *doneWatcher {
	_, sub := svc.Subscribe(math.MaxUint64, watchBuffer)
	w := &doneWatcher{
		sub:      sub,
		finished: make(chan struct{}),
		done:     make(map[int64]time.Time),
		failed:   make(map[int64]bool),
		attempts: make(map[int64]int),
	}
	go func() {
		defer close(w.finished)
		for ev := range sub.C {
			now := time.Now()
			w.mu.Lock()
			w.events++
			switch ev.Type {
			case "attempt_start":
				w.attempts[ev.Job]++
			case "job_done":
				w.done[ev.Job] = now
			case "job_fail":
				w.failed[ev.Job] = true
			case "reserve":
				w.reserves++
			case "deadline_expire":
				w.expired++
			}
			w.mu.Unlock()
		}
		w.mu.Lock()
		w.dropped = !w.stopping
		w.mu.Unlock()
	}()
	return w
}

func (w *doneWatcher) stop() {
	w.mu.Lock()
	w.stopping = true
	w.mu.Unlock()
	w.sub.Cancel()
	<-w.finished
}

// job returns when id's job_done arrived and how many attempts it started.
func (w *doneWatcher) job(id int64) (time.Time, bool, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	at, ok := w.done[id]
	return at, ok, w.attempts[id]
}

// wait blocks until every id has a job_done or job_fail, or timeout
// passes, and returns how many are still outstanding.
func (w *doneWatcher) wait(ids []int64, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	pending := append([]int64(nil), ids...)
	for {
		w.mu.Lock()
		left := pending[:0]
		for _, id := range pending {
			if _, ok := w.done[id]; !ok && !w.failed[id] {
				left = append(left, id)
			}
		}
		w.mu.Unlock()
		pending = left
		if len(pending) == 0 || time.Now().After(deadline) {
			return len(pending)
		}
		time.Sleep(time.Millisecond)
	}
}
