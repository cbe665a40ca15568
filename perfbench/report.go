package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. Throughput is jobs completed per CPU second of
// the whole process, so it prices CPU work and not the time the machine's
// other tenants steal; set-up is CPU time for the same reason. Latency is
// wall time of one unit of blocking work: an engine event offline (how
// long a scheduling decision holds the loop), a job online (from its due
// time to its job_done event).
var endToEnd = []metricDef{
	{"jobs_per_cpu_s", "1/s"},
	{"latency_p50_us", "us"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. Every workload prints all of
// them; a layer the workload does not exercise (lending offline on one
// cluster, HTTP offline) reads 0.
var perLayer = []metricDef{
	{"driver.events", "count"},
	{"driver.self_ns_per_event", "ns"},
	{"driver.event_p99_us", "us"},
	{"driver.attempts_per_task", "ratio"},
	{"sched.calls", "count"},
	{"sched.ns_per_call", "ns"},
	{"sched.busy_share", "share"},
	{"estimate.calls", "count"},
	{"estimate.refits", "count"},
	{"estimate.refit_us_p50", "us"},
	{"estimate.busy_share", "share"},
	{"estimate.accept_share", "share"},
	{"obs.audit_events", "count"},
	{"obs.audit_append_ns", "ns"},
	{"obs.prometheus_write_us", "us"},
	{"core.reservations", "count"},
	{"core.prereservations", "count"},
	{"core.deadline_expired_share", "share"},
	{"shard.loans_granted", "count"},
	{"shard.loan_use_share", "share"},
	{"shard.stepper_ns_per_event", "ns"},
	{"http.submit_server_p50_us", "us"},
	{"http.submit_server_p99_us", "us"},
	{"http.read_server_p99_us", "us"},
	{"http.transport_p50_us", "us"},
	{"http.non2xx", "count"},
	{"service.submit_p50_us", "us"},
	{"service.submit_p99_us", "us"},
	{"service.decode_validate_us", "us"},
	{"realtime.call_wait_p50_us", "us"},
	{"realtime.call_wait_p99_us", "us"},
	{"bus.events_per_job", "ratio"},
	{"bus.dropped_subscribers", "count"},
	{"baseline.dropped_share", "share"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.alloc_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"online.job_p99_ms", "ms"},
	{"online.max_rate_jobs_s", "1/s"},
	{"online.submit_p50_ms", "ms"},
	{"online.submit_p99_ms", "ms"},
	{"online.read_p50_ms", "ms"},
	{"online.read_p99_ms", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.spans", "count"},
}

// report accumulates one run's outcome.
type report struct {
	out       io.Writer
	values    map[string]float64
	correct   bool
	attempted int64
	failed    int64
}

func newReport(out io.Writer) *report {
	return &report{out: out, values: make(map[string]float64), correct: true}
}

// set records a metric value and prints it with its unit and the number
// of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	fmt.Fprintf(r.out, "metric %-30s %14.4f %-6s n=%d\n", name, v, unitOf(name), samples)
}

// info prints a figure that is not one of the declared metrics.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "info   "+format+"\n", args...)
}

// check records a correctness check; a failed one fails the run.
func (r *report) check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		r.correct = false
	}
	fmt.Fprintf(r.out, "check  %-30s %s %s\n", name, status, detail)
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish writes the result line: every metric of defs, with metrics the
// workload does not measure at 0. With requireAll, a missing metric is an
// error instead: every workload measures every end-to-end metric.
func (r *report) finish(defs []metricDef, requireAll bool) error {
	res := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		if requireAll {
			return fmt.Errorf("metrics not measured: %v", missing)
		}
		r.info("not exercised by this workload (reported as 0): %v", missing)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.out, string(b))
	return err
}
