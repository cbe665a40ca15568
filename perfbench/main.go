// Command perfbench is the repository's benchmark. It runs one of three
// workloads in the configuration ssrd ships (audit, metrics registry and
// adaptive estimator on, two baseline workers) and prints its metrics,
// ending with one JSON line:
//
//	perfbench --workload offline_contended --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - offline_contended: the ML and SQL foreground suites against a
//     2000-job heavy-tailed background batch on 1000 nodes x 4 slots,
//     driven directly through driver and sim. Reservations, deadlines,
//     pre-reservation and estimator refits under contention dominate; no
//     HTTP, realtime or bus code runs.
//   - federated_lending: the same kind of load through shard.New with 16
//     shards and cross-shard lending, one audit, registry and estimator
//     shared across shards as ssrd -shards wires them. The global-min
//     stepper and the lending broker work here and nowhere else.
//   - online_http: service.New behind service.NewHandler on a loopback
//     listener, driven open-loop with Poisson arrivals by an in-process
//     generator on two connections: job submits from two tenants, job
//     lookups and list pages alongside, and a periodic Prometheus scrape.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics, measured from spans recorded around
// the calls the benchmark makes into each layer, writes those spans to
// --spans and reports the tracing overhead against an untraced run. A
// failed correctness check makes the exit code 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

var workloads = []string{"offline_contended", "federated_lending", "online_http"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: offline_contended, federated_lending or online_http")
		seed     = fs.Int64("seed", 1, "seed every input is drawn from")
		seconds  = fs.Int("seconds", 20, "how long the run measures")
		traced   = fs.Int("trace", 0, "1 runs the traced per-layer measurement")
		spans    = fs.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	rep := newReport(stdout)
	budget := time.Duration(*seconds) * time.Second
	spansPath := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	var err error
	switch *workload {
	case "offline_contended":
		err = runOffline(rep, contendedShape, *seed, budget, *traced == 1, spansPath)
	case "federated_lending":
		err = runOffline(rep, federatedShape, *seed, budget, *traced == 1, spansPath)
	case "online_http":
		err = runOnline(rep, *seed, budget, *traced == 1, spansPath)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.info("failed_share %.6f (%d failed of %d attempted)",
		share(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	defs, requireAll := endToEnd, true
	if *traced == 1 {
		defs, requireAll = perLayer, false
	}
	if err := rep.finish(defs, requireAll); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintln(stderr, "perfbench: a correctness check failed")
		return 1
	}
	return 0
}
