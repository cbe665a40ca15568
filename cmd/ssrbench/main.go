// Command ssrbench runs the scheduler benchmark scenarios and writes the
// per-PR BENCH_*.json trajectory snapshot. It is the engine behind
// scripts/bench.sh and the CI bench job.
//
//	ssrbench -short -out BENCH_7.json
//	ssrbench -list
//	ssrbench -short -out /tmp/cur.json -baseline BENCH_6.json -max-regress 0.20
//
// With -baseline, the run exits 1 when any scenario's ns/decision
// regresses by more than -max-regress relative to the baseline report.
// Without -pr, the PR number stamped into the report is read from the
// -out file name (BENCH_<n>.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ssr/internal/bench"
)

func main() {
	var (
		short      = flag.Bool("short", false, "run scenarios at reduced scale (CI)")
		out        = flag.String("out", "", "write BENCH JSON report to this path")
		pr         = flag.Int("pr", 0, "PR number stamped into the report (default: <n> of an -out named BENCH_<n>.json)")
		scenarios  = flag.String("scenarios", "", "regexp filtering scenario names (default all)")
		baseline   = flag.String("baseline", "", "prior BENCH_*.json to gate against")
		maxRegress = flag.Float64("max-regress", 0.20, "tolerated ns/decision growth vs baseline (0.20 = +20%)")
		list       = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range bench.Scenarios() {
			fmt.Printf("%-20s %s\n", s.Name, s.Desc)
		}
		return
	}

	if *pr == 0 {
		*pr = prFromPath(*out)
	}
	rep, err := bench.RunAll(*pr, *short, *scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssrbench:", err)
		os.Exit(1)
	}
	for _, r := range rep.Scenarios {
		fmt.Printf("%-20s %12d ns/op %8d allocs/op %10d B/op %10d decisions %10.1f ns/decision %12.0f decisions/s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.Decisions, r.NsPerDecision, r.DecisionsPerSec)
		for k, v := range r.Extras { //maporder:ok diagnostic printout only
			fmt.Printf("%-20s   extra %s = %.3f\n", "", k, v)
		}
	}
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "ssrbench: write report:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	if *baseline != "" {
		base, err := bench.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssrbench: read baseline:", err)
			os.Exit(1)
		}
		regs, err := bench.Compare(base, rep, *maxRegress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ssrbench:", err)
			os.Exit(1)
		}
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "ssrbench: REGRESSION %s: %.1f -> %.1f ns/decision (%.0f%% over baseline, tolerance %.0f%%)\n",
					r.Name, r.Baseline, r.Current, 100*(r.Ratio-1), 100**maxRegress)
			}
			os.Exit(1)
		}
		fmt.Printf("no ns/decision regression beyond %.0f%% vs %s\n", 100**maxRegress, *baseline)
	}
}

// prFromPath returns n for a report path whose file name is BENCH_<n>.json,
// and 0 for any other path.
func prFromPath(path string) int {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}
