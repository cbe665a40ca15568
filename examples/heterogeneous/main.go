// Heterogeneous resource demands (the paper's Sec. III-C discussion): a
// Tez-style job whose phases need different slot sizes runs on a cluster
// mixing small and large slots. When a phase's slots are too small for the
// downstream tasks, speculative slot reservation releases them immediately
// and pre-reserves right-sized slots instead — keeping both isolation (the
// job gets big slots at the barrier) and utilization (the small slots go
// back to the pool at once).
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"time"

	"ssr/internal/cluster"
	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/obs"
	"ssr/internal/sim"
	"ssr/internal/stats"
	"ssr/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 4 nodes, each with two small (size-1) and one large (size-4) slot.
	eng := sim.New()
	cl, err := cluster.NewSized(4, []int{1, 1, 4})
	if err != nil {
		return err
	}
	rec := &trace.Recorder{}
	d, err := driver.New(eng, cl, driver.Options{
		Mode:    driver.ModeSSR,
		SSR:     core.DefaultConfig(),
		OnEvent: obs.Tracer(rec),
	})
	if err != nil {
		return err
	}

	// A Tez-style pipeline: a wide scan of small tasks, then a join that
	// needs big (size-4) containers, then a small aggregation.
	rng := stats.NewRNG(4)
	dist, err := stats.LogNormalWithMean(0.3, 3)
	if err != nil {
		return err
	}
	phase := func(tasks, demand int) dag.PhaseSpec {
		ds := make([]time.Duration, tasks)
		for i := range ds {
			ds[i] = time.Duration(dist.Sample(rng) * float64(time.Second))
		}
		return dag.PhaseSpec{Durations: ds, Demand: demand}
	}
	etl, err := dag.Chain(1, "tez-etl", 10, []dag.PhaseSpec{
		phase(8, 1), // scan on the small slots
		phase(4, 4), // join needs the big containers
		phase(2, 1), // aggregate back on small slots
	})
	if err != nil {
		return err
	}
	// Low-priority batch work that would love to keep the big slots.
	batch, err := dag.Chain(2, "batch", 1, []dag.PhaseSpec{phase(24, 1)})
	if err != nil {
		return err
	}
	for _, j := range []*dag.Job{etl, batch} {
		if err := d.Submit(j); err != nil {
			return err
		}
	}
	if err := d.Run(); err != nil {
		return err
	}

	for _, st := range d.Results() {
		fmt.Printf("%-8s JCT=%v\n", st.Job.Name, st.JCT().Round(time.Millisecond))
	}
	fmt.Printf("reserved-idle slot-time: %v\n", d.Usage().ReservedIdleTime().Round(time.Millisecond))
	fmt.Println()
	fmt.Println(trace.Gantt(rec.Events(), trace.GanttOptions{Width: 96}))
	fmt.Println("Rows 2, 5, 8, 11 are the size-4 slots. Watch the etl job's scan")
	fmt.Println("slots get released at its first barrier (they cannot host the")
	fmt.Println("size-4 join) while right-sized slots are pre-reserved for it.")
	return nil
}
