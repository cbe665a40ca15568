// Package shard federates K independent scheduler engines behind one
// submission API: the cluster is partitioned into K shards, each with its
// own sim engine, cluster and driver; a router places incoming jobs onto
// shards; and a lending broker implements cross-shard SSR pre-reservation
// (the Algorithm 1 n > m refinement generalized across partitions, in the
// spirit of Ueter et al.'s reservation-based federated scheduling).
//
// Offline, the federation steps all K engines on one goroutine in global
// virtual-time order, which keeps every run deterministic; the online
// service layer (internal/service) instead wraps each shard in its own
// realtime.Runner and uses the asynchronous broker. With K = 1 the
// federation degenerates to exactly one driver with no lender, so its
// output is bit-identical to an unsharded run.
package shard

import (
	"errors"
	"fmt"

	"ssr/internal/cluster"
	"ssr/internal/driver"
	"ssr/internal/obs"
	"ssr/internal/sim"
)

// Options configures a Federation.
type Options struct {
	// Shards is the number of partitions K. Default 1.
	Shards int
	// Nodes and SlotsPerNode size the whole federation; nodes are split
	// across shards as evenly as possible (shard i gets Nodes/K nodes,
	// plus one of the Nodes%K remainder when i < Nodes%K).
	Nodes        int
	SlotsPerNode int
	// Driver is the per-shard scheduler configuration. Queue and Lender
	// must be left nil (each shard gets its own queue; the federation
	// wires the lender). Driver.OnEvent receives every shard's event
	// stream, each event tagged with its shard index; the federation
	// steps all shards on one goroutine, so the hook needs no locking.
	// Driver.Adaptive passes through to every shard as-is: a class's tail
	// is a property of the workload, not of the partition, so all shards
	// should share one estimate.Registry. Offline this stays deterministic
	// because a single goroutine steps every shard engine in turn.
	Driver driver.Options
	// Router places submitted jobs onto shards. Default HashRouter.
	Router Router
	// Lending parameterizes the cross-shard lending broker.
	Lending LendingConfig
	// Audit, when non-nil, receives every shard's reservation-decision
	// events tagged with the shard index (driver.Options.AuditShard).
	// Set it here, not on Driver: the federation owns the shard tags.
	Audit *obs.Audit
	// Registry, when non-nil, gets one SchedMetrics family set per shard,
	// each labeled shard="i", so a single scrape reads the whole
	// federation.
	Registry *obs.Registry
}

// Shard is one partition: an engine, a cluster and a driver of its own.
type Shard struct {
	// Index is the shard's position in the federation.
	Index int
	// Eng, Cl and Drv are the shard's simulation engine, slot pool and
	// scheduler.
	Eng *sim.Engine
	Cl  *cluster.Cluster
	Drv *driver.Driver

	assigned int // cumulative jobs routed here
	pending  int // routed jobs not yet finished
}

// NodeSplit returns the per-shard node counts for total nodes over k
// shards: an even split with the remainder spread over the first shards.
func NodeSplit(nodes, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = nodes / k
		if i < nodes%k {
			out[i]++
		}
	}
	return out
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Shards == 0 {
		out.Shards = 1
	}
	if out.Router == nil {
		out.Router = HashRouter{}
	}
	out.Lending = out.Lending.withDefaults()
	return out
}

func (o *Options) validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("shard: Shards %d must be >= 1", o.Shards)
	}
	if o.Nodes < o.Shards {
		return fmt.Errorf("shard: %d nodes cannot cover %d shards", o.Nodes, o.Shards)
	}
	if o.Driver.Queue != nil {
		return errors.New("shard: Driver.Queue must be nil (each shard builds its own)")
	}
	if o.Driver.Lender != nil {
		return errors.New("shard: Driver.Lender must be nil (the federation wires its broker)")
	}
	if o.Driver.Audit != nil || o.Driver.Metrics != nil {
		return errors.New("shard: use Options.Audit/Registry, not Driver.Audit/Metrics (the federation tags shards)")
	}
	return nil
}
