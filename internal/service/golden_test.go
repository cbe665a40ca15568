package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ssr/internal/core"
	"ssr/internal/dag"
	"ssr/internal/driver"
	"ssr/internal/estimate"
	"ssr/internal/obs"
	"ssr/internal/shard"
	"ssr/internal/stats"
	"ssr/internal/trace"
	"ssr/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden after a deliberate behaviour change")

// goldenJobs is the golden run's workload: the ML suite reshaped to a
// Pareto tail (so straggler copies fire), the SQL suite at twice its width
// (so phases outgrow a shard and borrow), and a background batch.
func goldenJobs(t *testing.T) []*dag.Job {
	t.Helper()
	rng := stats.Stream(7, "golden-fg")
	var jobs []*dag.Job
	add := func(j *dag.Job, err error) {
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	at := 10 * time.Second
	for _, spec := range workload.MLSuite() {
		j, err := spec.Build(dag.JobID(len(jobs)+1), 10, at, rng)
		if err == nil {
			j, err = workload.ParetoReshape(j, 1.6, rng)
		}
		add(j, err)
		at += 15 * time.Second
	}
	for _, spec := range workload.SQLQueries(2) {
		add(spec.Build(dag.JobID(len(jobs)+1), 10, at, rng))
		at += 10 * time.Second
	}
	bg, err := workload.Background(workload.BackgroundConfig{
		Jobs: 40, Window: 2 * time.Minute, MeanTask: 6 * time.Second,
		Alpha: 1.6, DurationScale: 1, MaxParallelism: 16,
	}, 100, 1, stats.Stream(7, "golden-bg"))
	if err != nil {
		t.Fatal(err)
	}
	return append(jobs, bg...)
}

// TestGoldenStreams pins every consumer of the driver's event stream byte
// for byte on one deterministic run: a K=4 lending federation with the
// estimator on, straggler copies, one node drain (which migrates
// reservations) and one node failure (which kills attempts and voids
// reservations). The fixtures are the audit ring and the bus's wire events
// as JSONL, the trace as CSV and JSON, and the Prometheus text.
func TestGoldenStreams(t *testing.T) {
	audit := obs.NewAudit(8192)
	reg := obs.NewRegistry()
	est := estimate.New(estimate.Config{})
	est.Export(reg)
	rec := trace.NewRecorder()
	tracer := obs.Tracer(rec)
	var wire bytes.Buffer
	enc, seq := json.NewEncoder(&wire), uint64(0)
	fed, err := shard.New(shard.Options{
		Shards: 4, Nodes: 24, SlotsPerNode: 4, Audit: audit, Registry: reg,
		Driver: driver.Options{
			Mode: driver.ModeSSR,
			SSR: core.Config{IsolationP: 0.9, Alpha: 1.6, PreReserveThreshold: 0.4,
				MitigateStragglers: true},
			ReserveMinPriority: 10,
			Adaptive:           est,
			OnEvent: func(ev *obs.AuditEvent) {
				tracer(ev)
				if w, ok := wireEvent(ev); ok {
					seq++
					w.Seq = seq
					_ = enc.Encode(w) // flat struct into a bytes.Buffer: cannot fail
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range goldenJobs(t) {
		if _, err := fed.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	sh := fed.Shards()
	at := func(s int, sec time.Duration, fn func(*driver.Driver) error) {
		sh[s].Eng.At(sec*time.Second, func() {
			if err := fn(sh[s].Drv); err != nil {
				t.Error(err)
			}
		})
	}
	at(3, 40, func(d *driver.Driver) error { return d.DrainNode(2, 8*time.Second) })
	at(0, 60, func(d *driver.Driver) error { return d.FailNode(0) })
	at(0, 90, func(d *driver.Driver) error { return d.RecoverNode(0) })
	if err := fed.Run(); err != nil {
		t.Fatal(err)
	}
	if audit.Dropped() != 0 {
		t.Fatalf("audit ring dropped %d events", audit.Dropped())
	}

	outputs := []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"audit.jsonl", func(b *bytes.Buffer) error { return audit.WriteJSONL(b) }},
		{"wire.jsonl", func(b *bytes.Buffer) error { _, err := b.Write(wire.Bytes()); return err }},
		{"trace.csv", func(b *bytes.Buffer) error { return rec.WriteCSV(b) }},
		{"trace.json", func(b *bytes.Buffer) error { return rec.WriteJSON(b) }},
		{"metrics.prom", func(b *bytes.Buffer) error { return reg.WritePrometheus(b) }},
	}
	for _, out := range outputs {
		var got bytes.Buffer
		if err := out.write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden", out.name)
		if *updateGolden {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			n := 0
			for n < min(got.Len(), len(want)) && got.Bytes()[n] == want[n] {
				n++
			}
			t.Errorf("%s differs from %s at byte %d (%d vs %d bytes)", out.name, path, n, got.Len(), len(want))
		}
	}
}
