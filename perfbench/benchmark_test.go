package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ssr/internal/stats"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloads[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program reports %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: declared %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program reports %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: declared %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// Dilation only shrinks virtual waits that are already negligible, so ten
// times the online dilation leaves the median job latency within the
// bound the benchmark gates it by.
func TestJobLatencyDilationInvariant(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the online stack for several seconds at full speed")
	}
	var bound float64
	for _, m := range readBenchmarkFile(t).EndToEnd {
		if m.Name == "latency_p50_us" {
			bound = m.Bound
		}
	}
	jobs, err := makeOnlineJobs(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p50 := func(dilation float64, seed int64) float64 {
		s, err := startOnline(jobs, dilation, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.close(); err != nil {
				t.Error(err)
			}
		}()
		ls := &loadState{rng: stats.Stream(seed, "dilation")}
		s.open(ls, 500*time.Millisecond, baseRate)
		p := s.open(ls, 3*time.Second, baseRate)
		if p.missing > 0 {
			t.Fatalf("dilation %g: %d jobs not done", dilation, p.missing)
		}
		_, _, job := s.latencies(p)
		return quantile(job, 0.50)
	}
	// Alternate the two settings so drift in the machine's speed hits
	// both alike.
	var base, tenfold []float64
	for i := int64(0); i < 2; i++ {
		base = append(base, p50(onlineDilation, i))
		tenfold = append(tenfold, p50(10*onlineDilation, i))
	}
	if r := median(tenfold) / median(base); r > 1+bound || r < 1-bound {
		t.Fatalf("job p50 %.3f ms at dilation %g vs %.3f ms at %g: ratio %.3f outside 1±%.2f",
			median(tenfold), 10*onlineDilation, median(base), onlineDilation, r, bound)
	}
}

// A short traced online run passes its own correctness checks and
// reports every per-layer metric the HTTP path exercises. Under -race it
// also checks the generator, the bus watcher and the tracer for races.
func TestOnlineTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the online stack for several seconds")
	}
	var out bytes.Buffer
	rep := newReport(&out)
	if err := runOnline(rep, 1, 3*time.Second, true, filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", rep.correct, rep.failed, out.String())
	}
	for _, name := range []string{"http.submit_server_p50_us", "realtime.call_wait_p50_us",
		"service.submit_p50_us", "bus.events_per_job", "trace.spans"} {
		if rep.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, rep.values[name])
		}
	}
}
