// Package bench is the scheduler's performance-trajectory harness: a fixed
// set of end-to-end scenarios measured with testing.Benchmark and emitted
// as a machine-readable BENCH_<n>.json snapshot per PR, so hot-path
// regressions are visible across the repository's history.
//
// Every scenario is deterministic at a fixed seed (the online scenario in
// its workload, the offline ones bit-for-bit): a scenario run returns both
// a decision count and a fingerprint of its final state, and the package
// tests assert that two runs at the same seed produce identical
// fingerprints. That determinism is what makes ns/decision comparable
// across PRs — the work measured is exactly the same work every time.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// SchemaVersion identifies the BENCH_*.json layout.
const SchemaVersion = "ssr-bench/1"

// Scenario is one measured workload.
type Scenario struct {
	// Name keys the scenario in BENCH_*.json; it must be stable across
	// PRs for the trajectory to line up.
	Name string
	// Desc is a one-line description for -list.
	Desc string
	// Run executes one full scenario pass at the given scale and returns
	// the number of scheduler decisions made (engine events fired for
	// offline scenarios, bus events for the online one) plus a
	// deterministic fingerprint of the final state.
	Run func(short bool) (decisions uint64, fingerprint string, err error)
}

// Result is the measurement of one scenario.
type Result struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Decisions is the number of scheduler decisions one op makes.
	Decisions uint64 `json:"decisions"`
	// NsPerDecision and DecisionsPerSec derive from NsPerOp/Decisions;
	// they are the numbers the CI regression gate compares.
	NsPerDecision   float64 `json:"ns_per_decision"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// Extras carries scenario-specific measurements (e.g. online
	// admission→dispatch latency percentiles, in milliseconds).
	Extras map[string]float64 `json:"extras,omitempty"`
}

// Report is the full BENCH_*.json document.
type Report struct {
	Schema    string   `json:"schema"`
	PR        int      `json:"pr"`
	GoVersion string   `json:"go"`
	Short     bool     `json:"short"`
	Scenarios []Result `json:"scenarios"`
}

// extras, when non-nil after a scenario run, is folded into the Result.
// Scenario Run funcs publish side measurements through RecordExtra.
var extras map[string]float64

// RecordExtra attaches a named side measurement (latency percentile,
// throughput split) to the scenario currently being measured. Only the
// values recorded by the last benchmark iteration survive.
func RecordExtra(name string, value float64) {
	if extras == nil {
		extras = make(map[string]float64)
	}
	extras[name] = value
}

// measureRepeats is how many independent testing.Benchmark passes Measure
// takes per scenario; the fastest pass is reported. Min-of-N discards the
// passes a noisy neighbor slowed down, which is what makes a 20% CI gate
// on ns/decision workable on shared runners (allocs/op is deterministic
// and identical across passes).
const measureRepeats = 3

// Measure runs one scenario under testing.Benchmark and derives its Result.
func Measure(s Scenario, short bool) (Result, error) {
	var (
		decisions uint64
		runErr    error
		br        testing.BenchmarkResult
	)
	for rep := 0; rep < measureRepeats; rep++ {
		extras = nil
		got := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, _, err := s.Run(short)
				if err != nil {
					runErr = err
					b.Fatalf("scenario %s: %v", s.Name, err)
				}
				decisions = d
			}
		})
		if runErr != nil {
			return Result{}, runErr
		}
		if rep == 0 || got.NsPerOp() < br.NsPerOp() {
			br = got
		}
	}
	r := Result{
		Name:        s.Name,
		NsPerOp:     br.NsPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
		Decisions:   decisions,
		Extras:      extras,
	}
	if decisions > 0 {
		r.NsPerDecision = float64(br.NsPerOp()) / float64(decisions)
		if br.NsPerOp() > 0 {
			r.DecisionsPerSec = float64(decisions) / (float64(br.NsPerOp()) / 1e9)
		}
	}
	extras = nil
	return r, nil
}

// RunAll measures every scenario whose name matches the filter regexp
// (empty matches all) and assembles the Report.
func RunAll(pr int, short bool, filter string) (*Report, error) {
	var re *regexp.Regexp
	if filter != "" {
		var err error
		re, err = regexp.Compile(filter)
		if err != nil {
			return nil, fmt.Errorf("bench: bad scenario filter %q: %w", filter, err)
		}
	}
	rep := &Report{Schema: SchemaVersion, PR: pr, GoVersion: runtime.Version(), Short: short}
	for _, s := range Scenarios() {
		if re != nil && !re.MatchString(s.Name) {
			continue
		}
		r, err := Measure(s, short)
		if err != nil {
			return nil, fmt.Errorf("bench: scenario %s: %w", s.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, r)
	}
	if len(rep.Scenarios) == 0 {
		return nil, fmt.Errorf("bench: no scenario matches filter %q", filter)
	}
	return rep, nil
}

// WriteFile marshals the report to path with a trailing newline.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a previously written report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &rep, nil
}

// Regression is one scenario whose ns/decision worsened beyond the
// tolerated fraction relative to a baseline report.
type Regression struct {
	Name     string
	Baseline float64 // baseline ns/decision
	Current  float64 // current ns/decision
	Ratio    float64 // Current / Baseline
}

// Compare checks cur against base scenario by scenario and returns the
// regressions whose ns/decision grew by more than maxRegress (0.20 means
// +20%). Scenarios present in only one report are skipped: the trajectory
// gains and loses scenarios as the system grows. Reports at different
// scales (short vs full) are never compared.
func Compare(base, cur *Report, maxRegress float64) ([]Regression, error) {
	if base.Short != cur.Short {
		return nil, fmt.Errorf("bench: cannot compare short=%v against short=%v runs", cur.Short, base.Short)
	}
	byName := make(map[string]Result, len(base.Scenarios))
	for _, r := range base.Scenarios {
		byName[r.Name] = r
	}
	var regs []Regression
	for _, r := range cur.Scenarios {
		b, ok := byName[r.Name]
		if !ok || b.NsPerDecision <= 0 || r.NsPerDecision <= 0 {
			continue
		}
		ratio := r.NsPerDecision / b.NsPerDecision
		if ratio > 1+maxRegress {
			regs = append(regs, Regression{
				Name:     r.Name,
				Baseline: b.NsPerDecision,
				Current:  r.NsPerDecision,
				Ratio:    ratio,
			})
		}
	}
	return regs, nil
}
