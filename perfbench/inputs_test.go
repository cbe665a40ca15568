package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ssr/internal/estimate"
	"ssr/internal/service"
	"ssr/internal/stats"
	"ssr/internal/workload"
)

// smallShape is a scaled-down offline workload that keeps tests fast.
var smallShape = offlineShape{
	nodes: 40, slotsPerNode: 2, shards: 4,
	bg: workload.BackgroundConfig{Jobs: 60, Window: 2 * time.Minute,
		MeanTask: 20 * time.Second, Alpha: 1.6, DurationScale: 1, MaxParallelism: 20},
	sqlScale: 1, fgGap: 5 * time.Second,
}

func specsOf(in *offlineInput) []service.JobSpec {
	out := make([]service.JobSpec, len(in.jobs))
	for i, j := range in.jobs {
		out[i] = service.SpecOf(j)
	}
	return out
}

func TestOfflineInputsReproducible(t *testing.T) {
	a, err := makeOfflineInput(contendedShape, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeOfflineInput(contendedShape, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specsOf(a), specsOf(b)) || a.tasks != b.tasks {
		t.Fatal("same seed and variant built different inputs")
	}
	c, err := makeOfflineInput(contendedShape, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(specsOf(a), specsOf(c)) {
		t.Fatal("different seeds built identical inputs")
	}
	d, err := makeOfflineInput(contendedShape, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(specsOf(a), specsOf(d)) {
		t.Fatal("different variants built identical inputs")
	}
}

func TestOnlineInputsReproducible(t *testing.T) {
	a, err := makeOnlineJobs(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeOnlineJobs(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].tasks != b[i].tasks {
			t.Fatalf("job %d differs between two draws of one seed", i)
		}
	}
	c, err := makeOnlineJobs(4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[0].body, c[0].body) && bytes.Equal(a[1].body, c[1].body) {
		t.Fatal("different seeds drew the same jobs")
	}
	s1 := poissonSchedule(stats.Stream(3, "load"), time.Second, 300, readRatio, scrapeEvery, 0)
	s2 := poissonSchedule(stats.Stream(3, "load"), time.Second, 300, readRatio, scrapeEvery, 0)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed drew different schedules")
	}
}

// Every online job name must fall in a preset class, so the estimator's
// class count stays bounded.
func TestOnlineJobClassesBounded(t *testing.T) {
	jobs, err := makeOnlineJobs(5, 2000)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]bool{}
	for _, j := range jobs {
		var spec service.JobSpec
		if err := json.Unmarshal(j.body, &spec); err != nil {
			t.Fatal(err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		classes[spec.Tenant+"/"+estimate.ClassOf(spec.Name)] = true
	}
	if limit := presetClasses() * len(onlineTenants); len(classes) > limit {
		t.Fatalf("%d (tenant, class) pairs, more than %d", len(classes), limit)
	}
}

// Two passes over one input agree on every fingerprint field, traced or
// not: the exact counts the benchmark gates on are deterministic.
func TestPassFingerprintDeterministic(t *testing.T) {
	in, err := makeOfflineInput(smallShape, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runPass(smallShape, in, fullAudit, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.kinds == nil || ref.fp.Jobs != len(in.jobs) {
		t.Fatalf("reference pass: kinds kept %v, %d of %d jobs", ref.kinds != nil, ref.fp.Jobs, len(in.jobs))
	}
	var lat logHist
	timed, err := runPass(smallShape, in, 0, &lat, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(100)
	traced, err := runPass(smallShape, in, 0, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if timed.fp != ref.fp || traced.fp != ref.fp {
		t.Fatalf("fingerprints differ:\nref    %s\ntimed  %s\ntraced %s", ref.fp, timed.fp, traced.fp)
	}
	if lat.n != ref.fp.Events {
		t.Fatalf("timed %d events, pass fired %d", lat.n, ref.fp.Events)
	}
	if uint64(len(traced.est.refits)) != ref.fp.Refits {
		t.Fatalf("wrapper saw %d refits, estimator %d", len(traced.est.refits), ref.fp.Refits)
	}
	if tr.layer(layerStep).calls != ref.fp.Events+1 {
		t.Fatalf("%d step spans for %d events", tr.layer(layerStep).calls, ref.fp.Events)
	}
}
