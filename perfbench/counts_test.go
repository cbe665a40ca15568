package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.json from this build")

const countsFile = "testdata/counts.json"

// The counts that are deterministic per seed — engine events, audit events
// per kind (which include the core reservation and deadline counts),
// estimator refits, attempts and loans — match the committed values for
// seed 1 exactly. A change that moves them changes scheduling policy; it
// must say so and rewrite the file with -update.
func TestExactCountsSeed1(t *testing.T) {
	got := map[string]exactCounts{}
	for name, sh := range map[string]offlineShape{
		"offline_contended": contendedShape,
		"federated_lending": federatedShape,
	} {
		inputs := make([]*offlineInput, variants)
		for v := range inputs {
			var err error
			if inputs[v], err = makeOfflineInput(sh, 1, v); err != nil {
				t.Fatal(err)
			}
		}
		refs, err := references(sh, inputs)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = countsOf(inputs, refs)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(countsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]exactCounts
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s seed 1 counts changed:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
