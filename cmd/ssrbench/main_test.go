package main

import "testing"

func TestPRFromPath(t *testing.T) {
	for _, tc := range []struct {
		path string
		want int
	}{
		{"BENCH_10.json", 10},
		{"out/dir/BENCH_13.json", 13},
		{"", 0},
		{"/tmp/cur.json", 0},
		{"BENCH_x.json", 0},
		{"BENCH_10.json.bak", 0},
		{"BENCH_-3.json", 0},
	} {
		if got := prFromPath(tc.path); got != tc.want {
			t.Errorf("prFromPath(%q) = %d, want %d", tc.path, got, tc.want)
		}
	}
}
