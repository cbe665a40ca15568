package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredPart(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) [2]time.Time { return [2]time.Time{at(a), at(b)} }
	cases := []struct {
		name     string
		children [][2]time.Time
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", [][2]time.Time{iv(10, 20), iv(30, 50)}, 70 * time.Millisecond},
		{"overlapping count once", [][2]time.Time{iv(10, 40), iv(30, 60), iv(35, 45)}, 50 * time.Millisecond},
		{"clipped to the parent", [][2]time.Time{iv(-20, 10), iv(90, 130)}, 80 * time.Millisecond},
		{"outside the parent", [][2]time.Time{iv(120, 130)}, 100 * time.Millisecond},
		{"covering it all", [][2]time.Time{iv(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(at(0), at(100), c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

// Nested push/pop charges a child's whole duration to its parent, so the
// parent's self time plus its children's durations is its duration.
func TestNestedSpansSelfTime(t *testing.T) {
	tr := newTracer(10)
	tr.push(layerPass, "pass")
	time.Sleep(2 * time.Millisecond)
	tr.push(layerSched, "Best")
	time.Sleep(3 * time.Millisecond)
	child := tr.pop()
	tr.push(layerEstimate, "Knobs")
	time.Sleep(time.Millisecond)
	child += tr.pop()
	parent := tr.pop()
	pass := tr.layer(layerPass)
	if pass.total != parent || pass.self != parent-child {
		t.Fatalf("pass total %v self %v; want %v and %v", pass.total, pass.self, parent, parent-child)
	}
	if s := tr.layer(layerSched); s.self != s.total || s.calls != 1 {
		t.Fatalf("a leaf's self time is its duration: %+v", s)
	}
	if len(tr.spans) != 3 || tr.spans[0].Parent != tr.spans[2].ID || tr.spans[1].Parent != tr.spans[2].ID {
		t.Fatalf("children must name the pass as parent: %+v", tr.spans)
	}
}

// The self-time check compares the layers' self times with a wall time
// taken outside the tracer: nested spans inside that wall pass, a span
// whose self time is longer than the wall fails.
func TestSelfWithinWall(t *testing.T) {
	tr := newTracer(10)
	start := time.Now()
	tr.push(layerPass, "pass")
	tr.push(layerSched, "Best")
	time.Sleep(time.Millisecond)
	tr.pop()
	tr.pop()
	if ok, detail := tr.selfWithinWall(time.Since(start), layerPass, layerSched); !ok {
		t.Fatalf("nested spans inside the wall: %s", detail)
	}

	tr = newTracer(10)
	t0 := time.Now()
	tr.add(layerEstimate, "Knobs", 0, t0, t0.Add(10*time.Millisecond), nil)
	if ok, detail := tr.selfWithinWall(5*time.Millisecond, layerPass, layerEstimate); ok {
		t.Fatalf("a 10ms self time passed against a 5ms wall: %s", detail)
	}
	if ok, detail := tr.selfWithinWall(10*time.Millisecond, layerEstimate); !ok {
		t.Fatalf("a self time equal to the wall failed: %s", detail)
	}
}

func TestLogHistQuantile(t *testing.T) {
	var h logHist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000 * float64(time.Microsecond)
		got := float64(h.quantile(q))
		if got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.2f = %v, want about %v", q, time.Duration(got), time.Duration(want))
		}
	}
}
