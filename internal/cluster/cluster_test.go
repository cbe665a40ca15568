package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssr/internal/dag"
)

func mustCluster(t *testing.T, nodes, perNode int) *Cluster {
	t.Helper()
	c, err := New(nodes, perNode)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("nodes=0 should error")
	}
	if _, err := New(2, 0); err == nil {
		t.Error("perNode=0 should error")
	}
	if _, err := New(-1, -1); err == nil {
		t.Error("negative sizes should error")
	}
}

func TestNewLayout(t *testing.T) {
	c := mustCluster(t, 3, 2)
	if c.NumSlots() != 6 || c.NumNodes() != 3 {
		t.Fatalf("got %d slots / %d nodes, want 6/3", c.NumSlots(), c.NumNodes())
	}
	if got := c.Slot(3).Node; got != 1 {
		t.Errorf("slot 3 on node %d, want 1", got)
	}
	if got := c.Slot(5).Node; got != 2 {
		t.Errorf("slot 5 on node %d, want 2", got)
	}
	if c.Slot(-1) != nil || c.Slot(6) != nil {
		t.Error("out-of-range Slot should return nil")
	}
	if got := c.CountState(Free); got != 6 {
		t.Errorf("initial free count = %d, want 6", got)
	}
}

func TestAcquireFreeLowestID(t *testing.T) {
	c := mustCluster(t, 2, 2)
	for want := SlotID(0); want < 4; want++ {
		id, ok := c.AcquireFree(1)
		if !ok {
			t.Fatalf("AcquireFree failed at %d", want)
		}
		if id != want {
			t.Errorf("AcquireFree = %d, want %d (lowest first)", id, want)
		}
	}
	if _, ok := c.AcquireFree(1); ok {
		t.Error("AcquireFree on exhausted cluster should fail")
	}
}

func TestReleaseAndReacquire(t *testing.T) {
	c := mustCluster(t, 1, 2)
	id, _ := c.AcquireFree(1)
	if err := c.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := c.Slot(id).State(); got != Free {
		t.Errorf("state after release = %v, want Free", got)
	}
	id2, ok := c.AcquireFree(1)
	if !ok || id2 != id {
		t.Errorf("reacquire = %d/%v, want %d/true", id2, ok, id)
	}
}

func TestReleaseErrors(t *testing.T) {
	c := mustCluster(t, 1, 1)
	if err := c.Release(99); err == nil {
		t.Error("release of unknown slot should error")
	}
	if err := c.Release(0); err == nil {
		t.Error("release of a free slot should error")
	}
}

func TestReserveLifecycle(t *testing.T) {
	c := mustCluster(t, 1, 2)
	id, _ := c.AcquireFree(1) // busy
	res := Reservation{Job: 7, Priority: 5, Phase: 1}
	if err := c.Reserve(id, res); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if got := c.Slot(id).State(); got != Reserved {
		t.Fatalf("state = %v, want Reserved", got)
	}
	gotRes, ok := c.Slot(id).Reservation()
	if !ok || gotRes != res {
		t.Errorf("Reservation = %+v/%v, want %+v/true", gotRes, ok, res)
	}
	if got := c.ReservedCount(7); got != 1 {
		t.Errorf("ReservedCount = %d, want 1", got)
	}
	if got := c.TotalReserved(); got != 1 {
		t.Errorf("TotalReserved = %d, want 1", got)
	}
	// A reserved slot is not given out by AcquireFree.
	other, ok := c.AcquireFree(1)
	if !ok || other == id {
		t.Errorf("AcquireFree = %d/%v, want the other slot", other, ok)
	}
	if _, ok := c.AcquireFree(1); ok {
		t.Error("no free slots should remain")
	}
	// The reserving job gets it back.
	got, ok := c.AcquireReservedFor(7, 1)
	if !ok || got != id {
		t.Errorf("AcquireReservedFor = %d/%v, want %d/true", got, ok, id)
	}
	if c.ReservedCount(7) != 0 {
		t.Error("reservation should be consumed on acquire")
	}
	if _, ok := c.Slot(id).Reservation(); ok {
		t.Error("busy slot should carry no reservation")
	}
}

func TestReserveErrors(t *testing.T) {
	c := mustCluster(t, 1, 2)
	if err := c.Reserve(99, Reservation{Job: 1}); err == nil {
		t.Error("reserve of unknown slot should error")
	}
	id, _ := c.AcquireFree(1)
	if err := c.Reserve(id, Reservation{Job: 1, Priority: 2}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := c.Reserve(id, Reservation{Job: 2, Priority: 9}); err == nil {
		t.Error("double reserve should error")
	}
}

func TestReserveFreeSlotForPreReservation(t *testing.T) {
	c := mustCluster(t, 1, 2)
	// Pre-reservation captures an idle free slot directly.
	if err := c.Reserve(0, Reservation{Job: 3, Priority: 4}); err != nil {
		t.Fatalf("Reserve free slot: %v", err)
	}
	// The lazily stale free-heap entry must not leak the reserved slot.
	id, ok := c.AcquireFree(1)
	if !ok || id != 1 {
		t.Errorf("AcquireFree = %d/%v, want 1/true", id, ok)
	}
	if _, ok := c.AcquireFree(1); ok {
		t.Error("reserved slot must not be acquirable as free")
	}
}

func TestCancelReservation(t *testing.T) {
	c := mustCluster(t, 1, 1)
	id, _ := c.AcquireFree(1)
	if err := c.Reserve(id, Reservation{Job: 1, Priority: 1}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := c.CancelReservation(id); err != nil {
		t.Fatalf("CancelReservation: %v", err)
	}
	if got := c.Slot(id).State(); got != Free {
		t.Errorf("state = %v, want Free", got)
	}
	if c.ReservedCount(1) != 0 {
		t.Error("reservation count should drop to 0")
	}
	got, ok := c.AcquireFree(1)
	if !ok || got != id {
		t.Error("canceled slot should be acquirable as free")
	}
	if err := c.CancelReservation(id); err == nil {
		t.Error("cancel on a busy slot should error")
	}
	if err := c.CancelReservation(99); err == nil {
		t.Error("cancel on unknown slot should error")
	}
}

func TestAcquireOverride(t *testing.T) {
	c := mustCluster(t, 1, 4)
	for i := 0; i < 4; i++ {
		c.AcquireFree(1)
	}
	mustReserve := func(id SlotID, job dag.JobID, prio dag.Priority) {
		t.Helper()
		if err := c.Reserve(id, Reservation{Job: job, Priority: prio}); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	mustReserve(0, 1, 5)
	mustReserve(1, 2, 3)
	mustReserve(2, 3, 8)

	// Priority 4 can only override the priority-3 reservation.
	id, ok := c.AcquireOverride(4, 1)
	if !ok || id != 1 {
		t.Errorf("AcquireOverride(4) = %d/%v, want 1/true", id, ok)
	}
	// Priority 3 cannot override anything (5 and 8 remain).
	if _, ok := c.AcquireOverride(3, 1); ok {
		t.Error("AcquireOverride(3) should fail")
	}
	// Priority 9 overrides the lowest-priority reservation first (job 1, prio 5).
	id, ok = c.AcquireOverride(9, 1)
	if !ok || id != 0 {
		t.Errorf("AcquireOverride(9) = %d/%v, want 0/true", id, ok)
	}
	// Equal priority does not override.
	if _, ok := c.AcquireOverride(8, 1); ok {
		t.Error("equal priority must not override")
	}
}

func TestTryAcquire(t *testing.T) {
	c := mustCluster(t, 1, 3)
	// Free slot: anyone can take it.
	if !c.TryAcquire(0, 1, 1, 1) {
		t.Error("TryAcquire on free slot should succeed")
	}
	// Busy slot: nobody can.
	if c.TryAcquire(0, 1, 99, 1) {
		t.Error("TryAcquire on busy slot should fail")
	}
	// Reserved slot: reserving job can take it.
	c.AcquireFree(1) // slot 1 busy
	if err := c.Reserve(1, Reservation{Job: 5, Priority: 4}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if c.TryAcquire(1, 6, 4, 1) {
		t.Error("equal-priority other job must not take a reserved slot")
	}
	if c.TryAcquire(1, 6, 3, 1) {
		t.Error("lower-priority other job must not take a reserved slot")
	}
	if !c.TryAcquire(1, 5, 4, 1) {
		t.Error("reserving job should take its own reserved slot")
	}
	// Higher priority overrides.
	c.AcquireFree(1) // slot 2 busy
	if err := c.Reserve(2, Reservation{Job: 5, Priority: 4}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if !c.TryAcquire(2, 6, 5, 1) {
		t.Error("higher-priority job should override the reservation")
	}
	// Unknown slot.
	if c.TryAcquire(42, 1, 1, 1) {
		t.Error("TryAcquire on unknown slot should fail")
	}
}

func TestReservedSlotsSortedCopy(t *testing.T) {
	c := mustCluster(t, 1, 4)
	for i := 0; i < 4; i++ {
		c.AcquireFree(1)
	}
	for _, id := range []SlotID{3, 0, 2} {
		if err := c.Reserve(id, Reservation{Job: 1, Priority: 1}); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	got := c.ReservedSlots(1)
	want := []SlotID{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ReservedSlots = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReservedSlots = %v, want %v", got, want)
		}
	}
	got[0] = 99 // mutating the copy must not affect the cluster
	again := c.ReservedSlots(1)
	if again[0] != 0 {
		t.Error("ReservedSlots should return a copy")
	}
	if c.ReservedSlots(42) != nil {
		t.Error("ReservedSlots of unknown job should be nil")
	}
}

func TestAcquireReservedForLowestFirst(t *testing.T) {
	c := mustCluster(t, 1, 3)
	for i := 0; i < 3; i++ {
		c.AcquireFree(1)
	}
	for _, id := range []SlotID{2, 0, 1} {
		if err := c.Reserve(id, Reservation{Job: 1, Priority: 1}); err != nil {
			t.Fatalf("Reserve: %v", err)
		}
	}
	for want := SlotID(0); want < 3; want++ {
		id, ok := c.AcquireReservedFor(1, 1)
		if !ok || id != want {
			t.Fatalf("AcquireReservedFor = %d/%v, want %d", id, ok, want)
		}
	}
	if _, ok := c.AcquireReservedFor(1, 1); ok {
		t.Error("exhausted reservations should fail")
	}
}

func TestStateListener(t *testing.T) {
	c := mustCluster(t, 1, 1)
	type change struct{ from, to SlotState }
	var log []change
	c.SetListener(func(_ SlotID, from, to SlotState) { log = append(log, change{from, to}) })
	id, _ := c.AcquireFree(1)
	if err := c.Reserve(id, Reservation{Job: 1, Priority: 1}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := c.CancelReservation(id); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	want := []change{{Free, Busy}, {Busy, Reserved}, {Reserved, Free}}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %v, want %v", i, log[i], want[i])
		}
	}
}

func TestSlotStateString(t *testing.T) {
	if Free.String() != "free" || Reserved.String() != "reserved" || Busy.String() != "busy" {
		t.Error("state strings wrong")
	}
	if SlotState(42).String() == "" {
		t.Error("unknown state should still stringify")
	}
}

// Property: under random operations the cluster's bookkeeping stays
// consistent — counts per state sum to the total, reservation indexes match
// slot states, and no slot is double-allocated.
func TestClusterStateMachineProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(2, 4)
		if err != nil {
			return false
		}
		busy := make(map[SlotID]bool)
		for op := 0; op < 400; op++ {
			switch rng.Intn(6) {
			case 0:
				if id, ok := c.AcquireFree(1); ok {
					if busy[id] {
						return false // double allocation
					}
					busy[id] = true
				}
			case 1:
				job := dag.JobID(rng.Intn(3))
				if id, ok := c.AcquireReservedFor(job, 1); ok {
					if busy[id] {
						return false
					}
					busy[id] = true
				}
			case 2:
				if id, ok := c.AcquireOverride(dag.Priority(rng.Intn(5)), 1); ok {
					if busy[id] {
						return false
					}
					busy[id] = true
				}
			case 3: // release a random busy slot
				for id := range busy {
					delete(busy, id)
					if err := c.Release(id); err != nil {
						return false
					}
					break
				}
			case 4: // reserve a random busy slot
				for id := range busy {
					delete(busy, id)
					r := Reservation{
						Job:      dag.JobID(rng.Intn(3)),
						Priority: dag.Priority(rng.Intn(5)),
					}
					if err := c.Reserve(id, r); err != nil {
						return false
					}
					break
				}
			case 5:
				id := SlotID(rng.Intn(8))
				job := dag.JobID(rng.Intn(3))
				if c.TryAcquire(id, job, dag.Priority(rng.Intn(5)), 1) {
					if busy[id] {
						return false
					}
					busy[id] = true
				}
			}
			// Invariants.
			if c.CountState(Busy) != len(busy) {
				return false
			}
			if c.CountState(Free)+c.CountState(Reserved)+c.CountState(Busy) != 8 {
				return false
			}
			total := 0
			for j := dag.JobID(0); j < 3; j++ {
				for _, id := range c.ReservedSlots(j) {
					s := c.Slot(id)
					if s.State() != Reserved {
						return false
					}
					res, ok := s.Reservation()
					if !ok || res.Job != j {
						return false
					}
					total++
				}
			}
			if total != c.TotalReserved() || total != c.CountState(Reserved) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// overrideCluster builds a cluster on which jobs reservation holders each
// hold one idle reserved slot at priorities 1..5, the rest of the slots
// busy.
func overrideCluster(tb testing.TB, jobs int) *Cluster {
	tb.Helper()
	c, err := New(jobs, 2)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < c.NumSlots(); i++ {
		if _, ok := c.AcquireFree(1); !ok {
			tb.Fatal("AcquireFree failed on a fresh cluster")
		}
	}
	for j := 0; j < jobs; j++ {
		res := Reservation{Job: dag.JobID(j + 1), Priority: dag.Priority(1 + j%5)}
		if err := c.Reserve(SlotID(2*j), res); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkAcquireOverride measures the override scan over 150 reserving
// jobs: "miss" asks at a priority no reservation is below (the common
// contended case), "hit" overrides the lowest-priority reservation and
// puts it back.
func BenchmarkAcquireOverride(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		c := overrideCluster(b, 150)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.AcquireOverride(1, 1); ok {
				b.Fatal("override below priority 1 succeeded")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := overrideCluster(b, 150)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot, ok := c.AcquireOverride(9, 1)
			if !ok {
				b.Fatal("override failed")
			}
			if err := c.Reserve(slot, Reservation{Job: dag.JobID(slot/2 + 1), Priority: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAcquireOverrideAllocatesNothing pins the override scan at zero
// allocations, both when it finds nothing and when it takes a slot whose
// job then reserves again (a recycled record).
func TestAcquireOverrideAllocatesNothing(t *testing.T) {
	c := overrideCluster(t, 150)
	if n := testing.AllocsPerRun(100, func() { c.AcquireOverride(1, 1) }); n != 0 {
		t.Fatalf("AcquireOverride miss allocates %v times, want 0", n)
	}
	n := testing.AllocsPerRun(100, func() {
		slot, ok := c.AcquireOverride(9, 1)
		if !ok {
			t.Fatal("override failed")
		}
		if err := c.Reserve(slot, Reservation{Job: dag.JobID(slot/2 + 1), Priority: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AcquireOverride hit and re-reserve allocate %v times, want 0", n)
	}
	checkPartition(t, c)
}
