package cluster

import (
	"testing"

	"ssr/internal/dag"
)

func checkPartition(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeKillsBusyAndVoidsReservations(t *testing.T) {
	c, err := New(2, 2) // slots 0,1 on node 0; 2,3 on node 1
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 busy, slot 1 reserved for job 7, node 1 untouched.
	if id, ok := c.AcquireFree(1); !ok || id != 0 {
		t.Fatalf("AcquireFree = %d, %v", id, ok)
	}
	res := Reservation{Job: 7, Priority: 5, Phase: 2}
	if err := c.Reserve(1, res); err != nil {
		t.Fatal(err)
	}
	busy, voided, err := c.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(busy) != 1 || busy[0] != 0 {
		t.Fatalf("busy = %v, want [0]", busy)
	}
	if len(voided) != 1 || voided[0] != res {
		t.Fatalf("voided = %v, want [%v]", voided, res)
	}
	if got := c.CountState(Failed); got != 2 {
		t.Fatalf("failed slots = %d, want 2", got)
	}
	if got := c.ReservedCount(7); got != 0 {
		t.Fatalf("job 7 still holds %d reservations after node failure", got)
	}
	checkPartition(t, c)

	// Failed slots are unacquirable via every path.
	if ok := c.TryAcquire(0, 7, 10, 1); ok {
		t.Fatal("TryAcquire succeeded on a failed slot")
	}
	if id, ok := c.AcquireFree(1); ok && (id == 0 || id == 1) {
		t.Fatalf("AcquireFree handed out failed slot %d", id)
	}
	if _, ok := c.AcquireReservedFor(7, 1); ok {
		t.Fatal("AcquireReservedFor succeeded after reservations were voided")
	}

	// Failing an already-failed node is a no-op.
	busy, voided, err = c.FailNode(0)
	if err != nil || len(busy) != 0 || len(voided) != 0 {
		t.Fatalf("second FailNode = %v, %v, %v; want empty no-op", busy, voided, err)
	}
	checkPartition(t, c)
}

func TestRecoverNodeReturnsSlotsToFreePool(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	recovered, err := c.RecoverNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %v, want both slots of node 0", recovered)
	}
	if got := c.CountState(Free); got != 4 {
		t.Fatalf("free slots = %d, want 4", got)
	}
	checkPartition(t, c)
	// Recovered slots are acquirable again, lowest ID first.
	if id, ok := c.AcquireFree(1); !ok || id != 0 {
		t.Fatalf("AcquireFree after recovery = %d, %v; want slot 0", id, ok)
	}
	// Recovering a healthy node is a no-op.
	if recovered, err := c.RecoverNode(1); err != nil || len(recovered) != 0 {
		t.Fatalf("RecoverNode(healthy) = %v, %v; want empty no-op", recovered, err)
	}
}

// A free slot consumed from the heap while failed must be re-pushed on
// recovery (the lazy free-heap entry was discarded in the meantime).
func TestFailedSlotHeapEntryConsumedThenRecovered(t *testing.T) {
	c, err := New(2, 1) // slot 0 on node 0, slot 1 on node 1
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	// Acquiring pops slot 0's stale heap entry, skips it (failed), and
	// hands out slot 1.
	if id, ok := c.AcquireFree(1); !ok || id != 1 {
		t.Fatalf("AcquireFree = %d, %v; want slot 1", id, ok)
	}
	if _, err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	if id, ok := c.AcquireFree(1); !ok || id != 0 {
		t.Fatalf("AcquireFree after recovery = %d, %v; want slot 0", id, ok)
	}
	checkPartition(t, c)
}

func TestFailNodeRejectsUnknownNode(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailNode(-1); err == nil {
		t.Error("FailNode(-1) should error")
	}
	if _, _, err := c.FailNode(2); err == nil {
		t.Error("FailNode(2) should error")
	}
	if _, err := c.RecoverNode(99); err == nil {
		t.Error("RecoverNode(99) should error")
	}
}

func TestReserveAnyFreeSkipsFailedSlots(t *testing.T) {
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	id, ok := c.ReserveAnyFree(Reservation{Job: 3, Priority: 1}, 1)
	if !ok || id != 1 {
		t.Fatalf("ReserveAnyFree = %d, %v; want slot 1", id, ok)
	}
	checkPartition(t, c)
}

func TestNodeSlots(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := c.NodeSlots(1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("NodeSlots(1) = %v, want [2 3]", got)
	}
	if c.NodeSlots(3) != nil {
		t.Error("NodeSlots out of range should be nil")
	}
}

func TestLocalityEvictSlots(t *testing.T) {
	r := NewLocalityRegistry()
	key := PhaseKey{Job: 1, Phase: 0}
	r.Record(key, 0, 3, 4)
	r.Record(key, 1, 3, 5)
	r.Record(key, 2, 3, 6)
	if n := r.EvictSlots([]SlotID{5, 6}); n != 2 {
		t.Fatalf("EvictSlots = %d, want 2", n)
	}
	ts := r.TaskSlots(key)
	if ts[0] != 4 || ts[1] != NoSlot || ts[2] != NoSlot {
		t.Fatalf("TaskSlots = %v, want [4 NoSlot NoSlot]", ts)
	}
	if got := r.SlotsFor(key); len(got) != 1 || got[0] != 4 {
		t.Fatalf("SlotsFor = %v, want [4]", got)
	}
	if n := r.EvictSlots(nil); n != 0 {
		t.Fatalf("EvictSlots(nil) = %d, want 0", n)
	}
}

// Failure of a node must not break another job's reservations.
func TestFailNodeLeavesOtherReservationsIntact(t *testing.T) {
	c, err := New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(0, Reservation{Job: 1, Priority: 2, Phase: 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(2, Reservation{Job: 2, Priority: 2, Phase: 0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if got := c.ReservedCount(1); got != 0 {
		t.Fatalf("job 1 reservations = %d, want 0", got)
	}
	if got := c.ReservedCount(2); got != 1 {
		t.Fatalf("job 2 reservations = %d, want 1", got)
	}
	jobs := c.ReservedJobs()
	if len(jobs) != 1 || jobs[0] != dag.JobID(2) {
		t.Fatalf("ReservedJobs = %v, want [2]", jobs)
	}
	checkPartition(t, c)
}

// TestCheckInvariantsCatchesViolations breaks a consistent cluster one way
// at a time and expects CheckInvariants to report each break.
func TestCheckInvariantsCatchesViolations(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Cluster)
	}{
		{"invalid state", func(c *Cluster) { c.slots[1].state = 0 }},
		{"draining on an up node", func(c *Cluster) { c.slots[1].state = Draining }},
		{"reserved outside the index", func(c *Cluster) { c.slots[1].state = Reserved }},
		{"ordered records out of order", func(c *Cluster) {
			c.reservedOrder[0], c.reservedOrder[1] = c.reservedOrder[1], c.reservedOrder[0]
		}},
		{"ordered record missing", func(c *Cluster) {
			c.reservedOrder = c.reservedOrder[:1]
			c.slots[2].state = Free
		}},
		{"ordered record not the map's", func(c *Cluster) {
			c.reservedOrder[1].jr = &jobReservations{slots: []SlotID{2}}
		}},
		{"record lists a slot of another job", func(c *Cluster) {
			c.slots[2].res.Job = 1
		}},
	}
	for _, tc := range cases {
		c, err := New(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		for j, slot := range []SlotID{0, 2} {
			if err := c.Reserve(slot, Reservation{Job: dag.JobID(j + 1), Priority: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s, before corrupting: %v", tc.name, err)
		}
		tc.corrupt(c)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants returned nil", tc.name)
		}
	}
}
