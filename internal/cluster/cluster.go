// Package cluster models the compute substrate: machines partitioned into
// slots, the slot reservation state that speculative slot reservation
// manipulates, and the data-locality registry recording which slots hold
// which phase outputs.
//
// A slot is in one of five states:
//
//   - Free: idle and unreserved — any task may take it (work conservation).
//   - Reserved: idle but held for a job at that job's priority; only tasks
//     of the reserving job, or tasks with a strictly higher priority, may
//     take it (the paper's ApprovalLogic).
//   - Busy: running a task attempt. Busy slots carry no reservation: the
//     reservation is consumed when the reserving job's task starts, and
//     Algorithm 1 decides afresh when the task completes.
//   - Failed: the hosting node is down. Failed slots accept no tasks and
//     hold no reservations (failing voids them); RecoverNode returns them
//     to Free.
//   - Draining: idle on a node that received a preemption notice. Draining
//     slots accept no new work; when the notice window closes they fail,
//     and UndrainNode returns them to Free.
//
// Nodes carry their own lifecycle state (Up → Draining → Down → Up) plus
// an optional per-node speed factor and pool tag for heterogeneous,
// elastic clusters. The zero configuration — every node Up at speed 1 —
// adds no branches to the acquisition hot path: Draining slots simply
// never re-enter the free heaps, so the existing stale-entry skip
// excludes them.
//
// The package holds no scheduling policy; it only enforces state-machine
// invariants and provides deterministic, efficient slot lookup.
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"ssr/internal/dag"
)

// SlotID identifies a compute slot.
type SlotID int

// SlotState enumerates the slot state machine.
type SlotState int

// Slot states.
const (
	// Free means idle and unreserved.
	Free SlotState = iota + 1
	// Reserved means idle but held for a job.
	Reserved
	// Busy means running a task attempt.
	Busy
	// Failed means the hosting node is down.
	Failed
	// Draining means idle on a node serving a preemption notice: the slot
	// accepts no new work and fails when the notice window closes.
	Draining
)

func (s SlotState) String() string {
	switch s {
	case Free:
		return "free"
	case Reserved:
		return "reserved"
	case Busy:
		return "busy"
	case Failed:
		return "failed"
	case Draining:
		return "draining"
	default:
		return fmt.Sprintf("SlotState(%d)", int(s))
	}
}

// NodeState enumerates a node's lifecycle: Up (serving), Draining (serving
// a preemption notice; running attempts may finish but no new work
// starts), Down (all slots failed). The zero value is Up so a cluster
// without lifecycle configuration behaves exactly as before.
type NodeState int

// Node lifecycle states.
const (
	// NodeUp means the node serves work normally.
	NodeUp NodeState = iota
	// NodeDraining means the node received a preemption notice.
	NodeDraining
	// NodeDown means the node is gone; its slots are Failed.
	NodeDown
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// Reservation records who holds an idle slot and at what priority.
type Reservation struct {
	// Job is the reserving job.
	Job dag.JobID
	// Priority is inherited from the reserving job (Sec. III-B).
	Priority dag.Priority
	// Phase is the phase whose task completion created the reservation;
	// deadline bookkeeping is keyed on it.
	Phase int
}

// Slot is a single compute slot on a node.
type Slot struct {
	// ID is the slot's index in the cluster.
	ID SlotID
	// Node is the machine hosting the slot.
	Node int
	// Size is the slot's capacity; a task fits iff its demand is at
	// most the size. Homogeneous clusters use size 1 everywhere.
	Size int

	state      SlotState
	res        Reservation
	inFreeHeap bool
}

// State returns the slot's current state.
func (s *Slot) State() SlotState { return s.state }

// Reservation returns the active reservation; ok is false unless the slot
// is in the Reserved state.
func (s *Slot) Reservation() (Reservation, bool) {
	if s.state != Reserved {
		return Reservation{}, false
	}
	return s.res, true
}

// StateListener observes slot state transitions (for metrics).
type StateListener func(id SlotID, from, to SlotState)

// Cluster is a collection of slots across nodes.
type Cluster struct {
	nodes   int
	perNode int
	slots   []*Slot
	// free holds one heap of free slot IDs per slot size; sizes lists
	// the classes ascending so acquisition can best-fit.
	free    map[int]*intHeap
	sizes   []int
	maxSize int
	// reserved tracks idle reserved slots per job, each kept sorted.
	reserved map[dag.JobID]*jobReservations
	// reservedOrder holds the same records as reserved, sorted by job ID,
	// so the override scan, the census and the driver's per-dispatch
	// sweep walk them in deterministic order without hashing. Each entry
	// carries its job ID inline, so a merge against it reads one
	// contiguous array.
	reservedOrder []reservedEntry
	// recFree recycles records whose job released its last reservation,
	// so a job that reserves again allocates nothing.
	recFree  []*jobReservations
	listener StateListener
	// nodeState holds each node's lifecycle state; the zero value (NodeUp
	// everywhere) is the homogeneous always-on cluster.
	nodeState []NodeState
	// speeds holds per-node speed factors; nil means homogeneous speed 1.
	// Allocated lazily so unconfigured clusters pay one nil check.
	speeds []float64
	// pools tags nodes with the elastic pool owning them; nil means no
	// pool configuration.
	pools []string
}

type jobReservations struct {
	priority dag.Priority
	slots    []SlotID // sorted ascending
}

type reservedEntry struct {
	job dag.JobID
	jr  *jobReservations
}

// New builds a homogeneous cluster of nodes machines with slotsPerNode
// size-1 slots each.
func New(nodes, slotsPerNode int) (*Cluster, error) {
	if slotsPerNode <= 0 {
		return nil, fmt.Errorf("cluster: slots per node %d must be positive", slotsPerNode)
	}
	sizes := make([]int, slotsPerNode)
	for i := range sizes {
		sizes[i] = 1
	}
	return NewSized(nodes, sizes)
}

// NewSized builds a heterogeneous cluster: every one of the nodes machines
// hosts len(slotSizes) slots with the given capacities (Sec. III-C's
// setting, where task demands differ across phases and slots come in
// sizes).
func NewSized(nodes int, slotSizes []int) (*Cluster, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: nodes %d must be positive", nodes)
	}
	if len(slotSizes) == 0 {
		return nil, fmt.Errorf("cluster: need at least one slot per node")
	}
	perNode := len(slotSizes)
	total := nodes * perNode
	c := &Cluster{
		nodes:     nodes,
		perNode:   perNode,
		slots:     make([]*Slot, total),
		free:      make(map[int]*intHeap),
		reserved:  make(map[dag.JobID]*jobReservations),
		nodeState: make([]NodeState, nodes),
	}
	for i := 0; i < total; i++ {
		size := slotSizes[i%perNode]
		if size <= 0 {
			return nil, fmt.Errorf("cluster: slot size %d must be positive", size)
		}
		s := &Slot{ID: SlotID(i), Node: i / perNode, Size: size, state: Free}
		c.slots[i] = s
		if c.free[size] == nil {
			c.free[size] = &intHeap{}
			c.sizes = append(c.sizes, size)
		}
		if size > c.maxSize {
			c.maxSize = size
		}
	}
	sort.Ints(c.sizes)
	for _, s := range c.slots {
		c.pushFree(s)
	}
	return c, nil
}

// MaxSlotSize returns the largest slot capacity in the cluster.
func (c *Cluster) MaxSlotSize() int { return c.maxSize }

// SetListener installs a state-transition observer. Pass nil to remove it.
func (c *Cluster) SetListener(l StateListener) { c.listener = l }

// NumSlots returns the total number of slots.
func (c *Cluster) NumSlots() int { return len(c.slots) }

// NumNodes returns the number of machines.
func (c *Cluster) NumNodes() int { return c.nodes }

// Slot returns the slot with the given ID, or nil if out of range.
func (c *Cluster) Slot(id SlotID) *Slot {
	if id < 0 || int(id) >= len(c.slots) {
		return nil
	}
	return c.slots[id]
}

// CountState returns the number of slots currently in the given state.
func (c *Cluster) CountState(state SlotState) int {
	n := 0
	for _, s := range c.slots {
		if s.state == state {
			n++
		}
	}
	return n
}

// CheckInvariants verifies the slot-state partition: every slot is in
// exactly one of the five states, a Draining slot sits on a draining node,
// the reservation index holds exactly the Reserved slots, and the ordered
// reservation records mirror the reservation map. It returns the first
// violation found, or nil.
func (c *Cluster) CheckInvariants() error {
	var census [Draining + 1]int
	for _, s := range c.slots {
		if s.state < Free || s.state > Draining {
			return fmt.Errorf("cluster: slot %d in invalid state %d", s.ID, int(s.state))
		}
		if s.state == Draining && c.nodeState[s.Node] != NodeDraining {
			return fmt.Errorf("cluster: slot %d draining on %v node %d", s.ID, c.nodeState[s.Node], s.Node)
		}
		census[s.state]++
	}
	if n := c.TotalReserved(); n != census[Reserved] {
		return fmt.Errorf("cluster: reservation index holds %d slots, %d are Reserved", n, census[Reserved])
	}
	return c.checkReservationIndex()
}

// checkReservationIndex verifies that reservedOrder and reserved hold the
// same non-empty records, ascending by job ID, and that every slot a record
// lists is Reserved for that job, in ascending order.
func (c *Cluster) checkReservationIndex() error {
	if len(c.reservedOrder) != len(c.reserved) {
		return fmt.Errorf("cluster: %d ordered reservation records, %d in the map", len(c.reservedOrder), len(c.reserved))
	}
	for i, e := range c.reservedOrder {
		if i > 0 && c.reservedOrder[i-1].job >= e.job {
			return fmt.Errorf("cluster: reservation records out of order at job %d", e.job)
		}
		if c.reserved[e.job] != e.jr {
			return fmt.Errorf("cluster: ordered reservation record of job %d is not the map's", e.job)
		}
		if len(e.jr.slots) == 0 {
			return fmt.Errorf("cluster: job %d holds an empty reservation record", e.job)
		}
		for k, id := range e.jr.slots {
			if k > 0 && e.jr.slots[k-1] >= id {
				return fmt.Errorf("cluster: reserved slots of job %d out of order at slot %d", e.job, id)
			}
			if s := c.slots[id]; s.state != Reserved || s.res.Job != e.job {
				return fmt.Errorf("cluster: job %d lists slot %d, which is %v for job %d", e.job, id, s.state, s.res.Job)
			}
		}
	}
	return nil
}

func (c *Cluster) transition(s *Slot, to SlotState) {
	from := s.state
	s.state = to
	if c.listener != nil && from != to {
		c.listener(s.ID, from, to)
	}
}

// AcquireFree pops a free slot of capacity at least minSize — the
// smallest adequate size class first (best fit), lowest slot ID within a
// class — and marks it busy. It reports whether such a slot was available.
func (c *Cluster) AcquireFree(minSize int) (SlotID, bool) {
	for _, size := range c.sizes {
		if size < minSize {
			continue
		}
		h := c.free[size]
		for len(*h) > 0 {
			id := h.popMin()
			s := c.slots[id]
			s.inFreeHeap = false
			if s.state != Free {
				continue // stale entry: the slot was taken directly
			}
			c.transition(s, Busy)
			return s.ID, true
		}
	}
	return 0, false
}

// AcquireReservedFor pops the lowest-ID idle slot reserved for job with
// capacity at least minSize and marks it busy, consuming the reservation.
func (c *Cluster) AcquireReservedFor(job dag.JobID, minSize int) (SlotID, bool) {
	jr, ok := c.reserved[job]
	if !ok || len(jr.slots) == 0 {
		return 0, false
	}
	for _, id := range jr.slots {
		if c.slots[id].Size < minSize {
			continue
		}
		c.consumeReservation(c.slots[id])
		c.transition(c.slots[id], Busy)
		return id, true
	}
	return 0, false
}

// AcquireOverride pops an idle slot with capacity at least minSize
// reserved by a job with priority strictly lower than prio and marks it
// busy (a higher-priority task may override a reservation, Sec. III-B).
// Among eligible reservations it picks the lowest (priority, job, slot)
// for determinism.
func (c *Cluster) AcquireOverride(prio dag.Priority, minSize int) (SlotID, bool) {
	bestJob, bestPrio, found := dag.JobID(0), prio, false
	// Under contention most running jobs hold reservations, so the walk
	// visits every record once, in ascending job ID: the first hit at the
	// winning priority is the lowest job. The records are read in place,
	// with no map lookup per job.
	for _, e := range c.reservedOrder {
		if e.jr.priority >= bestPrio || !e.jr.hasAtLeast(c, minSize) {
			continue
		}
		bestJob, bestPrio, found = e.job, e.jr.priority, true
	}
	if !found {
		return 0, false
	}
	return c.AcquireReservedFor(bestJob, minSize)
}

// ReserveAnyFree captures a free slot of capacity at least minSize
// directly into the Reserved state — the pre-reservation path
// (Algorithm 1, Case 2.3 and the Sec. III-C right-size variant), which
// grabs slots released by other jobs without running anything on them.
func (c *Cluster) ReserveAnyFree(r Reservation, minSize int) (SlotID, bool) {
	for _, size := range c.sizes {
		if size < minSize {
			continue
		}
		h := c.free[size]
		for len(*h) > 0 {
			id := h.popMin()
			s := c.slots[id]
			s.inFreeHeap = false
			if s.state != Free {
				continue
			}
			s.res = r
			c.transition(s, Reserved)
			jr := c.reservationsFor(r.Job, r.Priority)
			jr.priority = r.Priority
			jr.insert(s.ID)
			return s.ID, true
		}
	}
	return 0, false
}

// ReservedJobs returns the jobs currently holding idle reservations, sorted
// by job ID for deterministic iteration.
func (c *Cluster) ReservedJobs() []dag.JobID {
	out := make([]dag.JobID, len(c.reservedOrder))
	for i, e := range c.reservedOrder {
		out[i] = e.job
	}
	return out
}

// NumReservedJobs returns the number of jobs holding idle reservations.
func (c *Cluster) NumReservedJobs() int { return len(c.reservedOrder) }

// ReservedJobAt returns the i-th job holding idle reservations in
// ascending job-ID order, for 0 <= i < NumReservedJobs(). The driver's
// dispatch sweep merges this order with its own sorted index without
// copying the set.
func (c *Cluster) ReservedJobAt(i int) dag.JobID { return c.reservedOrder[i].job }

// TryAcquire attempts to take a specific slot for a task of the given job
// and priority — the preferred-slot (data locality) path. It succeeds when
// the slot has capacity at least minSize and is free, reserved for that
// job, or reserved at a strictly lower priority.
func (c *Cluster) TryAcquire(id SlotID, job dag.JobID, prio dag.Priority, minSize int) bool {
	s := c.Slot(id)
	if s == nil || s.Size < minSize {
		return false
	}
	switch s.state {
	case Free:
		c.transition(s, Busy)
		return true
	case Reserved:
		if s.res.Job != job && s.res.Priority >= prio {
			return false
		}
		c.consumeReservation(s)
		c.transition(s, Busy)
		return true
	default:
		return false
	}
}

// Release returns a busy or reserved slot to the free pool (or parks it
// Draining when its node is serving a preemption notice).
func (c *Cluster) Release(id SlotID) error {
	s := c.Slot(id)
	if s == nil {
		return fmt.Errorf("cluster: release of unknown slot %d", id)
	}
	switch s.state {
	case Busy:
	case Reserved:
		c.consumeReservation(s)
	default:
		return fmt.Errorf("cluster: release of %v slot %d", s.state, id)
	}
	c.freeSlot(s)
	return nil
}

// freeSlot idles a slot: back to the free pool on an Up node, parked
// Draining on a node serving a preemption notice. On an unconfigured
// cluster the node-state check always takes the Up branch.
func (c *Cluster) freeSlot(s *Slot) {
	if c.nodeState[s.Node] != NodeUp {
		c.transition(s, Draining)
		return
	}
	c.transition(s, Free)
	c.pushFree(s)
}

// Reserve marks a busy slot (whose task just completed) or a free slot
// (pre-reservation capture) as reserved for the given job.
func (c *Cluster) Reserve(id SlotID, r Reservation) error {
	s := c.Slot(id)
	if s == nil {
		return fmt.Errorf("cluster: reserve of unknown slot %d", id)
	}
	switch s.state {
	case Busy, Free:
		// Free slots stay lazily in the free heap; AcquireFree skips them.
	case Reserved:
		return fmt.Errorf("cluster: slot %d already reserved for job %d", id, s.res.Job)
	default:
		return fmt.Errorf("cluster: reserve of slot %d in unexpected state %v", id, s.state)
	}
	s.res = r
	c.transition(s, Reserved)
	jr := c.reservationsFor(r.Job, r.Priority)
	jr.priority = r.Priority
	jr.insert(id)
	return nil
}

// CancelReservation releases a reserved slot back to the free pool
// (deadline expiry or downstream phase needing fewer slots).
func (c *Cluster) CancelReservation(id SlotID) error {
	s := c.Slot(id)
	if s == nil {
		return fmt.Errorf("cluster: cancel on unknown slot %d", id)
	}
	if s.state != Reserved {
		return fmt.Errorf("cluster: cancel on %v slot %d", s.state, id)
	}
	c.consumeReservation(s)
	c.freeSlot(s)
	return nil
}

// ReservedSlots returns the idle slots currently reserved for job, sorted
// ascending. The returned slice is a copy.
func (c *Cluster) ReservedSlots(job dag.JobID) []SlotID {
	jr, ok := c.reserved[job]
	if !ok || len(jr.slots) == 0 {
		return nil
	}
	return append([]SlotID(nil), jr.slots...)
}

// ReservedCount returns the number of idle slots reserved for job.
func (c *Cluster) ReservedCount(job dag.JobID) int {
	jr, ok := c.reserved[job]
	if !ok {
		return 0
	}
	return len(jr.slots)
}

// TotalReserved returns the number of reserved slots across all jobs.
func (c *Cluster) TotalReserved() int {
	n := 0
	for _, e := range c.reservedOrder {
		n += len(e.jr.slots)
	}
	return n
}

// NodeSlots returns the IDs of the slots hosted by node, or nil when the
// node is out of range. Slot IDs are contiguous per node.
func (c *Cluster) NodeSlots(node int) []SlotID {
	if node < 0 || node >= c.nodes {
		return nil
	}
	out := make([]SlotID, c.perNode)
	for i := range out {
		out[i] = SlotID(node*c.perNode + i)
	}
	return out
}

// FailNode marks every slot of node as Failed. Busy slots are returned so
// the scheduler can kill the attempts running on them; reservations held on
// the node are voided and returned so the scheduler can re-derive them on
// surviving slots. Slots already failed are skipped, so failing a dead node
// twice is a no-op. Free slots may linger in the free heaps; the acquire
// paths skip any entry whose slot is no longer Free.
func (c *Cluster) FailNode(node int) (busy []SlotID, voided []Reservation, err error) {
	if node < 0 || node >= c.nodes {
		return nil, nil, fmt.Errorf("cluster: fail of unknown node %d", node)
	}
	c.nodeState[node] = NodeDown
	for i := node * c.perNode; i < (node+1)*c.perNode; i++ {
		s := c.slots[i]
		switch s.state {
		case Failed:
			continue
		case Busy:
			busy = append(busy, s.ID)
		case Reserved:
			voided = append(voided, s.res)
			c.consumeReservation(s)
		}
		c.transition(s, Failed)
	}
	return busy, voided, nil
}

// RecoverNode marks node Up and returns every Failed slot to the free pool,
// reporting the recovered slot IDs. Recovering a healthy node is a no-op;
// recovering a Draining node is an error (undrain it instead).
func (c *Cluster) RecoverNode(node int) ([]SlotID, error) {
	if node < 0 || node >= c.nodes {
		return nil, fmt.Errorf("cluster: recover of unknown node %d", node)
	}
	if c.nodeState[node] == NodeDraining {
		return nil, fmt.Errorf("cluster: recover of draining node %d (undrain instead)", node)
	}
	c.nodeState[node] = NodeUp
	var recovered []SlotID
	for i := node * c.perNode; i < (node+1)*c.perNode; i++ {
		s := c.slots[i]
		if s.state != Failed {
			continue
		}
		c.transition(s, Free)
		c.pushFree(s)
		recovered = append(recovered, s.ID)
	}
	return recovered, nil
}

// NodeState returns node's lifecycle state, or NodeDown when out of range.
func (c *Cluster) NodeState(node int) NodeState {
	if node < 0 || node >= c.nodes {
		return NodeDown
	}
	return c.nodeState[node]
}

// CountNodes returns the number of nodes currently in the given state.
func (c *Cluster) CountNodes(state NodeState) int {
	n := 0
	for _, st := range c.nodeState {
		if st == state {
			n++
		}
	}
	return n
}

// SetNodeSpeed installs node's speed factor: task service times scale by
// 1/speed on its slots (2.0 = twice as fast). The factor table is
// allocated on first use so unconfigured clusters keep SpeedOf at its
// nil-check fast path.
func (c *Cluster) SetNodeSpeed(node int, speed float64) error {
	if node < 0 || node >= c.nodes {
		return fmt.Errorf("cluster: speed of unknown node %d", node)
	}
	if speed <= 0 {
		return fmt.Errorf("cluster: node %d speed %g must be positive", node, speed)
	}
	if c.speeds == nil {
		c.speeds = make([]float64, c.nodes)
		for i := range c.speeds {
			c.speeds[i] = 1
		}
	}
	c.speeds[node] = speed
	return nil
}

// SpeedOf returns node's speed factor (1 when none was configured).
func (c *Cluster) SpeedOf(node int) float64 {
	if c.speeds == nil {
		return 1
	}
	return c.speeds[node]
}

// SetNodePool tags node as a member of the named elastic pool.
func (c *Cluster) SetNodePool(node int, pool string) error {
	if node < 0 || node >= c.nodes {
		return fmt.Errorf("cluster: pool of unknown node %d", node)
	}
	if c.pools == nil {
		c.pools = make([]string, c.nodes)
	}
	c.pools[node] = pool
	return nil
}

// NodePool returns node's pool tag ("" when none was configured).
func (c *Cluster) NodePool(node int) string {
	if c.pools == nil || node < 0 || node >= c.nodes {
		return ""
	}
	return c.pools[node]
}

// DrainNode starts node's preemption notice: the node moves Up → Draining
// and its idle Free slots park in the Draining state (they linger in the
// free heaps; the acquire paths skip any entry whose slot is no longer
// Free). Busy and Reserved slots are left untouched and returned so the
// scheduler can decide, per attempt and per reservation, whether to let
// it finish inside the notice window, migrate it, or release it early.
func (c *Cluster) DrainNode(node int) (busy, reserved []SlotID, err error) {
	if node < 0 || node >= c.nodes {
		return nil, nil, fmt.Errorf("cluster: drain of unknown node %d", node)
	}
	if st := c.nodeState[node]; st != NodeUp {
		return nil, nil, fmt.Errorf("cluster: drain of %v node %d", st, node)
	}
	c.nodeState[node] = NodeDraining
	for i := node * c.perNode; i < (node+1)*c.perNode; i++ {
		s := c.slots[i]
		switch s.state {
		case Free:
			c.transition(s, Draining)
		case Busy:
			busy = append(busy, s.ID)
		case Reserved:
			reserved = append(reserved, s.ID)
		}
	}
	return busy, reserved, nil
}

// CompleteDrain closes node's notice window: the node moves Draining →
// Down and every slot fails. Slots still Busy (attempts the scheduler let
// run to the wire) are returned so it can kill them; reservations still
// held (the scheduler normally migrates or releases them at drain start)
// are voided.
func (c *Cluster) CompleteDrain(node int) (killed []SlotID, err error) {
	if node < 0 || node >= c.nodes {
		return nil, fmt.Errorf("cluster: drain-complete of unknown node %d", node)
	}
	if st := c.nodeState[node]; st != NodeDraining {
		return nil, fmt.Errorf("cluster: drain-complete of %v node %d", st, node)
	}
	c.nodeState[node] = NodeDown
	for i := node * c.perNode; i < (node+1)*c.perNode; i++ {
		s := c.slots[i]
		switch s.state {
		case Failed:
			continue
		case Busy:
			killed = append(killed, s.ID)
		case Reserved:
			c.consumeReservation(s)
		}
		c.transition(s, Failed)
	}
	return killed, nil
}

// UndrainNode cancels node's preemption notice: the node moves Draining →
// Up and parked Draining slots return to the free pool. Busy and Reserved
// slots (attempts and reservations that rode out the notice) are
// untouched. It reports the revived slot IDs.
func (c *Cluster) UndrainNode(node int) ([]SlotID, error) {
	if node < 0 || node >= c.nodes {
		return nil, fmt.Errorf("cluster: undrain of unknown node %d", node)
	}
	if st := c.nodeState[node]; st != NodeDraining {
		return nil, fmt.Errorf("cluster: undrain of %v node %d", st, node)
	}
	c.nodeState[node] = NodeUp
	var revived []SlotID
	for i := node * c.perNode; i < (node+1)*c.perNode; i++ {
		s := c.slots[i]
		if s.state != Draining {
			continue
		}
		c.transition(s, Free)
		c.pushFree(s)
		revived = append(revived, s.ID)
	}
	return revived, nil
}

func (c *Cluster) consumeReservation(s *Slot) {
	jr := c.reserved[s.res.Job]
	if jr != nil {
		jr.remove(s.ID)
		if len(jr.slots) == 0 {
			delete(c.reserved, s.res.Job)
			c.removeReservedJob(s.res.Job)
			c.recFree = append(c.recFree, jr)
		}
	}
	s.res = Reservation{}
}

// reservationsFor returns the job's reservation record, creating it (and
// registering the job in reservedOrder) on first use.
func (c *Cluster) reservationsFor(job dag.JobID, prio dag.Priority) *jobReservations {
	jr := c.reserved[job]
	if jr == nil {
		if n := len(c.recFree); n > 0 {
			jr = c.recFree[n-1]
			c.recFree = c.recFree[:n-1]
			jr.priority = prio
		} else {
			jr = &jobReservations{priority: prio}
		}
		c.reserved[job] = jr
		c.reservedOrder = slices.Insert(c.reservedOrder, c.reservedIndex(job), reservedEntry{job: job, jr: jr})
	}
	return jr
}

func (c *Cluster) removeReservedJob(job dag.JobID) {
	if i := c.reservedIndex(job); i < len(c.reservedOrder) && c.reservedOrder[i].job == job {
		c.reservedOrder = slices.Delete(c.reservedOrder, i, i+1)
	}
}

// reservedIndex returns the position of job's record in reservedOrder, or
// where it would be inserted.
func (c *Cluster) reservedIndex(job dag.JobID) int {
	return sort.Search(len(c.reservedOrder), func(i int) bool { return c.reservedOrder[i].job >= job })
}

func (c *Cluster) pushFree(s *Slot) {
	if s.inFreeHeap {
		return
	}
	s.inFreeHeap = true
	c.free[s.Size].push(int(s.ID))
}

// hasAtLeast reports whether the job holds an idle reserved slot of
// capacity at least minSize.
func (jr *jobReservations) hasAtLeast(c *Cluster, minSize int) bool {
	for _, id := range jr.slots {
		if c.slots[id].Size >= minSize {
			return true
		}
	}
	return false
}

func (jr *jobReservations) insert(id SlotID) {
	i := sort.Search(len(jr.slots), func(i int) bool { return jr.slots[i] >= id })
	jr.slots = append(jr.slots, 0)
	copy(jr.slots[i+1:], jr.slots[i:])
	jr.slots[i] = id
}

func (jr *jobReservations) remove(id SlotID) {
	i := sort.Search(len(jr.slots), func(i int) bool { return jr.slots[i] >= id })
	if i < len(jr.slots) && jr.slots[i] == id {
		jr.slots = append(jr.slots[:i], jr.slots[i+1:]...)
	}
}

// intHeap is a minimal binary min-heap of ints (slot IDs), avoiding
// container/heap interface allocations on the hot path.
type intHeap []int

func (h *intHeap) push(x int) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *intHeap) popMin() int {
	old := *h
	min := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l] < (*h)[smallest] {
			smallest = l
		}
		if r < n && (*h)[r] < (*h)[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return min
}
