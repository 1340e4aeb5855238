// Package sim provides the discrete-event simulation kernel used by every
// subsystem of the BASH reproduction: simulated time, a deterministic event
// queue ordered by (time, schedule order) with seq reservation for callers
// that keep sorted queues of their own, and a forward-progress watchdog.
//
// Time is measured in integer nanoseconds. The target system in the paper is
// clocked such that one cycle is one nanosecond, so cycle counts from the
// paper (e.g. the 512-cycle sampling interval) translate directly.
package sim

import "fmt"

// Time is a simulated timestamp or duration in nanoseconds (= cycles).
type Time int64

// Common durations from the paper's timing model (Section 4.2).
const (
	// NetworkTraversal is the fixed latency of one interconnect crossing
	// (wire propagation, synchronization, and routing).
	NetworkTraversal Time = 50
	// DRAMAccess is the memory access time for data or directory state.
	DRAMAccess Time = 80
	// CacheAccess is the time for a cache to provide data to the interconnect.
	CacheAccess Time = 25
)

// Task is a pre-allocated schedulable unit of work. Hot paths that would
// otherwise allocate a fresh closure per event (network deliveries, delayed
// protocol sends) implement Task on a free-listed struct and schedule it
// with ScheduleTask/AtTask, so steady-state event traffic performs zero heap
// allocations.
type Task interface {
	Run()
}

// funcTask adapts a closure to Task, so every queue entry has one shape and
// Step one dispatch path. A func value is pointer-shaped, so the conversion
// to an interface does not allocate.
type funcTask func()

func (f funcTask) Run() { f() }

// event is one heap entry: the task and its (time, seq) key.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: schedule (or reservation) order
	task Task
}

// Kernel is a deterministic discrete-event scheduler. Events scheduled for
// the same instant fire in schedule order, so identical runs replay exactly.
//
// The queue is a concrete-typed 4-ary min-heap of (time, seq, task)
// entries. The flatter heap halves the sift depth versus a binary heap, and
// avoiding container/heap's interface{} API means Schedule and Step perform
// zero allocations in steady state: the backing slice is reused across
// pops, so once it has grown to the high-water mark of pending events no
// further allocation occurs.
//
// A caller that keeps its own time-sorted queue of future events (the
// interconnect's per-channel handoff FIFOs) can claim an event's place in
// the order early with Reserve and insert only the queue's head, later,
// with AtReserved. The event then fires exactly where it would have had it
// been scheduled at reservation time, while the heap holds one entry per
// queue instead of one per event.
//
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    Time
	nowSeq uint64 // seq of the event firing (or last fired) at now
	seq    uint64
	fired  uint64
	events []event // 4-ary min-heap by (at, seq)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Reset returns the kernel to time zero with an empty queue, retaining the
// queue's backing storage so a reused kernel reaches steady state (zero
// allocations per Schedule/Step) immediately. Pending events — including
// any inserted with AtReserved — are dropped and their references released,
// and the sequence counter restarts, so seqs reserved before the Reset are
// void. Callers holding their own queues of reserved events clear them too.
func (k *Kernel) Reset() {
	clear(k.events) // release task references
	k.events = k.events[:0]
	k.now = 0
	k.nowSeq = 0
	k.seq = 0
	k.fired = 0
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Fired returns the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of entries on the heap. Events a caller holds
// back in its own queue behind a reserved seq (the interconnect's handoff
// FIFOs) are not counted until they are inserted with AtReserved.
func (k *Kernel) Pending() int { return len(k.events) }

// Schedule runs fn after delay simulated nanoseconds. A negative delay is an
// error in the caller; it panics to surface the bug immediately.
func (k *Kernel) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.AtTask(k.now+delay, funcTask(fn))
}

// At runs fn at the absolute time t, which must not be in the past.
func (k *Kernel) At(t Time, fn func()) { k.AtTask(t, funcTask(fn)) }

// ScheduleTask runs task after delay simulated nanoseconds. It is the
// allocation-free counterpart of Schedule: the task object is supplied by
// the caller (typically from a free-list), so nothing is allocated here.
func (k *Kernel) ScheduleTask(delay Time, task Task) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	k.AtTask(k.now+delay, task)
}

// AtTask runs task at the absolute time t, which must not be in the past.
func (k *Kernel) AtTask(t Time, task Task) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, k.now))
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, task: task})
}

// Reserve claims the next sequence number — the place in the same-instant
// tie-break order that an event scheduled right now would get — for an
// event the caller will insert later with AtReserved.
func (k *Kernel) Reserve() uint64 {
	k.seq++
	return k.seq
}

// AtReserved inserts task at time t under a seq obtained from Reserve. The
// key (t, seq) must not precede the event now firing: the reserved event
// has to be on the heap before the global order reaches it.
func (k *Kernel) AtReserved(t Time, seq uint64, task Task) {
	if t < k.now || (t == k.now && seq < k.nowSeq) {
		panic(fmt.Sprintf("sim: reserved event (%d, %d) before now (%d, %d)", t, seq, k.now, k.nowSeq))
	}
	if seq == 0 || seq > k.seq {
		panic(fmt.Sprintf("sim: seq %d was never reserved", seq))
	}
	k.push(event{at: t, seq: seq, task: task})
}

// push appends e and restores the heap property.
func (k *Kernel) push(e event) {
	k.events = append(k.events, e)
	k.siftUp(len(k.events) - 1)
}

// before reports whether event i sorts before event j: earlier time first,
// schedule order breaking ties.
func (k *Kernel) before(i, j int) bool {
	a, b := &k.events[i], &k.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property after appending at index i.
func (k *Kernel) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(i, parent) {
			return
		}
		k.events[i], k.events[parent] = k.events[parent], k.events[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (k *Kernel) siftDown() {
	n := len(k.events)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.before(c, best) {
				best = c
			}
		}
		if !k.before(best, i) {
			return
		}
		k.events[i], k.events[best] = k.events[best], k.events[i]
		i = best
	}
}

// Step fires the next event and reports whether one existed.
func (k *Kernel) Step() bool {
	n := len(k.events)
	if n == 0 {
		return false
	}
	e := k.events[0]
	k.events[0] = k.events[n-1]
	k.events[n-1].task = nil // release the task reference
	k.events = k.events[:n-1]
	if n > 1 {
		k.siftDown()
	}
	k.now, k.nowSeq = e.at, e.seq
	k.fired++
	e.task.Run()
	return true
}

// Run executes events until the queue is empty or the horizon is passed.
// It returns the time at which it stopped.
func (k *Kernel) Run(horizon Time) Time {
	for len(k.events) > 0 && k.events[0].at <= horizon {
		k.Step()
	}
	if k.now < horizon {
		k.now, k.nowSeq = horizon, 0
	}
	return k.now
}

// RunUntil executes events while cond returns false, stopping as soon as it
// returns true or the queue drains. cond is evaluated after every event.
func (k *Kernel) RunUntil(cond func() bool) {
	for !cond() {
		if !k.Step() {
			return
		}
	}
}

// Drain executes every remaining event.
func (k *Kernel) Drain() {
	for k.Step() {
	}
}
