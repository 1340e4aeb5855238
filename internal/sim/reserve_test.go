package sim

import (
	"testing"
	"testing/quick"
)

// laneRecord is one fired event as the reserved-seq property test sees it.
type laneRecord struct {
	at Time
	id int
}

// laneSim drives a random cascade of events onto a few lanes whose event
// times never decrease, as an interconnect's inbound channels do. Direct
// mode schedules every lane event with AtTask; deferred mode keeps each
// lane's events in a FIFO under seqs taken with Reserve and puts only the
// head on the heap, with AtReserved.
type laneSim struct {
	k        *Kernel
	rng      *RNG
	deferred bool
	lanes    []*lane
	nextID   int
	budget   int
	got      []laneRecord
}

type lane struct {
	s    *laneSim
	last Time // latest event time queued on this lane
	fifo []laneEvent
}

type laneEvent struct {
	at  Time
	seq uint64
	id  int
}

// directEvent is one lane event scheduled straight onto the heap.
type directEvent struct {
	s  *laneSim
	id int
}

func (e *directEvent) Run() { e.s.fire(e.id) }

// Run fires the lane's head and inserts the next head under its reserved key.
func (l *lane) Run() {
	e := l.fifo[0]
	l.fifo = l.fifo[1:]
	if len(l.fifo) > 0 {
		l.s.k.AtReserved(l.fifo[0].at, l.fifo[0].seq, l)
	}
	l.s.fire(e.id)
}

// emit queues a new event on lane i, no earlier than the lane's last one.
func (s *laneSim) emit(i int, delay Time) {
	l := s.lanes[i]
	at := max(s.k.Now()+delay, l.last)
	l.last = at
	s.nextID++
	id := s.nextID
	if !s.deferred {
		s.k.AtTask(at, &directEvent{s, id})
		return
	}
	l.fifo = append(l.fifo, laneEvent{at: at, seq: s.k.Reserve(), id: id})
	if len(l.fifo) == 1 {
		s.k.AtReserved(at, l.fifo[0].seq, l)
	}
}

// fire records an event and, while the budget lasts, fans new events out:
// some onto lanes (often at the same instant), some as plain closures.
func (s *laneSim) fire(id int) {
	s.got = append(s.got, laneRecord{s.k.Now(), id})
	for n := s.rng.Intn(4); n > 0 && s.budget > 0; n-- {
		s.budget--
		if s.rng.Intn(4) == 0 {
			s.nextID++
			id := s.nextID
			s.k.Schedule(Time(s.rng.Intn(3)), func() { s.fire(id) })
			continue
		}
		s.emit(s.rng.Intn(len(s.lanes)), Time(s.rng.Intn(6)))
	}
}

func runLanes(seed uint64, deferred bool) []laneRecord {
	s := &laneSim{k: NewKernel(), rng: NewRNG(seed), deferred: deferred, budget: 3000}
	for i := 0; i < 5; i++ {
		s.lanes = append(s.lanes, &lane{s: s})
	}
	for i := 0; i < 20; i++ {
		s.emit(s.rng.Intn(len(s.lanes)), Time(s.rng.Intn(10)))
	}
	s.k.Drain()
	return s.got
}

// TestKernelReservedLanesMatchDirect: events parked in per-lane FIFOs under
// reserved seqs, with only each lane's head on the heap, fire in exactly
// the sequence they fire in when every one is scheduled directly.
func TestKernelReservedLanesMatchDirect(t *testing.T) {
	f := func(seed uint64) bool {
		direct, deferred := runLanes(seed, false), runLanes(seed, true)
		if len(direct) != len(deferred) || len(direct) < 20 {
			return false
		}
		for i := range direct {
			if direct[i] != deferred[i] {
				t.Logf("seed %d: event %d is %v direct, %v deferred", seed, i, direct[i], deferred[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelReservedPastPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	k := NewKernel()
	nop := funcTask(func() {})
	early := k.Reserve()
	k.Schedule(10, func() {
		mustPanic("AtTask before now", func() { k.AtTask(5, nop) })
		mustPanic("AtReserved before now", func() { k.AtReserved(5, k.Reserve(), nop) })
		// Same instant, but a seq that sorts before the event now firing.
		mustPanic("AtReserved behind the firing event", func() { k.AtReserved(10, early, nop) })
		mustPanic("AtReserved with an unreserved seq", func() { k.AtReserved(20, k.seq+1, nop) })
		// The same instant with a seq after the firing event is fine.
		k.AtReserved(10, k.Reserve(), nop)
	})
	k.Drain()
	if k.Fired() != 2 {
		t.Fatalf("fired %d events, want 2", k.Fired())
	}
}

// TestKernelResetDropsReserved: Reset drops events inserted with
// AtReserved and restarts the seq counter.
func TestKernelResetDropsReserved(t *testing.T) {
	k := NewKernel()
	fired := 0
	task := funcTask(func() { fired++ })
	a, b := k.Reserve(), k.Reserve()
	k.AtReserved(7, b, task)
	k.AtReserved(7, a, task)
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	k.Reset()
	if k.Pending() != 0 {
		t.Fatalf("pending after Reset = %d", k.Pending())
	}
	if seq := k.Reserve(); seq != 1 {
		t.Fatalf("first seq after Reset = %d, want 1", seq)
	}
	k.Drain()
	if fired != 0 || k.Fired() != 0 {
		t.Fatalf("dropped reserved events fired %d times", fired)
	}
}
