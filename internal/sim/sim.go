// Package sim is a small deterministic discrete-event simulation
// kernel. The WLAN model (AP, stations, radio channel, sniffer) runs
// on top of it: every frame transmission, configuration retry and
// replayed packet is an event on one virtual clock.
//
// Determinism contract: given the same initial events and the same
// seeds, a simulation run produces the identical event order. Ties in
// time are broken by insertion order, never by map iteration or
// goroutine scheduling.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	At       time.Duration
	Priority int // lower runs first among events at the same time
	Fn       func()

	seq   uint64 // insertion order, final tie breaker
	index int    // heap bookkeeping
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	if h[i].Priority != h[j].Priority {
		return h[i].Priority < h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel owns the virtual clock and the pending event set.
// It is single-threaded by design; all model code runs inside event
// callbacks.
type Kernel struct {
	now     time.Duration
	queue   eventHeap
	nextSeq uint64
	running bool
	fired   uint64
}

// New returns a kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// At schedules fn to run at absolute virtual time t.
func (k *Kernel) At(t time.Duration, fn func()) (*Event, error) {
	if t < k.now {
		return nil, fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, k.now)
	}
	e := &Event{At: t, Fn: fn, seq: k.nextSeq}
	k.nextSeq++
	heap.Push(&k.queue, e)
	return e, nil
}

// After schedules fn to run d after the current virtual time.
// Negative delays are clamped to zero.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	e, err := k.At(k.now+d, fn)
	if err != nil {
		// Unreachable: now+d >= now for d >= 0 barring overflow,
		// which we treat as a programming error.
		panic(err)
	}
	return e
}

// Run executes events until the queue drains or until limit fires, a
// safety valve against runaway self-rescheduling models (0 = no limit).
func (k *Kernel) Run(limit uint64) error {
	if k.running {
		return errors.New("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for len(k.queue) > 0 {
		if limit > 0 && k.fired >= limit {
			return fmt.Errorf("sim: event limit %d reached at t=%v", limit, k.now)
		}
		e := heap.Pop(&k.queue).(*Event)
		if e.At < k.now {
			return fmt.Errorf("sim: time went backwards: %v < %v", e.At, k.now)
		}
		k.now = e.At
		k.fired++
		e.Fn()
	}
	return nil
}
