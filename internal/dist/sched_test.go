package dist

// Unit coverage for the placement policy: FIFO claim order, the
// timeout exclusion, and — the load-bearing pin — the locality
// deferral rule of popJobs, exercised deterministically against
// hand-built sessions so the "never send a covered cell to a
// trace-less worker while a covered one has a free slot" guarantee is
// a test, not a comment.

import (
	"sync"
	"testing"
	"time"
)

func TestCovers(t *testing.T) {
	s := &session{sent: map[string]bool{"d1": true, "d2": true}}
	if !covers(s, &job{}) {
		t.Error("a job without captured traces must be covered by everyone")
	}
	if !covers(s, &job{digests: []string{"d1", "d2"}}) {
		t.Error("session holding every digest reported uncovered")
	}
	if covers(s, &job{digests: []string{"d1", "d3"}}) {
		t.Error("session missing a digest reported covered")
	}
}

// newTestCoordinator builds the scheduler core — queue, cond, stats,
// sessions — with no listener, so popJobs can be driven directly.
func newTestCoordinator() *Coordinator {
	c := &Coordinator{
		sessions: make(map[*session]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func newTestSession(digests ...string) *session {
	sent := make(map[string]bool, len(digests))
	for _, d := range digests {
		sent[d] = true
	}
	return &session{
		sent:     sent,
		inflight: make(map[uint64]*job),
		slots:    make(chan struct{}, 2),
	}
}

func captiveJob(id uint64, digests ...string) *job {
	j := &job{digests: digests, done: make(chan jobResult, 1)}
	j.req.ID = id
	return j
}

// TestLocalityPinDefersToCoveredWorker is the locality guarantee,
// stated directly: a captured cell whose traces a worker does not hold
// is never handed to that worker while a covered worker has a free
// slot registered. The trace-less worker must defer and block; the
// covered worker must claim the cell.
func TestLocalityPinDefersToCoveredWorker(t *testing.T) {
	c := newTestCoordinator()
	covered := newTestSession("d1", "d2")
	fresh := newTestSession()
	c.sessions[covered] = true
	c.sessions[fresh] = true

	c.mu.Lock()
	// The covered worker has a free slot registered right now — the
	// exact condition under which deferral is promised.
	covered.want = 1
	c.queue = append(c.queue, captiveJob(1, "d1", "d2"))
	c.mu.Unlock()

	freshGot := make(chan []*job, 1)
	go func() { freshGot <- c.popJobs(fresh, 1) }()

	// Wait until the trace-less worker has scanned the queue and
	// deferred; only then is its silence meaningful.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		deferred := c.stats.LocalityDeferrals
		c.mu.Unlock()
		if deferred >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace-less worker never scanned the queue")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case jobs := <-freshGot:
		t.Fatalf("trace-less worker claimed captured cell (%d jobs) while a covered worker had a free slot", len(jobs))
	default:
	}

	// The covered worker asks and gets the cell immediately.
	jobs := c.popJobs(covered, 1)
	if len(jobs) != 1 || jobs[0].req.ID != 1 {
		t.Fatalf("covered worker claimed %d jobs, want the one captured cell", len(jobs))
	}
	c.mu.Lock()
	placements, misses := c.stats.LocalityPlacements, c.stats.LocalityMisses
	c.mu.Unlock()
	if placements != 1 || misses != 0 {
		t.Errorf("placements/misses = %d/%d, want 1/0", placements, misses)
	}

	// Release the deferred worker: with the coordinator closed its
	// popJobs returns nil instead of work.
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	if jobs := <-freshGot; jobs != nil {
		t.Errorf("closed coordinator handed out %d jobs", len(jobs))
	}
}

// TestLocalityWorkConserving: when no covered worker has a free slot,
// the trace-less worker takes the captured cell (and will pay the
// preload) rather than idling — deferral never strands a cell.
func TestLocalityWorkConserving(t *testing.T) {
	c := newTestCoordinator()
	covered := newTestSession("d1")
	fresh := newTestSession()
	c.sessions[covered] = true // busy: want stays 0
	c.sessions[fresh] = true

	c.mu.Lock()
	c.queue = append(c.queue, captiveJob(1, "d1"))
	c.mu.Unlock()

	jobs := c.popJobs(fresh, 1)
	if len(jobs) != 1 || jobs[0].req.ID != 1 {
		t.Fatalf("trace-less worker got %d jobs with every covered worker busy, want the captured cell", len(jobs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.LocalityMisses != 1 {
		t.Errorf("LocalityMisses = %d, want 1", c.stats.LocalityMisses)
	}
	if c.stats.LocalityDeferrals != 0 {
		t.Errorf("LocalityDeferrals = %d, want 0 (no covered waiter existed)", c.stats.LocalityDeferrals)
	}
}

// TestPopJobsBatchFillFIFO: one ask claims up to max cells, the oldest
// first in submission order, leaving the rest queued.
func TestPopJobsBatchFillFIFO(t *testing.T) {
	c := newTestCoordinator()
	s := newTestSession()
	c.sessions[s] = true

	c.mu.Lock()
	for id := uint64(1); id <= 3; id++ {
		c.queue = append(c.queue, captiveJob(id))
	}
	c.mu.Unlock()

	jobs := c.popJobs(s, 2)
	if len(jobs) != 2 {
		t.Fatalf("claimed %d jobs, want 2", len(jobs))
	}
	if jobs[0].req.ID != 1 || jobs[1].req.ID != 2 {
		t.Errorf("claimed IDs %d,%d — want 1,2 (submission order)", jobs[0].req.ID, jobs[1].req.ID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) != 1 || c.queue[0].req.ID != 3 {
		t.Errorf("queue after claim = %d jobs, want just the newest cell", len(c.queue))
	}
	if len(s.inflight) != 2 {
		t.Errorf("inflight = %d, want 2", len(s.inflight))
	}
}

// TestPopJobsSkipsExcludedSession: a cell that just timed out on a
// session is passed over by that session while the exclusion stands.
func TestPopJobsSkipsExcludedSession(t *testing.T) {
	c := newTestCoordinator()
	s := newTestSession()
	c.sessions[s] = true

	burned := captiveJob(1)
	burned.excluded = s
	other := captiveJob(2)
	c.mu.Lock()
	c.queue = append(c.queue, burned, other)
	c.mu.Unlock()

	jobs := c.popJobs(s, 2)
	if len(jobs) != 1 || jobs[0].req.ID != 2 {
		t.Fatalf("excluded session claimed %v, want only cell 2", jobs)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) != 1 || c.queue[0].req.ID != 1 {
		t.Errorf("excluded cell left the queue")
	}
}
