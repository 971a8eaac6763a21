package dist

// Unit coverage for the FIFO queue behind popJobs: claim order and the
// timeout exclusion, driven deterministically against hand-built
// sessions.

import (
	"sync"
	"testing"
)

// newTestCoordinator builds the scheduler core — queue, cond, stats,
// sessions — with no listener, so popJobs can be driven directly.
func newTestCoordinator() *Coordinator {
	c := &Coordinator{
		sessions: make(map[*session]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func newTestSession() *session {
	return &session{
		inflight: make(map[uint64]*job),
		slots:    make(chan struct{}, 2),
	}
}

func captiveJob(id uint64) *job {
	j := &job{done: make(chan jobResult, 1)}
	j.req.ID = id
	return j
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
