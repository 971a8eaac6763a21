package dist

import (
	"bufio"
	"crypto/hmac"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// Coordinator owns the worker fleet and implements
// experiments.Backend: EvalGrid ships every cell to connected workers
// by its wire address and evaluates the cells the fleet cannot answer
// — cells stranded by worker death, the whole grid when no worker is
// connected — in-process with the identical cell function.
// Workers may join and leave at any time, including mid-grid.
type Coordinator struct {
	ln           net.Listener
	pool         *par.Pool
	logf         func(format string, args ...any)
	cellTimeout  time.Duration
	hsTimeout    time.Duration
	writeTimeout time.Duration
	heartbeat    time.Duration
	authKey      string
	journal      *GridJournal
	reapStop     chan struct{}
	// store holds the captured traces of every grid offered to the
	// fleet, content-addressed; dispatch preloads workers from it
	// before sending a captured cell.
	store *experiments.TraceStore

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job // FIFO, reclaimed cells at the front (see popJobs)
	sessions map[*session]bool
	nextID   uint64
	reapTick uint64
	closed   bool
	stats    StatsSnapshot
}

// CoordinatorOptions tunes a coordinator.
type CoordinatorOptions struct {
	// Pool, when set, is the permit pool for cells evaluated
	// in-process (empty fleet, fallback after worker failure). Pass
	// the driving Engine's Pool() so local fallback stays inside the
	// engine's concurrency bound instead of doubling it. Nil gives the
	// coordinator a private pool of one worker per CPU.
	Pool *par.Pool
	// CellTimeout, when positive, bounds how long one cell may sit
	// unanswered on a worker. TCP death is detected immediately, but a
	// wedged-but-alive worker (stuck evaluation, livelocked host)
	// holds its cell forever; after the deadline the coordinator takes
	// the cell back and re-queues it for the rest of the fleet. A
	// reclaimed cell's deadline doubles each time, so a cell that is
	// merely slow still makes progress; when every slot of every
	// connected worker is stuck on a wedged cell, the queue is failed
	// back to the caller, which evaluates locally. Cells are pure, so
	// a late duplicate answer is simply discarded. Zero disables the
	// deadline.
	CellTimeout time.Duration
	// Net groups the transport security settings shared with the
	// worker side: TLS config, shared auth key, handshake timeout.
	Net NetOptions
	// Heartbeat, when positive, turns on liveness probing: every
	// session is pinged at this interval, and a session that produces
	// no inbound frames for three intervals is reaped — its in-flight
	// cells requeued like any other worker death. This is the only
	// detector for half-open peers: a partitioned or blackholed worker
	// keeps its TCP session "up" indefinitely, holds its slots, and
	// never errors, while CellTimeout (when the cell is honest work)
	// can only grind through it with doubling deadlines. Zero disables
	// probing.
	Heartbeat time.Duration
	// Journal, when set, records every completed cell (scheme, app,
	// config, trace ref → confusion families) to a durable append-only
	// file, whether a worker or the local fallback evaluated it, and
	// answers matching cells from it on later grids — the crash-resume
	// path behind `experiments -journal -resume`. Cells answered from
	// the journal count as JournalHits and are never dispatched.
	Journal *GridJournal
	// Logf, when set, receives worker lifecycle messages.
	Logf func(format string, args ...any)
}

// job is one cell in flight: the request plus the slot its result is
// delivered to. It waits in the coordinator's FIFO queue until a
// session claims it. Delivery happens exactly once — a job is owned by
// whichever path removed it from its session's inflight map (worker
// answer, worker death, or cell timeout); late answers for reclaimed
// cells find no inflight entry and are discarded.
type job struct {
	req  CellRequest
	done chan jobResult
	// assignedAt is when the job last left the queue for a worker;
	// guarded by the coordinator's mu.
	assignedAt time.Time
	// deadline is this job's current reap deadline. It starts at the
	// coordinator's CellTimeout and doubles every time the job is
	// reclaimed, so a cell that is merely slow — not stuck on a wedged
	// worker — is guaranteed to eventually outrun the reaper and make
	// progress, even when honest evaluation time exceeds the base
	// timeout. Guarded by the coordinator's mu.
	deadline time.Duration
	// excluded names the session the job last timed out on, so popJobs
	// steers the retry to a different worker — a wedged multi-slot
	// worker must not immediately re-claim (and re-wedge) the cell it
	// just lost. The exclusion is best-effort and expires after one
	// reap tick (excludedTick != the current tick), so it can delay a
	// retry but never strand it. Guarded by the coordinator's mu.
	excluded     *session
	excludedTick uint64
}

type jobResult struct {
	families []ml.Confusion
	err      error
}

// session is one connected worker.
type session struct {
	// frameWriter owns the connection; every frame the coordinator
	// sends goes through its serialized, deadline-bounded write.
	frameWriter
	name  string
	slots chan struct{} // in-flight permits, capacity = Hello.Slots
	die   chan struct{} // closed when the session fails

	// sent tracks the trace digests this worker holds: seeded from
	// its trace-have announcement in admit (before the dispatch
	// goroutine starts), grown by preloadTraces on that goroutine. No
	// other goroutine touches it, so it needs no lock.
	sent map[string]bool

	// cells and batches count dispatched work for WorkerSnapshot.
	// Guarded by the coordinator's mu.
	cells   int
	batches int

	// inflight is guarded by the coordinator's mu.
	inflight map[uint64]*job
	// wedged counts slots lost to timed-out cells: the stuck
	// evaluation still occupies the slot until (if ever) the worker
	// answers and read() recycles it. cap(slots) - wedged is the
	// session's remaining useful capacity. Guarded by the
	// coordinator's mu.
	wedged int
	dead   bool

	// lastRecv is when the last inbound frame (any kind, pongs
	// included) arrived — the liveness signal the pinger measures
	// silence against. Guarded by the coordinator's mu.
	lastRecv time.Time
}

// NewCoordinator listens on addr ("" means 127.0.0.1:0) and starts
// accepting workers immediately.
func NewCoordinator(addr string, opt CoordinatorOptions) (*Coordinator, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	if opt.Net.Wrap != nil {
		ln = wrapListener{Listener: ln, wrap: opt.Net.Wrap}
	}
	if opt.Net.TLS != nil {
		ln = tls.NewListener(ln, opt.Net.TLS)
	}
	pool := opt.Pool
	if pool == nil {
		pool = par.NewPool(runtime.NumCPU())
	}
	c := &Coordinator{
		ln:           ln,
		pool:         pool,
		logf:         opt.Logf,
		cellTimeout:  opt.CellTimeout,
		hsTimeout:    opt.Net.handshakeTimeout(),
		writeTimeout: opt.Net.writeTimeout(),
		heartbeat:    opt.Heartbeat,
		authKey:      opt.Net.AuthKey,
		journal:      opt.Journal,
		reapStop:     make(chan struct{}),
		store:        experiments.NewTraceStore(),
		sessions:     make(map[*session]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.accept()
	if c.cellTimeout > 0 {
		go c.reap()
	}
	return c, nil
}

// Addr returns the coordinator's listen address for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats returns a snapshot of the placement counters, queue depth,
// and per-worker occupancy. The snapshot is a value copy; see
// StatsSnapshot for the field-stability promise.
func (c *Coordinator) Stats() StatsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.stats
	snap.QueueDepth = len(c.queue)
	snap.Workers = make([]WorkerSnapshot, 0, len(c.sessions))
	for s := range c.sessions {
		snap.Workers = append(snap.Workers, WorkerSnapshot{
			Name:     s.name,
			Slots:    cap(s.slots),
			InFlight: len(s.inflight),
			Wedged:   s.wedged,
			Cells:    s.cells,
			Batches:  s.batches,
		})
	}
	return snap
}

// WaitWorkers blocks until n workers are connected or the timeout
// elapses.
func (c *Coordinator) WaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer wake.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.sessions) < n {
		if c.closed {
			return errors.New("dist: coordinator closed")
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("dist: %d/%d workers connected after %v", len(c.sessions), n, timeout)
		}
		c.cond.Wait()
	}
	return nil
}

// Close stops accepting workers, asks connected ones to shut down,
// and drops the fleet. Grids submitted after Close run fully local.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	sessions := make([]*session, 0, len(c.sessions))
	for s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.reapStop)

	err := c.ln.Close()
	for _, s := range sessions {
		_ = s.write(EncodeShutdown) // best-effort goodbye
		c.failSession(s, errors.New("dist: coordinator closing"))
	}
	return err
}

// accept admits workers until the listener closes.
func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.admit(conn)
	}
}

// admit performs the handshake — challenge out, authenticated hello
// and trace-have back — and registers the worker. ReadHello and
// ReadMessage read exactly each frame's bytes (no readahead), so
// handing the raw conn to read()'s own buffered reader afterwards
// cannot drop frames a worker pipelined behind its handshake.
func (c *Coordinator) admit(conn net.Conn) {
	// The deadline reaps strays that connect and say nothing (or
	// plaintext peers stalling a TLS handshake); allocation abuse is
	// handled by the per-frame byte caps — nothing on the other end
	// has proven itself a worker until the auth tag verifies.
	_ = conn.SetDeadline(time.Now().Add(c.hsTimeout))
	nonce, err := EncodeChallenge(conn, nil)
	if err != nil {
		c.reject(conn, "challenge write failed: %v", err)
		return
	}
	hello, err := ReadHello(conn)
	if err != nil || hello.Magic != protoMagic {
		c.reject(conn, "bad handshake")
		return
	}
	if hello.Version != ProtoVersion {
		c.reject(conn, "protocol version %d, want %d", hello.Version, ProtoVersion)
		return
	}
	if c.authKey != "" {
		want := AuthTag(c.authKey, nonce)
		if !hmac.Equal([]byte(want), []byte(hello.Auth)) {
			c.reject(conn, "auth tag mismatch")
			return
		}
	}
	// The trace-have announcement rides right behind the hello; only
	// an authenticated peer gets this far, so the ordinary frame
	// bound applies.
	msg, err := ReadMessage(conn)
	if err != nil || msg.Have == nil {
		c.reject(conn, "missing trace-have announcement")
		return
	}
	_ = conn.SetDeadline(time.Time{})
	slots := hello.Slots
	if slots < 1 {
		slots = 1
	}
	if slots > 64 {
		slots = 64
	}
	sent := make(map[string]bool, len(msg.Have.Digests))
	for _, d := range msg.Have.Digests {
		sent[d] = true
	}
	s := &session{
		frameWriter: frameWriter{conn: conn, timeout: c.writeTimeout},
		name:        conn.RemoteAddr().String(),
		slots:       make(chan struct{}, slots),
		die:         make(chan struct{}),
		sent:        sent,
		inflight:    make(map[uint64]*job),
		lastRecv:    time.Now(),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.sessions[s] = true
	c.stats.WorkersJoined++
	c.cond.Broadcast()
	c.mu.Unlock()
	if c.logf != nil {
		c.logf("dist: worker %s joined (%d slots)", s.name, slots)
	}
	go c.dispatch(s)
	go c.read(s)
	if c.heartbeat > 0 {
		go c.ping(s)
	}
}

// ping probes one session at the heartbeat interval and reaps it
// when it has produced no inbound frame for three intervals. Pongs
// come from the worker's read loop — not its evaluation goroutines —
// so a busy worker stays live and a wedged-but-reading worker is
// correctly left to CellTimeout; only a dead path (half-open TCP,
// partition, blackholed peer) goes silent here.
func (c *Coordinator) ping(s *session) {
	tick := time.NewTicker(c.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.die:
			return
		case <-c.reapStop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		silence := time.Since(s.lastRecv)
		if silence > 3*c.heartbeat {
			c.stats.HeartbeatReaps++
			c.mu.Unlock()
			c.failSession(s, fmt.Errorf("dist: no frames for %v (heartbeat liveness)", silence.Round(time.Millisecond)))
			return
		}
		c.mu.Unlock()
		if err := s.write(func(w io.Writer) error { return EncodePing(w, c.heartbeat) }); err != nil {
			c.failSession(s, fmt.Errorf("dist: ping: %w", err))
			return
		}
		c.mu.Lock()
		c.stats.PingsSent++
		c.mu.Unlock()
	}
}

// reject turns a connection away during the handshake, counting it.
func (c *Coordinator) reject(conn net.Conn, format string, args ...any) {
	c.mu.Lock()
	c.stats.HandshakesRejected++
	c.mu.Unlock()
	if c.logf != nil {
		c.logf("dist: rejecting %s: %s", conn.RemoteAddr(), fmt.Sprintf(format, args...))
	}
	conn.Close()
}

// dispatch feeds queued cells to one worker, keeping at most its
// advertised slot count in flight. Captured cells are preceded by
// trace frames for any digest the worker does not yet hold — frames
// are ordered per connection, so by the time the worker reads the
// request its store has every named trace. Cells go out as binary
// cell-batch frames sized to however many of the worker's slots are
// free when work is available, amortizing framing and syscalls without
// ever delaying a lone cell.
func (c *Coordinator) dispatch(s *session) {
	for {
		// Claim one permit (blocking), then opportunistically every
		// other free permit — batches size themselves to the worker's
		// idle capacity.
		select {
		case s.slots <- struct{}{}:
		case <-s.die:
			return
		}
		permits := 1
	acquire:
		for permits < cap(s.slots) {
			select {
			case s.slots <- struct{}{}:
				permits++
			default:
				break acquire // no more free slots
			}
		}
		jobs := c.popJobs(s, permits)
		if jobs == nil {
			return // session failed or coordinator closed
		}
		// Unused permits go back: popJobs may have found fewer cells
		// than the worker has free slots.
		for i := len(jobs); i < permits; i++ {
			<-s.slots
		}
		for _, j := range jobs {
			if err := c.preloadTraces(s, j.req); err != nil {
				c.failSession(s, err)
				return
			}
		}
		// The preload can move serious data (a one-time cost per
		// worker); re-stamp the assignments so each cell's reap
		// deadline measures evaluation time, not transfer time —
		// otherwise the first captured cell on every worker could time
		// out during its own preload and falsely mark a healthy slot
		// wedged.
		c.mu.Lock()
		now := time.Now()
		for _, j := range jobs {
			j.assignedAt = now
		}
		s.cells += len(jobs)
		s.batches++
		c.stats.BatchesSent++
		c.stats.BatchedCells += len(jobs)
		c.mu.Unlock()
		reqs := make([]CellRequest, len(jobs))
		for i, j := range jobs {
			reqs[i] = j.req
		}
		err := s.write(func(w io.Writer) error { return EncodeCellBatch(w, reqs) })
		if err != nil {
			c.failSession(s, err)
			return
		}
	}
}

// preloadTraces ships, flate-compressed, the captured traces req needs
// that s has not been sent, at most once per worker connection (a
// rejoining worker's trace-have announcement carries its holdings
// forward, so the push is resumable across reconnects). A digest
// missing from the coordinator's own store is skipped: the worker will
// answer with a store-miss error and the cell falls back to local
// evaluation. s.sent belongs to s's dispatch goroutine, the only
// caller; mu is taken only for the TracesSent counter.
func (c *Coordinator) preloadTraces(s *session, req CellRequest) error {
	if req.Traces == nil {
		return nil
	}
	for _, d := range req.Traces.Digests() {
		if s.sent[d] {
			continue
		}
		tr, ok := c.store.Get(d)
		if !ok {
			continue
		}
		// The frame's App label comes from the trace's own packets
		// (captured traces are per-application): a cell's preload can
		// carry other applications' traces, so req.App would mislabel
		// them. Receivers address the store by recomputed digest and
		// treat the label as informational.
		app := req.App
		if len(tr.Packets) > 0 {
			app = tr.Packets[0].App
		}
		payload := TracePayload{App: app, Trace: tr}
		err := s.write(func(w io.Writer) error { return EncodeTraceCompressed(w, payload) })
		if err != nil {
			return err
		}
		s.sent[d] = true
		c.mu.Lock()
		c.stats.TracesSent++
		c.mu.Unlock()
	}
	return nil
}

// popJobs claims up to max queued cells s may take, blocking until at
// least one exists. The queue is FIFO: cells join the back in
// submission order, reclaimed and stranded cells go back to the front,
// and a scan from the front takes the oldest cells first, passing over
// only a cell whose timeout exclusion names s. A cost-ordered queue
// (longest estimated cell first) was measured against this FIFO on the
// fleet-cold benchmark and did not pay, so the queue carries no cost
// model. Each claim is recorded in s.inflight before any request
// leaves, so a death at any later point finds the cells and re-queues
// them.
func (c *Coordinator) popJobs(s *session, max int) []*job {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !s.dead && !c.closed {
		var taken []*job
		for i := 0; i < len(c.queue) && len(taken) < max; {
			j := c.queue[i]
			if j.excluded == s {
				i++
				continue
			}
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			j.excluded = nil
			j.assignedAt = time.Now()
			s.inflight[j.req.ID] = j
			taken = append(taken, j)
		}
		if len(taken) > 0 {
			return taken
		}
		c.cond.Wait()
	}
	return nil
}

// reap periodically reclaims cells that have sat on a worker past
// their deadline. A reclaimed cell goes back to the front of the
// queue with a doubled deadline — so a slow-but-honest cell cannot be
// reaped forever — excluded for one tick from the worker it timed out
// on (a wedged multi-slot worker must not instantly re-claim and
// re-wedge it), and its slot is marked wedged (the stuck evaluation
// still occupies it; if the worker ever answers, read() recycles the
// slot and discards the stale result). When the whole fleet's useful
// capacity is gone — every slot of every connected worker stuck on a
// wedged cell — queued cells can never be dispatched, so the queue is
// failed back to its grid, which evaluates locally. Both reclaim
// paths deliver each job exactly once: ownership is whoever removed
// it from an inflight map or the queue under mu.
func (c *Coordinator) reap() {
	granularity := c.cellTimeout / 4
	if granularity <= 0 {
		granularity = c.cellTimeout
	}
	tick := time.NewTicker(granularity)
	defer tick.Stop()
	for {
		select {
		case <-c.reapStop:
			return
		case <-tick.C:
		}
		now := time.Now()
		var failed []*job
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.reapTick++
		// Exclusions from earlier ticks have had a full tick for the
		// rest of the fleet to take the job; expire them so a retry is
		// delayed at most one tick, never stranded.
		expired := false
		for _, j := range c.queue {
			if j.excluded != nil && j.excludedTick != c.reapTick {
				j.excluded = nil
				expired = true
			}
		}
		var reclaimed []*job
		for s := range c.sessions {
			for id, j := range s.inflight {
				if now.Sub(j.assignedAt) < j.deadline {
					continue
				}
				delete(s.inflight, id)
				s.wedged++
				c.stats.TimedOut++
				if c.logf != nil {
					c.logf("dist: cell %d timed out on worker %s after %v", id, s.name, j.deadline)
				}
				j.deadline *= 2
				j.excluded = s
				j.excludedTick = c.reapTick
				reclaimed = append(reclaimed, j)
			}
		}
		if len(reclaimed) > 0 {
			c.queue = append(reclaimed, c.queue...)
		}
		capacity := 0
		for s := range c.sessions {
			capacity += cap(s.slots) - s.wedged
		}
		if capacity <= 0 && len(c.queue) > 0 {
			// Fully wedged fleet: nothing can dispatch the queue.
			failed = c.queue
			c.queue = nil
		} else if len(reclaimed) > 0 || expired {
			c.stats.Reassigned += len(reclaimed)
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		for _, j := range failed {
			j.done <- jobResult{err: fmt.Errorf("dist: cell timed out with the whole fleet wedged")}
		}
	}
}

// read consumes the worker's result stream: result-batch frames, each
// result fed to the per-result delivery path. Every decoded frame
// refreshes the session's liveness stamp; a frame that fails to decode
// fails the session (its cells requeue), counted apart from transport
// death so operators can tell corruption from churn.
func (c *Coordinator) read(s *session) {
	br := bufio.NewReader(s.conn)
	for {
		msg, err := ReadMessage(br)
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				c.mu.Lock()
				c.stats.CorruptFrames++
				c.mu.Unlock()
			}
			c.failSession(s, err)
			return
		}
		c.mu.Lock()
		s.lastRecv = time.Now()
		if msg.Pong {
			c.stats.PongsReceived++
		}
		c.mu.Unlock()
		for _, r := range msg.Results {
			c.deliver(s, r)
		}
	}
}

// deliver routes one cell answer to its waiting job and recycles the
// slot the cell held.
func (c *Coordinator) deliver(s *session, res CellResult) {
	c.mu.Lock()
	j, ok := s.inflight[res.ID]
	if ok {
		delete(s.inflight, res.ID)
		if res.Err == "" {
			c.stats.RemoteCells++
			if res.Cached {
				c.stats.RemoteCacheHits++
			}
		}
	} else {
		// Duplicate: a cell reclaimed by timeout (or a stray ID)
		// answered after its slot moved on. The result is
		// deduplicated — whoever owns the job now delivers it —
		// and counted apart from TimedOut, because not every
		// timeout produces a late answer.
		c.stats.LateDuplicates++
		if s.wedged > 0 {
			// The worker just proved it is alive and done with
			// the stuck cell, so its slot is useful capacity
			// again.
			s.wedged--
		}
	}
	c.mu.Unlock()
	if !ok {
		// Late answer for a reclaimed cell: discard the result,
		// recycle the slot it held.
		select {
		case <-s.slots:
		default:
		}
		return
	}
	if res.Err != "" {
		j.done <- jobResult{err: errors.New(res.Err)}
	} else {
		j.done <- jobResult{families: res.Families}
	}
	<-s.slots
}

// failSession removes a dead worker. Its in-flight cells are
// re-queued when other workers remain — retrying is safe because
// cells are pure — and failed back to their grid (which evaluates
// them locally) when the fleet is empty.
func (c *Coordinator) failSession(s *session, cause error) {
	c.mu.Lock()
	if s.dead {
		c.mu.Unlock()
		return
	}
	s.dead = true
	close(s.die)
	delete(c.sessions, s)
	c.stats.WorkersLost++
	stranded := make([]*job, 0, len(s.inflight))
	for id, j := range s.inflight {
		delete(s.inflight, id)
		stranded = append(stranded, j)
	}
	var orphaned []*job
	if len(c.sessions) > 0 {
		c.stats.Reassigned += len(stranded)
		c.queue = append(stranded, c.queue...)
	} else {
		// Last worker gone: everything pending comes home.
		orphaned = append(stranded, c.queue...)
		c.queue = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	s.conn.Close()
	if c.logf != nil {
		c.logf("dist: worker %s lost (%v), %d cells stranded", s.name, cause, len(stranded))
	}
	for _, j := range orphaned {
		j.done <- jobResult{err: fmt.Errorf("dist: no workers left: %w", cause)}
	}
}

// submitAll enqueues a set of cells in one critical section and
// returns their delivery channels, or nil when no worker is connected
// (the caller evaluates locally). Cells join the back of the queue in
// submission order; appending the whole grid before the single
// broadcast lets every dispatcher see the full queue on its first
// scan, so batches fill.
func (c *Coordinator) submitAll(reqs []CellRequest) []chan jobResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.sessions) == 0 {
		return nil
	}
	chans := make([]chan jobResult, len(reqs))
	for i, req := range reqs {
		c.nextID++
		req.ID = c.nextID
		j := &job{
			req:      req,
			done:     make(chan jobResult, 1),
			deadline: c.cellTimeout,
		}
		c.queue = append(c.queue, j)
		chans[i] = j.done
	}
	if len(c.queue) > c.stats.MaxQueueDepth {
		c.stats.MaxQueueDepth = len(c.queue)
	}
	c.cond.Broadcast()
	return chans
}

// EvalGrid implements experiments.Backend: every cell goes to the
// fleet by its wire address, and any cell the fleet fails to answer
// (or every cell, when no worker is connected) is evaluated locally —
// so the grid always completes, with results byte-identical to the
// serial engine's. Grids over captured datasets ship their trace ref
// with every cell; the traces themselves are registered with the
// coordinator's store here and preloaded per worker by dispatch.
func (c *Coordinator) EvalGrid(ds *experiments.Dataset, schemes []experiments.Scheme) [][]*ml.Confusion {
	apps := trace.Apps
	n := len(schemes) * len(apps)
	cells := make([][]*ml.Confusion, n)

	var traceRef *experiments.TraceSetRef
	if ref, captured := ds.TraceRef(); captured {
		c.store.AddResolved(ref, ds.Source())
		traceRef = &ref
	}

	// reqs holds every cell's wire address, indexed by cell, so a
	// result can be journaled wherever it ends up evaluated (remote
	// success or local fallback).
	reqs := make([]CellRequest, n)
	var pending []int // cells the journal did not answer
	var submit []CellRequest
	for i := range reqs {
		reqs[i] = CellRequest{Cfg: ds.Cfg, Scheme: schemes[i/len(apps)].Name, App: apps[i%len(apps)], Traces: traceRef}
		if c.journal != nil {
			if fams, hit := c.journal.Lookup(reqs[i]); hit {
				cells[i] = famPtrs(fams)
				c.mu.Lock()
				c.stats.JournalHits++
				c.mu.Unlock()
				continue
			}
		}
		pending = append(pending, i)
		submit = append(submit, reqs[i])
	}

	record := func(i int, fams []ml.Confusion) {
		if err := c.journal.Record(reqs[i], fams); err != nil && c.logf != nil {
			c.logf("dist: journal: %v", err)
		}
	}
	evalLocal := func(idxs []int) {
		c.pool.Each(len(idxs), func(k int) {
			i := idxs[k]
			cells[i] = experiments.EvalCell(ds, schemes[i/len(apps)], apps[i%len(apps)])
		})
		c.mu.Lock()
		c.stats.LocalCells += len(idxs)
		c.mu.Unlock()
		if c.journal != nil {
			for _, i := range idxs {
				record(i, famValues(cells[i]))
			}
		}
	}

	// The whole grid enqueues in one shot so dispatchers see the full
	// queue (and can fill batches) from their first scan.
	chans := c.submitAll(submit)
	if chans == nil {
		evalLocal(pending)
		return cells
	}
	var retry []int
	for k, done := range chans {
		i := pending[k]
		r := <-done
		if r.err != nil {
			retry = append(retry, i)
			continue
		}
		cells[i] = famPtrs(r.families)
		if c.journal != nil {
			record(i, r.families)
		}
	}
	evalLocal(retry)
	return cells
}

// famPtrs and famValues convert between the grid's per-cell pointer
// layout and the wire/journal value layout.
func famPtrs(fams []ml.Confusion) []*ml.Confusion {
	out := make([]*ml.Confusion, len(fams))
	for i := range fams {
		f := fams[i]
		out[i] = &f
	}
	return out
}

func famValues(fams []*ml.Confusion) []ml.Confusion {
	out := make([]ml.Confusion, len(fams))
	for i, f := range fams {
		out[i] = *f
	}
	return out
}
