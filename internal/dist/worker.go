package dist

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrMaxCells reports that a worker hit its configured cell budget
// and aborted — the chaos hook behind the kill/reassign tests.
var ErrMaxCells = errors.New("dist: worker reached its MaxCells budget")

// doorClosed reports whether err is the coordinator ending the
// connection — EOF, a reset, or a broken pipe, any of which a
// rejection (wrong key, version skew) or shutdown can surface as,
// depending on which handshake frame was in flight when the door
// shut. All of them are a worker's normal end of life, not a fault.
func doorClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// WorkerOptions tunes Serve.
type WorkerOptions struct {
	// Slots is how many cells to evaluate concurrently (advertised to
	// the coordinator); <= 0 selects GOMAXPROCS.
	Slots int
	// EngineWorkers sizes the worker's in-process engine for dataset
	// builds and cell evaluation; <= 0 selects one per CPU. Ignored
	// when State is set (the state carries its own engine).
	EngineWorkers int
	// State, when set, is the durable worker state — trace store,
	// dataset cache, result cache — shared across Serve calls, so a
	// worker that redials after a disconnect neither re-receives
	// preloaded traces nor re-evaluates cells it already answered.
	// Nil gives the connection a private state.
	State *WorkerState
	// Net groups the transport security settings shared with the
	// coordinator side: TLS config, shared auth key, handshake timeout.
	Net NetOptions
	// Caches bounds the result cache of the private worker state
	// built when State is nil; ignored when State is set.
	Caches CacheOptions
	// MaxCells > 0 makes the worker abort its connection — without
	// answering — when request MaxCells+1 arrives. Cells it already
	// answered stand (they are pure and identical everywhere); the
	// aborted one must be reassigned by the coordinator. Serving is
	// forced to one slot so the abort point is deterministic. This
	// exists for worker-death testing.
	MaxCells int
	// WedgeCells > 0 makes the worker go silent from request
	// WedgeCells+1 on: later requests are read and dropped while the
	// connection stays open — the wedged-but-alive failure mode that
	// only CoordinatorOptions.CellTimeout can detect (TCP never
	// breaks). Serving is forced to one slot so the wedge point is
	// deterministic. This exists for cell-timeout testing.
	WedgeCells int
	// WedgeFor bounds the wedge: after silently swallowing this many
	// requests the worker recovers and serves normally again — the
	// timed-out-then-recovered failure mode, where the result cache
	// keeps the recovery cheap. 0 wedges forever.
	WedgeFor int
	// Drain, when non-nil, requests a graceful drain when closed: the
	// worker stops taking new work, finishes the cells already in
	// flight, flushes their results, and Serve returns nil. expworker
	// wires SIGINT/SIGTERM here so an operator's ctrl-C never strands
	// a half-evaluated assignment unanswered.
	Drain <-chan struct{}
	// Logf, when set, receives lifecycle messages.
	Logf func(format string, args ...any)
}

// dialCoordinator opens the worker's connection per NetOptions:
// net.Dial, then Wrap, then TLS on top — the same layering order the
// coordinator's accept side uses, so injected faults sit under the
// record layer like the real network.
func dialCoordinator(addr string, netOpt NetOptions) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if netOpt.Wrap != nil {
		conn = netOpt.Wrap(conn)
	}
	if cfg := netOpt.TLS; cfg != nil {
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			// tls.Dial would have derived the name; layering by hand
			// must do the same for verification to work.
			if host, _, err := net.SplitHostPort(addr); err == nil {
				cfg = cfg.Clone()
				cfg.ServerName = host
			}
		}
		conn = tls.Client(conn, cfg)
	}
	return conn, nil
}

// liveReader is the worker side of heartbeat liveness: once the first
// ping announces the coordinator's interval, every read arms a
// deadline of three intervals — re-armed per chunk, so a long preload
// that keeps delivering bytes never falsely trips it, while true
// silence (dead or partitioned coordinator) surfaces as a deadline
// error in bounded time. It doubles as the drain trip-wire: a closed
// Drain channel marks it draining and the next (or current) read
// returns immediately.
type liveReader struct {
	conn     net.Conn
	interval atomic.Int64 // heartbeat interval in ns; 0 until pinged
	draining atomic.Bool
}

func (l *liveReader) Read(p []byte) (int, error) {
	if l.draining.Load() {
		return 0, os.ErrDeadlineExceeded
	}
	if iv := l.interval.Load(); iv > 0 {
		_ = l.conn.SetReadDeadline(time.Now().Add(3 * time.Duration(iv)))
	}
	if l.draining.Load() {
		// The drain raced our re-arm; restore the immediate deadline
		// it set so this read cannot block until the next frame.
		_ = l.conn.SetReadDeadline(time.Now())
	}
	return l.conn.Read(p)
}

// Serve dials a coordinator and evaluates cells until the coordinator
// says shutdown or the connection drops (both return nil — the
// coordinator going away is a worker's normal end of life, and so is
// being turned away by its handshake: auth rejection is the
// coordinator closing the door, not a worker fault).
func Serve(addr string, opt WorkerOptions) error {
	slots := opt.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	if opt.MaxCells > 0 || opt.WedgeCells > 0 {
		slots = 1
	}
	conn, err := dialCoordinator(addr, opt.Net)
	if err != nil {
		return fmt.Errorf("dist: dial coordinator: %w", err)
	}
	defer conn.Close()

	state := opt.State
	if state == nil {
		state = NewWorkerState(opt.EngineWorkers, opt.Caches.Results)
	}

	// Handshake: read the challenge (bounded in time — a non-speaking
	// or protocol-mismatched peer must not hang us), answer with an
	// authenticated hello, and announce the store's digests so the
	// coordinator can skip traces we already hold.
	_ = conn.SetDeadline(time.Now().Add(opt.Net.handshakeTimeout()))
	nonce, err := ReadChallenge(conn)
	if err != nil {
		if doorClosed(err) {
			return nil
		}
		return fmt.Errorf("dist: handshake: %w", err)
	}
	hello := Hello{Magic: protoMagic, Version: ProtoVersion, Slots: slots}
	if opt.Net.AuthKey != "" {
		hello.Auth = AuthTag(opt.Net.AuthKey, nonce)
	}
	if err := EncodeHello(conn, hello); err != nil {
		if doorClosed(err) {
			return nil
		}
		return fmt.Errorf("dist: handshake: %w", err)
	}
	if err := EncodeTraceHave(conn, TraceHave{Digests: state.Store().Digests()}); err != nil {
		if doorClosed(err) {
			return nil
		}
		return fmt.Errorf("dist: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	if opt.Logf != nil {
		opt.Logf("dist: worker connected to %s (%d slots)", addr, slots)
	}

	// The writer goroutine (results) and the read loop (pongs) share
	// the connection through one frameWriter, so a blackholed
	// coordinator stalls either for at most one write timeout.
	out := &frameWriter{conn: conn, timeout: opt.Net.writeTimeout()}

	lr := &liveReader{conn: conn}
	if opt.Drain != nil {
		stopMon := make(chan struct{})
		defer close(stopMon)
		go func() {
			select {
			case <-opt.Drain:
				lr.draining.Store(true)
				_ = conn.SetReadDeadline(time.Now())
			case <-stopMon:
			}
		}()
	}

	// Results flow through one writer goroutine. Each completed cell
	// lands on resCh; the writer drains whatever has accumulated and
	// packs the drain into a single result-batch frame. Batching is
	// opportunistic: a lone result ships immediately, results that
	// finish while a frame is being written share the next one. The deferred shutdown waits for in-flight
	// evaluations, closes the channel, then waits for the writer, all
	// before the deferred conn.Close above runs.
	var wg sync.WaitGroup
	resCh := make(chan CellResult, slots)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		failed := false
		for res := range resCh {
			if failed {
				continue // discard: the session is already over
			}
			batch := []CellResult{res}
		drain:
			for len(batch) < maxBatchCells {
				select {
				case r, ok := <-resCh:
					if !ok {
						break drain
					}
					batch = append(batch, r)
				default:
					break drain
				}
			}
			if err := out.write(func(w io.Writer) error { return EncodeResultBatch(w, batch) }); err != nil {
				// Write deadline or transport death: close the conn so
				// the read loop unblocks, keep consuming resCh so
				// in-flight evaluators can finish and the deferred
				// shutdown's wg.Wait does not deadlock.
				failed = true
				conn.Close()
			}
		}
	}()
	defer func() { wg.Wait(); close(resCh); <-writerDone }()

	sem := make(chan struct{}, slots)
	served, swallowed := 0, 0

	br := bufio.NewReader(lr)
	for {
		msg, err := ReadMessage(br)
		var reqs []CellRequest
		switch {
		case err != nil && lr.draining.Load():
			// Graceful drain: stop taking work and return through the
			// deferred shutdown, which waits for in-flight evaluations
			// and flushes their queued results first.
			return nil
		case doorClosed(err):
			return nil
		case errors.Is(err, os.ErrDeadlineExceeded):
			// Only heartbeat liveness arms read deadlines here: the
			// coordinator went silent past three of its own intervals.
			// Returning an error (unlike the clean door-closed nil)
			// sends expworker back through its redial backoff.
			return fmt.Errorf("dist: abandoning silent coordinator: %w", err)
		case err != nil:
			return fmt.Errorf("dist: reading coordinator stream: %w", err)
		case msg.Ping != nil:
			lr.interval.Store(int64(*msg.Ping))
			if err := out.write(EncodePong); err != nil {
				if doorClosed(err) {
					return nil
				}
				return fmt.Errorf("dist: pong: %w", err)
			}
			continue
		case msg.Shutdown:
			return nil
		case msg.TraceZ != nil:
			// Preloaded captured trace, already inflated by the
			// decoder: store under its content digest (recomputed here,
			// so a corrupted transfer cannot be addressed by the digest
			// the coordinator meant).
			state.Store().Put(msg.TraceZ.Trace)
			continue
		case len(msg.Batch) > 0:
			reqs = msg.Batch
		default:
			continue // tolerate unknown frames from newer coordinators
		}
		for _, req := range reqs {
			if opt.MaxCells > 0 && served >= opt.MaxCells {
				// Abort mid-assignment: the coordinator must notice the
				// death and reassign this cell.
				conn.Close()
				return ErrMaxCells
			}
			if opt.WedgeCells > 0 && served >= opt.WedgeCells &&
				(opt.WedgeFor <= 0 || swallowed < opt.WedgeFor) {
				// Wedge: swallow the request, answer nothing, stay
				// connected. Only the coordinator's cell timeout can
				// reclaim the cell. With WedgeFor set the wedge clears
				// after that many swallowed requests — the worker
				// recovers and serves again.
				swallowed++
				continue
			}
			served++
			req := req
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				resCh <- state.evalCached(req)
			}()
		}
	}
}
