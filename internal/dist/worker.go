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

	"trafficreshape/internal/experiments"
)

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
	// State, when set, is the worker's durable state — the evaluator
	// with its trace store, dataset cache and result cache — shared
	// across Serve calls, so a worker that redials after a disconnect
	// neither re-receives preloaded traces nor re-evaluates cells it
	// already answered. Nil gives the connection a private evaluator on
	// an engine with one goroutine per CPU.
	State *experiments.CellEvaluator
	// Net groups the transport security settings shared with the
	// coordinator side: TLS config, shared auth key, handshake timeout.
	Net NetOptions
	// Caches bounds the result cache of the private evaluator built
	// when State is nil; ignored when State is set.
	Caches CacheOptions
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
	conn, err := dialCoordinator(addr, opt.Net)
	if err != nil {
		return fmt.Errorf("dist: dial coordinator: %w", err)
	}
	defer conn.Close()

	state := opt.State
	if state == nil {
		state = experiments.NewCellEvaluator(experiments.NewEngine(0), opt.Caches.Results)
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

	br := bufio.NewReader(lr)
	for {
		msg, err := ReadMessage(br)
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
		case msg.Shutdown:
			return nil
		case msg.TraceZ != nil:
			// Preloaded captured trace, already inflated by the
			// decoder: store under its content digest (recomputed here,
			// so a corrupted transfer cannot be addressed by the digest
			// the coordinator meant).
			state.Store().Put(msg.TraceZ.Trace)
		default:
			// A cell batch, or a frame a worker has no use for (a
			// result batch, a trace-have, a pong), which carries none
			// and is ignored. An unknown kind never gets here:
			// ReadMessage rejects it, which ends the session.
			for _, req := range msg.Batch {
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer func() { <-sem; wg.Done() }()
					resCh <- evalRequest(state, req)
				}()
			}
		}
	}
}

// evalRequest answers one cell request from the evaluator, marking
// results its result cache served.
func evalRequest(ev *experiments.CellEvaluator, req CellRequest) CellResult {
	var ref experiments.TraceSetRef
	if req.Traces != nil {
		ref = *req.Traces
	}
	families, cached, err := ev.Eval(req.Cfg, ref, req.Scheme, req.App)
	if err != nil {
		return CellResult{ID: req.ID, Err: err.Error()}
	}
	return CellResult{ID: req.ID, Families: families, Cached: cached}
}
