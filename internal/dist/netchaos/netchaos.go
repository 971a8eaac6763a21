// Package netchaos injects deterministic network faults into fleet
// connections. It is the transport-layer sibling of the stream
// package's chaos test hooks: where those perturb the streaming
// daemon's logical event order, netchaos perturbs the bytes and
// lifetime of a net.Conn — injected latency, short writes split
// across syscalls, flipped bytes, mid-frame resets, and the half-open
// "blackhole" state where a peer is gone but TCP never says so.
//
// Every fault is drawn from a stats.RNG stream, so a schedule replays
// exactly: the controller splits one child RNG per wrapped connection
// (in wrap order) and each connection draws its faults per write from
// its own stream. The chaos tests dial fleets through Wrap via the
// NetOptions.Wrap seam and assert the invariants that must survive any
// schedule — grids byte-identical to serial, every cell accounted for
// exactly once — rather than any particular fault transcript, because
// connection accept order is scheduler-dependent even when each
// connection's schedule is not.
//
// Faults are injected on the write side of the wrapped connection:
// corrupting what this end writes is what corrupts what the peer
// reads, and a blackholed writer is indistinguishable (to the peer)
// from a partitioned host. Blackhole additionally hangs this end's
// reads, completing the half-open illusion in both directions.
package netchaos

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trafficreshape/internal/stats"
)

// ErrReset is returned from a Write the plan tore down mid-frame; the
// peer sees a truncated frame followed by a closing socket.
var ErrReset = errors.New("netchaos: injected connection reset")

// ErrBlackholed is returned from reads on a blackholed connection
// after BlackholeTimeout (reads block forever when the timeout is
// zero, exactly like a half-open TCP peer with no keepalive).
var ErrBlackholed = errors.New("netchaos: connection blackholed")

// Plan selects which faults a Chaos controller injects and how often.
// All probabilities are per Write call; zero values disable the fault.
type Plan struct {
	// DelayProb delays a write by Delay before it is issued —
	// injected latency, the mildest fault.
	DelayProb float64
	Delay     time.Duration
	// ShortWriteProb splits a write at a random interior point into
	// two separate syscalls, so frames cross syscall boundaries and
	// exercise the peer's reassembly.
	ShortWriteProb float64
	// CorruptProb flips one random byte of the written buffer (the
	// original slice is never touched). A framed peer must detect the
	// damage structurally or — under TLS — via the record MAC; either
	// way the session dies and its cells are requeued.
	CorruptProb float64
	// ResetProb tears the connection down mid-write: a random prefix
	// is delivered, then the socket closes. The peer sees a truncated
	// frame and then EOF/RST.
	ResetProb float64
	// BlackholeProb flips the connection half-open: this write and
	// every later one is silently swallowed (reported as delivered)
	// and reads hang. The peer sees silence with the socket still up —
	// the fault only heartbeat liveness can detect.
	BlackholeProb float64
	// BlackholeAfterWrites, when positive, blackholes the connection
	// deterministically at the Nth Write call (1-based), independent
	// of the RNG — the knob for tests that need the fault to land
	// exactly after the handshake.
	BlackholeAfterWrites int
	// BlackholeTimeout bounds how long a blackholed read blocks before
	// returning ErrBlackholed — the OS eventually reaping the
	// connection. Zero blocks until Close.
	BlackholeTimeout time.Duration
}

// Stats counts the faults a controller actually injected, so tests
// can assert a schedule exercised what it claims to.
type Stats struct {
	Conns       int64
	Delays      int64
	ShortWrites int64
	Corruptions int64
	Resets      int64
	Blackholes  int64
}

// Chaos is a fault controller: one per test schedule, wrapping any
// number of connections. Safe for concurrent use.
type Chaos struct {
	plan Plan

	mu  sync.Mutex // guards rng across concurrent Wrap calls
	rng *stats.RNG

	conns       atomic.Int64
	delays      atomic.Int64
	shortWrites atomic.Int64
	corruptions atomic.Int64
	resets      atomic.Int64
	blackholes  atomic.Int64
}

// New builds a controller whose fault schedule derives entirely from
// seed: the same seed and plan replay the same per-connection
// schedules.
func New(seed uint64, plan Plan) *Chaos {
	return &Chaos{plan: plan, rng: stats.NewRNG(seed)}
}

// Wrap returns conn with the controller's faults injected. Each
// wrapped connection draws from its own RNG stream, split from the
// controller's in wrap order.
func (c *Chaos) Wrap(conn net.Conn) net.Conn {
	c.mu.Lock()
	child := c.rng.Split()
	c.mu.Unlock()
	c.conns.Add(1)
	return &chaosConn{Conn: conn, ctl: c, rng: child, unblock: make(chan struct{})}
}

// Stats snapshots the fault counters.
func (c *Chaos) Stats() Stats {
	return Stats{
		Conns:       c.conns.Load(),
		Delays:      c.delays.Load(),
		ShortWrites: c.shortWrites.Load(),
		Corruptions: c.corruptions.Load(),
		Resets:      c.resets.Load(),
		Blackholes:  c.blackholes.Load(),
	}
}

// chaosConn is one wrapped connection.
type chaosConn struct {
	net.Conn
	ctl *Chaos

	wmu    sync.Mutex // serializes writes and the RNG they draw from
	rng    *stats.RNG
	writes int

	blackholed atomic.Bool
	closeOnce  sync.Once
	unblock    chan struct{} // closed on Close, releasing blackholed reads
}

func (cn *chaosConn) Write(p []byte) (int, error) {
	if cn.blackholed.Load() {
		return len(p), nil
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	plan := cn.ctl.plan
	cn.writes++

	// Draw the full fault vector every write, in a fixed order, so a
	// connection's schedule depends only on its write index — never on
	// which faults earlier writes happened to take.
	delay := plan.DelayProb > 0 && cn.rng.Float64() < plan.DelayProb
	blackhole := plan.BlackholeProb > 0 && cn.rng.Float64() < plan.BlackholeProb
	reset := plan.ResetProb > 0 && cn.rng.Float64() < plan.ResetProb
	corrupt := plan.CorruptProb > 0 && cn.rng.Float64() < plan.CorruptProb
	short := plan.ShortWriteProb > 0 && cn.rng.Float64() < plan.ShortWriteProb
	if plan.BlackholeAfterWrites > 0 && cn.writes >= plan.BlackholeAfterWrites {
		blackhole = true
	}

	if delay {
		cn.ctl.delays.Add(1)
		time.Sleep(plan.Delay)
	}
	if blackhole {
		cn.ctl.blackholes.Add(1)
		cn.blackholed.Store(true)
		return len(p), nil // swallowed: the peer never sees this write
	}
	if reset && len(p) > 0 {
		cn.ctl.resets.Add(1)
		n := cn.rng.Intn(len(p))
		if n > 0 {
			_, _ = cn.Conn.Write(p[:n])
		}
		_ = cn.Conn.Close()
		return n, ErrReset
	}
	if corrupt && len(p) > 0 {
		cn.ctl.corruptions.Add(1)
		damaged := make([]byte, len(p))
		copy(damaged, p)
		damaged[cn.rng.Intn(len(damaged))] ^= 0xFF
		p = damaged
	}
	if short && len(p) > 1 {
		cn.ctl.shortWrites.Add(1)
		cut := 1 + cn.rng.Intn(len(p)-1)
		n, err := cn.Conn.Write(p[:cut])
		if err != nil {
			return n, err
		}
		m, err := cn.Conn.Write(p[cut:])
		return n + m, err
	}
	return cn.Conn.Write(p)
}

func (cn *chaosConn) Read(p []byte) (int, error) {
	for {
		if cn.blackholed.Load() {
			return cn.blackholeWait()
		}
		n, err := cn.Conn.Read(p)
		if cn.blackholed.Load() {
			// The connection went half-open while this read was
			// blocked; whatever arrived (or failed) is swallowed and
			// the read hangs like the rest.
			continue
		}
		return n, err
	}
}

// blackholeWait blocks a read on a half-open connection until Close —
// or until the plan's BlackholeTimeout stands in for the OS reaping
// the dead peer.
func (cn *chaosConn) blackholeWait() (int, error) {
	if t := cn.ctl.plan.BlackholeTimeout; t > 0 {
		timer := time.NewTimer(t)
		defer timer.Stop()
		select {
		case <-cn.unblock:
			return 0, net.ErrClosed
		case <-timer.C:
			return 0, ErrBlackholed
		}
	}
	<-cn.unblock
	return 0, net.ErrClosed
}

func (cn *chaosConn) Close() error {
	cn.closeOnce.Do(func() { close(cn.unblock) })
	return cn.Conn.Close()
}
