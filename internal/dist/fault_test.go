package dist_test

// Fault-tolerance contracts: heartbeat liveness on both ends of the
// connection, mid-session garbage containment, graceful worker drain,
// and journal-backed resume. Every test asserts the same two master
// invariants the fleet promises through any fault — the grid is
// byte-identical to serial, and every offered cell is accounted for
// exactly once (RemoteCells + LocalCells + JournalHits).

import (
	"encoding/binary"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/dist/netchaos"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// TestHeartbeatReapsBlackholedWorker: a worker whose connection goes
// half-open right after the handshake — every frame it sends from then
// on silently vanishes, TCP never errors — is exactly the fault only
// heartbeat liveness can see. The coordinator must reap it within a
// bounded number of intervals, requeue its cells, and still produce
// the serial grid bit for bit.
func TestHeartbeatReapsBlackholedWorker(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		Pool:      par.NewPool(2),
		Heartbeat: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	// Writes 1-4 are the hello and trace-have (each frame is a header
	// write plus a payload write) — the handshake lands, the worker
	// joins — and write 5, the first post-handshake frame (pong or
	// result), flips the connection half-open. The timeout stands in
	// for the OS eventually reaping the dead socket on the worker's
	// side.
	chaos := netchaos.New(1, netchaos.Plan{
		BlackholeAfterWrites: 5,
		BlackholeTimeout:     2 * time.Second,
	})
	startWorker(t, coord.Addr(), dist.WorkerOptions{
		Slots: 2, EngineWorkers: 2,
		Net: dist.NetOptions{Wrap: chaos.Wrap},
	})
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "blackholed worker", want, got)

	// The grid can finish before the reap when the healthy worker drew
	// every cell; the blackholed session still goes silent at its first
	// pong, so the reap follows regardless — wait for it.
	st := awaitStats(coord, func(st dist.StatsSnapshot) bool { return st.HeartbeatReaps >= 1 })
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if st.RemoteCells+st.LocalCells != wantCells {
		t.Errorf("conservation broken: %d remote + %d local != %d offered",
			st.RemoteCells, st.LocalCells, wantCells)
	}
	if st.HeartbeatReaps < 1 {
		t.Errorf("blackholed worker was never reaped (pings sent %d, pongs %d, lost %d)",
			st.PingsSent, st.PongsReceived, st.WorkersLost)
	}
	if st.PingsSent == 0 {
		t.Error("heartbeat enabled but no pings were sent")
	}
	if bs := chaos.Stats(); bs.Blackholes == 0 {
		t.Errorf("chaos plan never fired: %+v", bs)
	}
}

// TestWorkerAbandonsSilentCoordinator: the mirror fault — a
// coordinator that pinged once (arming the worker's liveness deadline)
// and then fell silent with the socket still open. The worker must
// abandon it within three announced intervals and return an error, the
// signal that sends expworker back through its redial backoff.
func TestWorkerAbandonsSilentCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A minimal coordinator: full handshake, one ping announcing a
		// 40ms interval, then silence with the connection held open.
		if _, err := dist.EncodeChallenge(conn, nil); err != nil {
			return
		}
		if _, err := dist.ReadHello(conn); err != nil {
			return
		}
		if _, err := dist.ReadMessage(conn); err != nil { // trace-have
			return
		}
		if err := dist.EncodePing(conn, 40*time.Millisecond); err != nil {
			return
		}
		_, _ = dist.ReadMessage(conn) // the pong
		<-hold
	}()

	errc := make(chan error, 1)
	go func() {
		errc <- dist.Serve(ln.Addr().String(), dist.WorkerOptions{Slots: 1, EngineWorkers: 1})
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "abandoning silent coordinator") {
			t.Fatalf("Serve returned %v, want an abandoning-silent-coordinator error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never abandoned the silent coordinator")
	}
}

// TestMidSessionGarbageDropsWorker: a peer that completes a clean
// handshake and then sends an undecodable frame must be dropped — its
// in-flight cells requeued, the event counted — without poisoning the
// grid.
func TestMidSessionGarbageDropsWorker(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{Pool: par.NewPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The evil worker: a clean handshake by hand, alone in the fleet
	// so the first assignment is certainly its own; it answers with
	// garbage once the healthy worker has joined to take the requeued
	// cell.
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := dist.ReadChallenge(conn); err != nil {
		t.Fatal(err)
	}
	// "TRDW" is the wire magic; spelled out here because this test IS
	// the wire conformance check.
	if err := dist.EncodeHello(conn, dist.Hello{Magic: "TRDW", Version: 3, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dist.EncodeTraceHave(conn, dist.TraceHave{}); err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	done := evalAsync(eng, ds)
	// Wait for an assignment so a cell is genuinely in flight on this
	// session.
	if msg, err := dist.ReadMessage(conn); err != nil || len(msg.Batch) == 0 {
		t.Fatalf("evil worker got no assignment: %+v, %v", msg, err)
	}
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Answer with a frame whose declared length exceeds the protocol
	// bound — unambiguously garbage.
	var junk [5]byte
	junk[0] = 0xEE
	binary.LittleEndian.PutUint32(junk[1:], 0xFFFFFFFF)
	if _, err := conn.Write(junk[:]); err != nil {
		t.Fatal(err)
	}
	got := <-done
	sameConfusions(t, "mid-session garbage", want, got)

	st := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if st.RemoteCells+st.LocalCells != wantCells {
		t.Errorf("conservation broken: %d remote + %d local != %d offered",
			st.RemoteCells, st.LocalCells, wantCells)
	}
	if st.CorruptFrames < 1 {
		t.Errorf("garbage frame not counted (corrupt frames %d, workers lost %d)",
			st.CorruptFrames, st.WorkersLost)
	}
	if st.Reassigned < 1 {
		t.Errorf("the garbage session's in-flight cell was not requeued (reassigned %d)", st.Reassigned)
	}
}

// TestWorkerDrainFinishesInFlight: closing WorkerOptions.Drain
// mid-grid makes the worker finish what it holds, flush the results,
// and return nil — and the coordinator completes the grid exactly.
func TestWorkerDrainFinishesInFlight(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{Pool: par.NewPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	drain := make(chan struct{})
	draining := startWorker(t, coord.Addr(), dist.WorkerOptions{
		Slots: 1, EngineWorkers: 2, Drain: drain,
	})
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	// Pull the drain partway into the grid. The exact cut point is
	// scheduler-dependent; the invariants must hold wherever it lands.
	time.AfterFunc(50*time.Millisecond, func() { close(drain) })

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "drained worker", want, got)

	if err := draining(); err != nil {
		t.Errorf("drained worker returned %v, want nil (a drain is a clean exit)", err)
	}
	st := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if st.RemoteCells+st.LocalCells != wantCells {
		t.Errorf("conservation broken: %d remote + %d local != %d offered",
			st.RemoteCells, st.LocalCells, wantCells)
	}
}

// TestJournalResumeReEvaluatesOnlyUnanswered: the resume contract at
// the library layer. A first run journals a subset of the grid; the
// resumed run over the full grid answers exactly that subset from the
// journal, dispatches only the remainder, and matches serial bit for
// bit. (The full kill-the-coordinator-process version of this test
// lives in CI's fleet-chaos job.)
func TestJournalResumeReEvaluatesOnlyUnanswered(t *testing.T) {
	ds := sharedDataset(t)
	schemes := experiments.StandardSchemes()
	want := serialGrid(t, ds)
	path := filepath.Join(t.TempDir(), "grid.journal")

	// Run 1: an interrupted grid, simulated as a prefix of the scheme
	// list — the journal ends up holding those cells and no others.
	part := schemes[:len(schemes)/2]
	j1, err := dist.OpenGridJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := dist.NewCoordinator("", dist.CoordinatorOptions{Pool: par.NewPool(2), Journal: j1})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, coord1.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord1.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	eng1 := experiments.NewEngine(4).WithBackend(coord1)
	gotPart := eng1.EvalSchemes(ds, part)
	sameConfusions(t, "journaled partial grid", want[:len(part)], gotPart)
	partCells := len(part) * len(trace.Apps)
	if a := j1.Appends(); a != partCells {
		t.Fatalf("partial run journaled %d cells, want %d", a, partCells)
	}
	coord1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: resume over the FULL grid with no workers at all — the
	// journaled half must come back as hits, the other half evaluates
	// locally, and the whole thing matches serial.
	j2, err := dist.OpenGridJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Restored() != partCells {
		t.Fatalf("resume restored %d records, want %d", j2.Restored(), partCells)
	}
	coord2, err := dist.NewCoordinator("", dist.CoordinatorOptions{Pool: par.NewPool(2), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	eng2 := experiments.NewEngine(4).WithBackend(coord2)
	got := eng2.EvalSchemes(ds, schemes)
	sameConfusions(t, "resumed full grid", want, got)

	st := coord2.Stats()
	wantCells := len(schemes) * len(trace.Apps)
	if st.JournalHits != partCells {
		t.Errorf("resumed run hit the journal %d times, want exactly the %d journaled cells",
			st.JournalHits, partCells)
	}
	if st.RemoteCells+st.LocalCells+st.JournalHits != wantCells {
		t.Errorf("conservation broken: %d remote + %d local + %d journal != %d offered",
			st.RemoteCells, st.LocalCells, st.JournalHits, wantCells)
	}
	if st.RemoteCells+st.LocalCells != wantCells-partCells {
		t.Errorf("resume re-evaluated %d cells, want only the %d unanswered",
			st.RemoteCells+st.LocalCells, wantCells-partCells)
	}
	// The resumed run completes the journal: a third open holds the
	// full grid.
	if j2.Appends() != wantCells-partCells {
		t.Errorf("resumed run appended %d records, want the %d it evaluated",
			j2.Appends(), wantCells-partCells)
	}
}
