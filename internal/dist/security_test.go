package dist_test

// Auth and TLS failure paths. The contract for every hostile or
// misconfigured peer is the same: the coordinator rejects it cleanly
// at the handshake — no hang, no allocation abuse, no session — and
// the grid still completes byte-identical to serial, falling back to
// local evaluation when nobody qualifies for the fleet. All of these
// run under the CI -race steps.

import (
	"net"
	"testing"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// shortHandshake keeps the rejection paths fast: the stray peers in
// these tests say nothing (or the wrong protocol), and the test
// should not wait 30 s for the door to close.
const shortHandshake = 2 * time.Second

// TestWrongKeyRejectedFallsBackLocal: a worker holding the wrong
// shared key must be turned away, and a grid offered to the now-empty
// fleet must complete locally, byte-identical to serial.
func TestWrongKeyRejectedFallsBackLocal(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		Pool: par.NewPool(2),
		Net:  dist.NetOptions{AuthKey: "right-key", HandshakeTimeout: shortHandshake},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	join := startWorker(t, coord.Addr(), dist.WorkerOptions{Net: dist.NetOptions{AuthKey: "wrong-key"}})
	if err := join(); err != nil {
		t.Errorf("rejected worker returned %v; rejection is a clean end of life", err)
	}
	if n := len(coord.Stats().Workers); n != 0 {
		t.Fatalf("%d workers admitted with the wrong key", n)
	}

	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "wrong-key fleet", want, got)
	stats := coord.Stats()
	if stats.HandshakesRejected == 0 {
		t.Error("rejection was not counted")
	}
	if stats.RemoteCells != 0 || stats.LocalCells == 0 {
		t.Errorf("grid did not fall back to local evaluation: %+v", stats)
	}
	if stats.WorkersJoined != 0 {
		t.Errorf("rejected worker counted as joined: %+v", stats)
	}
}

// TestAuthAdmitsOnlyKeyHolders: with a keyed coordinator, the right
// key joins the fleet and carries the grid; a keyless worker does not.
func TestAuthAdmitsOnlyKeyHolders(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		Pool: par.NewPool(2),
		Net:  dist.NetOptions{AuthKey: "fleet-secret", HandshakeTimeout: shortHandshake},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	keyless := startWorker(t, coord.Addr(), dist.WorkerOptions{})
	if err := keyless(); err != nil {
		t.Errorf("keyless worker returned %v", err)
	}
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, Net: dist.NetOptions{AuthKey: "fleet-secret"}})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "keyed fleet", want, got)
	stats := coord.Stats()
	if stats.HandshakesRejected == 0 {
		t.Error("keyless worker was not rejected")
	}
	if stats.RemoteCells == 0 {
		t.Errorf("keyed worker carried no cells: %+v", stats)
	}
}

// TestProtocolVersionSkewRejectedAtDoor: the coordinator admits only
// ProtoVersion. A hello from the retired version 2 and one from a
// future version 4 are each turned away at the door — counted, never
// registered as workers — and no cell is dispatched to either, so the
// grid offered afterwards completes locally, byte-identical to serial.
func TestProtocolVersionSkewRejectedAtDoor(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{Pool: par.NewPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for i, version := range []int{2, 4} {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := dist.ReadChallenge(conn); err != nil {
			t.Fatal(err)
		}
		// "TRDW" is the wire magic: everything but the version is a
		// well-formed hello.
		if err := dist.EncodeHello(conn, dist.Hello{Magic: "TRDW", Version: version, Slots: 4}); err != nil {
			t.Fatal(err)
		}
		// The door may already be shut; a failed write is the
		// rejection surfacing early.
		_ = dist.EncodeTraceHave(conn, dist.TraceHave{})
		if msg, err := dist.ReadMessage(conn); err == nil {
			t.Fatalf("version %d: coordinator sent %+v instead of closing the connection", version, msg)
		}
		if got := coord.Stats().HandshakesRejected; got != i+1 {
			t.Fatalf("version %d: HandshakesRejected = %d, want %d", version, got, i+1)
		}
	}

	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "version-skewed fleet", want, got)
	st := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if st.WorkersJoined != 0 || len(st.Workers) != 0 {
		t.Errorf("version-skewed peers were admitted: %+v", st)
	}
	if st.RemoteCells != 0 || st.BatchesSent != 0 || st.LocalCells != wantCells {
		t.Errorf("cells reached version-skewed peers: %+v", st)
	}
}

// TestGarbageAndSilentPeersRejected: strays sending garbage (or
// nothing at all — the expired-hello case) must be rejected within
// the handshake timeout, and the coordinator must keep admitting real
// workers afterwards.
func TestGarbageAndSilentPeersRejected(t *testing.T) {
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		Pool: par.NewPool(2),
		Net:  dist.NetOptions{HandshakeTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Garbage hello: an HTTP client.
	http, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer http.Close()
	if _, err := http.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// Silent peer: connects, never speaks; only the handshake
	// deadline can clear it.
	silent, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().HandshakesRejected < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("strays not rejected: %+v", coord.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(coord.Stats().Workers); n != 0 {
		t.Fatalf("%d strays admitted", n)
	}

	// The door still works for real workers.
	startWorker(t, coord.Addr(), dist.WorkerOptions{})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatalf("real worker not admitted after strays: %v", err)
	}
}

// TestPlaintextClientAgainstTLSListener: a peer speaking plaintext
// frames into a TLS port must be rejected cleanly (its bytes are not
// a ClientHello), while TLS workers join and carry the grid
// byte-identical to serial.
func TestPlaintextClientAgainstTLSListener(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	serverTLS, clientTLS, err := dist.SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		Pool: par.NewPool(2),
		Net: dist.NetOptions{
			TLS:              serverTLS,
			AuthKey:          "fleet-secret",
			HandshakeTimeout: 500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Plaintext worker: its hello bytes cannot complete a TLS
	// handshake. Serve must return promptly — with its own timeout
	// error, or nil when the coordinator's deadline closes the door
	// first (indistinguishable from any other rejection) — and must
	// never be admitted. The blocking join() call is itself the
	// no-hang assertion.
	plain := startWorker(t, coord.Addr(), dist.WorkerOptions{
		Net: dist.NetOptions{AuthKey: "fleet-secret", HandshakeTimeout: 500 * time.Millisecond},
	})
	_ = plain()
	if n := len(coord.Stats().Workers); n != 0 {
		t.Fatalf("%d plaintext workers admitted by a TLS listener", n)
	}

	startWorker(t, coord.Addr(), dist.WorkerOptions{
		Slots: 2,
		Net:   dist.NetOptions{TLS: clientTLS, AuthKey: "fleet-secret"},
	})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "TLS fleet with plaintext stray", want, got)
	stats := coord.Stats()
	if stats.HandshakesRejected == 0 {
		t.Error("plaintext client was not rejected")
	}
	if stats.RemoteCells == 0 {
		t.Errorf("TLS worker carried no cells: %+v", stats)
	}
}

// TestTLSWorkerAgainstPlaintextListener: the inverse mismatch must
// also fail fast on the worker side.
func TestTLSWorkerAgainstPlaintextListener(t *testing.T) {
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		Pool: par.NewPool(2),
		Net:  dist.NetOptions{HandshakeTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, clientTLS, err := dist.SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	// The worker's ClientHello is garbage to the frame decoder, so
	// the coordinator rejects; whether Serve surfaces a TLS error or
	// a clean door-closed nil depends on whose deadline fires first.
	// The requirements are returning promptly and never joining.
	join := startWorker(t, coord.Addr(), dist.WorkerOptions{
		Net: dist.NetOptions{TLS: clientTLS, HandshakeTimeout: 500 * time.Millisecond},
	})
	_ = join()
	if n := len(coord.Stats().Workers); n != 0 {
		t.Fatalf("%d mismatched workers admitted", n)
	}
	// The worker side usually returns before the coordinator's admit
	// goroutine has finished turning the connection away.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().HandshakesRejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mismatched worker was not rejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
