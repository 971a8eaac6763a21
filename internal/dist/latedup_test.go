package dist

// Directed coverage for answer deduplication: a worker that is merely
// slow — not dead, not silent forever — answers its cell after the
// timeout reclaimed it. The coordinator must discard the stale answer,
// count it as a LateDuplicate (distinct from TimedOut: a swallowed
// cell times out without ever producing one), and still finish the
// grid byte-identical to serial. This needs a scripted peer speaking
// the protocol by hand, so it lives in the package and drives the
// frames directly.

import (
	"bufio"
	"net"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
)

func TestLateDuplicateAnswerDeduplicated(t *testing.T) {
	cfg := experiments.QuickConfig(5 * time.Second)
	cfg.TrainDuration /= 4
	cfg.TestDuration /= 4
	ds, err := experiments.BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())

	coord, err := NewCoordinator("", CoordinatorOptions{
		LocalWorkers: 2,
		CellTimeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The scripted worker: a real handshake, then hold the first cell
	// until the reaper takes it back, answer it late, and reject every
	// other request with an error (it cannot evaluate anything — the
	// errors drive those cells to local fallback, keeping the test
	// about dedup, not evaluation).
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ReadChallenge(conn); err != nil {
		t.Fatal(err)
	}
	if err := EncodeHello(conn, Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeTraceHave(conn, TraceHave{}); err != nil {
		t.Fatal(err)
	}
	go func() {
		br := bufio.NewReader(conn)
		first := true
		for {
			msg, err := ReadMessage(br)
			if err != nil {
				return
			}
			// The peer announced one slot, so dispatch arrives as batch
			// frames of exactly one cell.
			if len(msg.Batch) != 1 {
				continue
			}
			id := msg.Batch[0].ID
			if first {
				first = false
				for coord.Stats().TimedOut == 0 {
					time.Sleep(20 * time.Millisecond)
				}
				_ = EncodeResultBatch(conn, []CellResult{{ID: id, Err: "answered after reclaim"}})
				continue
			}
			_ = EncodeResultBatch(conn, []CellResult{{ID: id, Err: "scripted worker cannot evaluate"}})
		}
	}()
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	if !reflect.DeepEqual(want, got) {
		t.Error("grid with a late-answering worker diverged from serial")
	}

	// The grid can complete through local fallback before the late
	// answer's bytes are processed; give the read loop a moment.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Stats().LateDuplicates == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stats := coord.Stats()
	if stats.TimedOut == 0 {
		t.Errorf("held cell never timed out: %+v", stats)
	}
	if stats.LateDuplicates != 1 {
		t.Errorf("LateDuplicates = %d, want exactly 1 (the one held cell answered once after reclaim)", stats.LateDuplicates)
	}
	if stats.LateDuplicates > stats.TimedOut {
		t.Errorf("late duplicates (%d) exceed timeouts (%d)", stats.LateDuplicates, stats.TimedOut)
	}
	if stats.WorkersLost != 0 {
		t.Errorf("slow worker was counted dead: %+v", stats)
	}
}
