package dist_test

// End-to-end contracts of the worker result cache and the fault
// machinery around it: whatever join/leave/wedge/timeout schedule the
// fleet suffers, the grid's bytes equal serial, and the coordinator's
// counters obey their invariants — cache hits never exceed delivered
// remote cells, and deduplicated late answers never exceed timeouts.

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// TestWorkerRestartReusesResultCache is the directed acceptance pin:
// a worker that dies mid-grid and rejoins with its evaluator serves
// the cells it already answered from the result cache — exactly
// those, no more — and the re-run grid is byte-identical.
func TestWorkerRestartReusesResultCache(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{Pool: par.NewPool(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// One single-slot worker, durable state, dies reading its fourth
	// cell: the grid loses its fleet mid-run and completes locally.
	state := experiments.NewCellEvaluator(experiments.NewEngine(2), 0)
	dying := startWorker(t, coord.Addr(), dist.WorkerOptions{
		Slots: 1, State: state, Net: dist.NetOptions{Wrap: dist.DieAtBatch(4)},
	})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid with dying cached worker", want, got)
	if err := dying(); !errors.Is(err, dist.ErrInjectedDeath) {
		t.Fatalf("dying worker exited with %v, want ErrInjectedDeath", err)
	}
	if st := coord.Stats(); st.RemoteCells != 3 || st.RemoteCacheHits != 0 {
		t.Fatalf("first life delivered %d remote cells (%d cached), want 3 evaluated", st.RemoteCells, st.RemoteCacheHits)
	}

	// Restart: same state, no fault injection. The second grid runs
	// fully remote; the three cells answered in the first life are
	// cache hits, everything else is evaluated once.
	startWorker(t, coord.Addr(), dist.WorkerOptions{State: state})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got = eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid after restart", want, got)

	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	stats := coord.Stats()
	if stats.RemoteCacheHits != 3 {
		t.Errorf("restarted worker served %d cells from cache, want exactly the 3 it answered before", stats.RemoteCacheHits)
	}
	if stats.RemoteCells != 3+wantCells {
		t.Errorf("%d remote cells over both lives, want 3 + %d: the second grid did not run fully remote", stats.RemoteCells, wantCells)
	}
}

// TestRandomFaultScheduleByteIdentical is the property test: random
// fleets of healthy, dying, wedging and recovering workers — some
// rejoining with their state after the first pass — must always
// produce grids byte-identical to serial, with the cache and
// dedup counters inside their invariants.
func TestRandomFaultScheduleByteIdentical(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)

	rng := rand.New(rand.NewSource(0x5eed5))
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
			Pool:        par.NewPool(2),
			CellTimeout: 400 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Random fleet: every worker keeps a durable state; some die
		// at a random cell, some wedge (a random number of dropped
		// requests, sometimes recovering, sometimes not). A faulty
		// worker runs one slot, so its nth batch is its nth cell.
		n := 2 + rng.Intn(2)
		states := make([]*experiments.CellEvaluator, n)
		for i := 0; i < n; i++ {
			states[i] = experiments.NewCellEvaluator(experiments.NewEngine(2), 0)
			opt := dist.WorkerOptions{State: states[i]}
			switch rng.Intn(4) {
			case 0:
				opt.Slots = 1
				opt.Net.Wrap = dist.DieAtBatch(2 + rng.Intn(5))
			case 1:
				opt.Slots = 1
				opt.Net.Wrap = dist.WedgeAtBatch(2+rng.Intn(4), rng.Intn(3)) // 0 wedges forever
			}
			startWorker(t, coord.Addr(), opt)
		}
		if err := coord.WaitWorkers(n, 60*time.Second); err != nil {
			t.Fatal(err)
		}

		eng := experiments.NewEngine(4).WithBackend(coord)
		got := eng.EvalSchemes(ds, experiments.StandardSchemes())
		sameConfusions(t, "random schedule pass 1", want, got)

		// Rejoin one random state (its first life may or may not have
		// died — both are legal) and run the grid again.
		startWorker(t, coord.Addr(), dist.WorkerOptions{State: states[rng.Intn(n)]})
		got = eng.EvalSchemes(ds, experiments.StandardSchemes())
		sameConfusions(t, "random schedule pass 2", want, got)

		stats := coord.Stats()
		if total := stats.RemoteCells + stats.LocalCells; total != 2*wantCells {
			t.Errorf("round %d: %d remote + %d local != %d cells", round, stats.RemoteCells, stats.LocalCells, 2*wantCells)
		}
		if stats.LateDuplicates > stats.TimedOut {
			t.Errorf("round %d: %d late duplicates exceed %d timeouts — a cell can answer late at most once per reclaim",
				round, stats.LateDuplicates, stats.TimedOut)
		}
		if stats.RemoteCacheHits > stats.RemoteCells {
			t.Errorf("round %d: %d cache hits exceed %d delivered remote cells", round, stats.RemoteCacheHits, stats.RemoteCells)
		}
		coord.Close()
	}
}
