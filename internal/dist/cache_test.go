package dist_test

// End-to-end contracts of the worker result cache and the fault
// machinery around it: whatever join/leave/wedge/timeout schedule the
// fleet suffers, the grid's bytes equal serial, and the cache
// counters obey their invariants — a hit can only follow an earlier
// evaluation, and deduplicated late answers never exceed timeouts.

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
// a worker that dies mid-grid and rejoins with its WorkerState serves
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

	// One worker, durable state, abort after 3 answers: the grid
	// loses its fleet mid-run and completes locally.
	state := dist.NewWorkerState(2, 0)
	dying := startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, State: state, MaxCells: 3})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid with dying cached worker", want, got)
	if err := dying(); !errors.Is(err, dist.ErrMaxCells) {
		t.Fatalf("dying worker exited with %v, want ErrMaxCells", err)
	}
	cs := state.CacheStats()
	if cs.Hits != 0 || cs.Misses != 3 {
		t.Fatalf("first life cache stats %+v, want 0 hits / 3 misses", cs)
	}

	// Restart: same state, no fault injection. The second grid runs
	// fully remote; the three cells answered in the first life are
	// cache hits, everything else is evaluated once.
	startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, State: state})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got = eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid after restart", want, got)

	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	cs = state.CacheStats()
	if cs.Hits != 3 {
		t.Errorf("restarted worker served %d cells from cache, want exactly the 3 it answered before", cs.Hits)
	}
	if cs.Misses != wantCells {
		t.Errorf("restarted worker evaluated %d cells total, want %d", cs.Misses, wantCells)
	}
	stats := coord.Stats()
	if stats.RemoteCacheHits != 3 {
		t.Errorf("coordinator counted %d remote cache hits, want 3", stats.RemoteCacheHits)
	}
	if stats.RemoteCacheHits > stats.RemoteCells {
		t.Errorf("cache hits (%d) exceed remote cells (%d)", stats.RemoteCacheHits, stats.RemoteCells)
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
		// after a random cell budget, some wedge (a random number of
		// swallowed requests, sometimes recovering, sometimes not).
		n := 2 + rng.Intn(2)
		states := make([]*dist.WorkerState, n)
		for i := 0; i < n; i++ {
			states[i] = dist.NewWorkerState(2, 0)
			opt := dist.WorkerOptions{EngineWorkers: 2, State: states[i]}
			switch rng.Intn(4) {
			case 0:
				opt.MaxCells = 1 + rng.Intn(5)
			case 1:
				opt.WedgeCells = 1 + rng.Intn(4)
				opt.WedgeFor = rng.Intn(3) // 0 wedges forever
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
		startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, State: states[rng.Intn(n)]})
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
		totalHits := 0
		for i, st := range states {
			cs := st.CacheStats()
			totalHits += cs.Hits
			if cs.Hits > 0 && cs.Misses == 0 {
				t.Errorf("round %d: worker %d hit its cache without ever evaluating a cell", round, i)
			}
			if cs.Misses > 2*wantCells {
				t.Errorf("round %d: worker %d evaluated %d cells, more than the whole run", round, i, cs.Misses)
			}
		}
		// Cache hits can never exceed cells evaluated: every hit
		// replays an evaluation some worker performed and stored.
		totalMisses := 0
		for _, st := range states {
			totalMisses += st.CacheStats().Misses
		}
		if totalHits > totalMisses {
			t.Errorf("round %d: %d cache hits exceed %d evaluations", round, totalHits, totalMisses)
		}
		coord.Close()
	}
}
