package dist_test

// Property coverage for the scheduler: whatever the fleet does —
// randomized join/leave/wedge schedules — the grid must stay
// byte-identical to the serial engine, and the placement counters
// must stay consistent with each other.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// TestFleetChurnPropertyByteIdentical drives randomized fleets —
// workers that die after a few cells, wedge silently, wedge then
// recover, join late mid-grid — from fixed seeds and pins the one
// property that matters: the grid completes byte-identical to serial,
// every time, with the stats accounting for every cell exactly once.
func TestFleetChurnPropertyByteIdentical(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)

	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
				Pool:        par.NewPool(2),
				CellTimeout: 400 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			// One healthy worker guarantees forward progress without
			// local fallback doing all the work; the rest misbehave per
			// the seed.
			startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
			n := 1 + rng.Intn(2) // 1-2 chaotic workers alongside
			for i := 0; i < n; i++ {
				opt := dist.WorkerOptions{EngineWorkers: 2}
				switch rng.Intn(3) {
				case 0: // dies mid-assignment after a few cells
					opt.MaxCells = 1 + rng.Intn(3)
				case 1: // wedges forever: cell timeout must reclaim
					opt.WedgeCells = 1 + rng.Intn(3)
				case 2: // wedges then recovers
					opt.WedgeCells = 1 + rng.Intn(3)
					opt.WedgeFor = 1 + rng.Intn(2)
				}
				startWorker(t, coord.Addr(), opt)
			}
			if err := coord.WaitWorkers(1+n, 60*time.Second); err != nil {
				t.Fatal(err)
			}
			// A late joiner lands mid-grid (plain goroutine, not
			// startWorker: the timer may fire after the test ends).
			joinDelay := time.Duration(100+rng.Intn(400)) * time.Millisecond
			addr := coord.Addr()
			time.AfterFunc(joinDelay, func() {
				_ = dist.Serve(addr, dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
			})

			eng := experiments.NewEngine(4).WithBackend(coord)
			got := eng.EvalSchemes(ds, experiments.StandardSchemes())
			sameConfusions(t, fmt.Sprintf("churn seed %d", seed), want, got)

			st := coord.Stats()
			if st.RemoteCells+st.LocalCells != wantCells {
				t.Errorf("%d remote + %d local != %d cells: some cell answered twice or not at all",
					st.RemoteCells, st.LocalCells, wantCells)
			}
			if st.LateDuplicates > st.TimedOut {
				t.Errorf("late duplicates (%d) exceed timeouts (%d)", st.LateDuplicates, st.TimedOut)
			}
			if st.BatchedCells > 0 && st.BatchesSent == 0 {
				t.Errorf("batched %d cells across zero batches", st.BatchedCells)
			}
		})
	}
}
