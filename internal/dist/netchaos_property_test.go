package dist_test

// Property schedules: randomized network-fault plans driven through
// the NetOptions.Wrap seam. The assertions are deliberately not about
// which faults fired when (accept order is scheduler-dependent even
// though each connection's schedule is deterministic) but about the
// invariants that must survive ANY schedule:
//
//   1. the grid is byte-identical to the serial engine, and
//   2. every offered cell is accounted for exactly once —
//      offered = RemoteCells + LocalCells + JournalHits —
//
// across injected latency, frames split over syscalls, mid-frame
// resets, flipped bytes under TLS, and half-open blackholes, then
// again through a journal resume of the same grid under the same
// chaos.
//
// Corruption runs under TLS on purpose: the record MAC turns a flipped
// byte into a dead session (requeue, identical bytes), which is the
// integrity guarantee the fault model documents. On a plaintext fleet
// only structurally-invalid corruption is detectable.

import (
	"path/filepath"
	"testing"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/dist/netchaos"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

func TestNetChaosPropertySchedules(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)

	schedules := []struct {
		name string
		seed uint64
		plan netchaos.Plan
		tls  bool
	}{
		{
			name: "latency and short writes",
			seed: 11,
			plan: netchaos.Plan{
				DelayProb: 0.3, Delay: 2 * time.Millisecond,
				ShortWriteProb: 0.5,
			},
		},
		{
			name: "mid-frame resets",
			seed: 22,
			plan: netchaos.Plan{ResetProb: 0.15},
		},
		{
			name: "corruption under TLS",
			seed: 33,
			plan: netchaos.Plan{CorruptProb: 0.15},
			tls:  true,
		},
		{
			name: "half-open blackholes",
			seed: 44,
			plan: netchaos.Plan{BlackholeProb: 0.05, BlackholeTimeout: 2 * time.Second},
		},
	}

	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "grid.journal")

			run := func(label string, resume bool) *dist.GridJournal {
				journal, err := dist.OpenGridJournal(path, resume)
				if err != nil {
					t.Fatal(err)
				}
				opt := dist.CoordinatorOptions{
					Pool:        par.NewPool(2),
					CellTimeout: 400 * time.Millisecond,
					Heartbeat:   150 * time.Millisecond,
					Journal:     journal,
					Net:         dist.NetOptions{WriteTimeout: time.Second},
				}
				workerNet := dist.NetOptions{WriteTimeout: time.Second}
				if sc.tls {
					server, client, err := dist.SelfSignedTLS()
					if err != nil {
						t.Fatal(err)
					}
					opt.Net.TLS = server
					workerNet.TLS = client
				}
				coord, err := dist.NewCoordinator("", opt)
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()

				// One healthy worker is awaited so the grid has a fleet;
				// the chaotic ones join if their handshakes survive their
				// own fault schedules — any mix must satisfy the
				// invariants. Chaos wraps below TLS, like a faulty wire.
				chaos := netchaos.New(sc.seed, sc.plan)
				startWorker(t, coord.Addr(), dist.WorkerOptions{
					Slots: 2, EngineWorkers: 2, Net: workerNet,
				})
				for i := 0; i < 2; i++ {
					chaoticNet := workerNet
					chaoticNet.Wrap = chaos.Wrap
					startWorker(t, coord.Addr(), dist.WorkerOptions{
						Slots: 2, EngineWorkers: 2, Net: chaoticNet,
					})
				}
				if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
					t.Fatal(err)
				}

				eng := experiments.NewEngine(4).WithBackend(coord)
				got := eng.EvalSchemes(ds, experiments.StandardSchemes())
				sameConfusions(t, label, want, got)

				st := coord.Stats()
				if st.RemoteCells+st.LocalCells+st.JournalHits != wantCells {
					t.Errorf("%s: conservation broken: %d remote + %d local + %d journal != %d offered",
						label, st.RemoteCells, st.LocalCells, st.JournalHits, wantCells)
				}
				t.Logf("%s: remote=%d local=%d journal=%d reassigned=%d reaps=%d corrupt=%d chaos=%+v",
					label, st.RemoteCells, st.LocalCells, st.JournalHits,
					st.Reassigned, st.HeartbeatReaps, st.CorruptFrames, chaos.Stats())
				return journal
			}

			// Pass 1: fresh journal, every cell evaluated under chaos.
			j1 := run("chaotic grid", false)
			if j1.Appends() != wantCells {
				t.Errorf("chaotic run journaled %d cells, want all %d", j1.Appends(), wantCells)
			}
			if err := j1.Close(); err != nil {
				t.Fatal(err)
			}
			// Pass 2: resume the same grid under the same plan — every
			// cell must come back as a journal hit, bit for bit.
			j2 := run("chaotic resume", true)
			if j2.Hits() != wantCells {
				t.Errorf("chaotic resume hit the journal %d times, want all %d", j2.Hits(), wantCells)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
