package dist_test

// End-to-end contracts of the distributed backend, all variants of
// one statement: a grid evaluated by any fleet — in-process workers,
// real worker processes, workers that die mid-cell, no workers at
// all — produces results byte-identical to the serial engine.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// TestMain doubles as the worker executable: re-running the test
// binary with DIST_TEST_WORKER_ADDR set turns it into a real worker
// process, which is how the *WorkerProcesses tests get genuine
// multi-process coverage without shelling out to the go tool.
// DIST_TEST_KEY and DIST_TEST_TLS=insecure configure the subprocess
// for the authenticated/encrypted fleet tests: the worker cannot know
// the parent's ephemeral self-signed certificate, so it encrypts
// without server verification and proves itself through the HMAC
// challenge — the same posture cmd/expworker's -tls-insecure takes.
func TestMain(m *testing.M) {
	if addr := os.Getenv("DIST_TEST_WORKER_ADDR"); addr != "" {
		maxCells, _ := strconv.Atoi(os.Getenv("DIST_TEST_MAX_CELLS"))
		opt := dist.WorkerOptions{
			EngineWorkers: 2,
			MaxCells:      maxCells,
			Net:           dist.NetOptions{AuthKey: os.Getenv("DIST_TEST_KEY")},
		}
		if os.Getenv("DIST_TEST_TLS") == "insecure" {
			tlsCfg, err := dist.ClientTLS("", true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "worker tls:", err)
				os.Exit(1)
			}
			opt.Net.TLS = tlsCfg
		}
		err := dist.Serve(addr, opt)
		if err != nil && !errors.Is(err, dist.ErrMaxCells) {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// distCfg is the shared grid configuration: small enough that every
// worker process can afford its own dataset build, big enough that
// the classifiers see real windows.
func distCfg() experiments.Config {
	cfg := experiments.QuickConfig(5 * time.Second)
	cfg.TrainDuration /= 2
	cfg.TestDuration /= 2
	return cfg
}

// serialGrid computes the reference: the standard Tables II grid on
// the serial engine.
func serialGrid(t *testing.T, ds *experiments.Dataset) []*ml.Confusion {
	t.Helper()
	return experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())
}

var (
	refOnce sync.Once
	refDS   *experiments.Dataset
	refErr  error
)

// sharedDataset builds the test dataset once for every test in the
// package (it is read-only after construction, as the engine's race
// tests pin).
func sharedDataset(t *testing.T) *experiments.Dataset {
	t.Helper()
	refOnce.Do(func() { refDS, refErr = experiments.BuildDataset(distCfg()) })
	if refErr != nil {
		t.Fatal(refErr)
	}
	return refDS
}

func sameConfusions(t *testing.T, label string, want, got []*ml.Confusion) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: distributed grid diverged from serial", label)
		for i := range want {
			if i < len(got) && !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s: scheme %d:\nserial:\n%v\ndist:\n%v", label, i, want[i], got[i])
			}
		}
	}
}

// startWorker runs an in-process worker (real TCP, same process) and
// returns a join func.
func startWorker(t *testing.T, addr string, opt dist.WorkerOptions) func() error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- dist.Serve(addr, opt) }()
	return func() error { return <-done }
}

// awaitStats polls the coordinator until cond holds or a minute
// passes, and returns the last snapshot: the fault tests wait on the
// event they need, never on a sleep of a guessed length.
func awaitStats(coord *dist.Coordinator, cond func(dist.StatsSnapshot) bool) dist.StatsSnapshot {
	deadline := time.Now().Add(time.Minute)
	for {
		st := coord.Stats()
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// soleWorkerCells reports whether exactly one worker is connected and
// has been dispatched n cells.
func soleWorkerCells(n int) func(dist.StatsSnapshot) bool {
	return func(st dist.StatsSnapshot) bool {
		return len(st.Workers) == 1 && st.Workers[0].Cells == n
	}
}

// writeGate makes a worker's death a function of the schedule, not of
// which dispatcher wins a race: installed as the coordinator's
// NetOptions.Wrap, it holds the coordinator's writes to the first
// connection it wraps — the faulty worker, which joins alone — from
// write number from (1-based) on, until open is called. On a
// plaintext connection every frame is a header write plus a payload
// write, so writes 1–2 are the challenge and the k-th single-cell
// batch is writes 2k+1 and 2k+2: from = 2(MaxCells+1)+1 holds back
// exactly the request the worker dies on.
type writeGate struct {
	from    int
	release chan struct{}
	once    sync.Once
	wrapped atomic.Bool
}

func newWriteGate(maxCells int) *writeGate {
	return &writeGate{from: 2*(maxCells+1) + 1, release: make(chan struct{})}
}

// open lets every held and later write through; safe to call twice,
// so tests defer it ahead of the coordinator's Close (whose goodbye
// frame would otherwise queue behind a held write).
func (g *writeGate) open() { g.once.Do(func() { close(g.release) }) }

func (g *writeGate) wrap(conn net.Conn) net.Conn {
	if g.wrapped.Swap(true) {
		return conn
	}
	return &gatedConn{Conn: conn, gate: g}
}

// gatedConn counts writes without a lock: the coordinator serializes
// a session's writes (the challenge precedes the session, and every
// later frame goes through the session's write mutex).
type gatedConn struct {
	net.Conn
	gate   *writeGate
	writes int
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes >= c.gate.from {
		<-c.gate.release
	}
	return c.Conn.Write(p)
}

// evalAsync starts the standard grid on eng and returns its result
// channel, so a test can shape the fleet while the grid is in flight.
func evalAsync(eng *experiments.Engine, ds *experiments.Dataset) <-chan []*ml.Confusion {
	done := make(chan []*ml.Confusion, 1)
	go func() { done <- eng.EvalSchemes(ds, experiments.StandardSchemes()) }()
	return done
}

// TestGridByteIdenticalInProcess: coordinator + two wire-connected
// workers reproduce the serial grid exactly, with every cell carried
// by the fleet.
func TestGridByteIdenticalInProcess(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	}
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(4).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "standard grid", want, got)

	stats := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells != wantCells {
		t.Errorf("fleet evaluated %d cells, want all %d (local %d, reassigned %d)",
			stats.RemoteCells, wantCells, stats.LocalCells, stats.Reassigned)
	}
}

// TestWorkerDeathReassignment: a worker that dies mid-assignment
// strands its cell; the coordinator must reassign it to the healthy
// worker and the grid must still match serial bit for bit.
func TestWorkerDeathReassignment(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	gate := newWriteGate(1)
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		Net:          dist.NetOptions{Wrap: gate.wrap},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	defer gate.open()
	// Short-lived worker: alone in the fleet, it answers one cell and
	// is dispatched a second, which the gate holds back until the
	// healthy worker has joined; reading it, the worker aborts.
	shortLived := startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, MaxCells: 1})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	eng := experiments.NewEngine(4).WithBackend(coord)
	done := evalAsync(eng, ds)
	if st := awaitStats(coord, soleWorkerCells(2)); !soleWorkerCells(2)(st) {
		t.Fatalf("short-lived worker never got its second cell: %+v", st)
	}
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	gate.open()
	got := <-done
	sameConfusions(t, "grid with dying worker", want, got)

	if err := shortLived(); !errors.Is(err, dist.ErrMaxCells) {
		t.Errorf("short-lived worker exited with %v, want ErrMaxCells", err)
	}
	stats := coord.Stats()
	if stats.WorkersLost == 0 {
		t.Error("coordinator never noticed the worker death")
	}
	if stats.Reassigned == 0 {
		t.Error("stranded cell was not reassigned")
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestCellTimeoutReassignment: a wedged-but-alive worker — TCP up,
// requests silently swallowed — holds its cell until the per-cell
// deadline, after which the coordinator must take the cell back, hand
// it to the healthy worker, and still reproduce the serial grid bit
// for bit. This is the failure mode worker-death detection cannot
// see: the connection never breaks.
func TestCellTimeoutReassignment(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		CellTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// Wedged worker: alone in the fleet, it answers one cell and is
	// dispatched a second, which it swallows while staying connected.
	// Only then does the healthy worker join to serve the rest, so a
	// timeout happens whatever the scheduler does. (On a slow host the
	// first cell's dataset build can outlast the deadline; that cell
	// then times out itself, which is the same fault.)
	startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, WedgeCells: 1})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	eng := experiments.NewEngine(4).WithBackend(coord)
	done := evalAsync(eng, ds)
	wedged := func(st dist.StatsSnapshot) bool { return soleWorkerCells(2)(st) || st.TimedOut > 0 }
	if st := awaitStats(coord, wedged); !wedged(st) {
		t.Fatalf("wedged worker never held a cell: %+v", st)
	}
	startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	got := <-done
	sameConfusions(t, "grid with wedged worker", want, got)

	stats := coord.Stats()
	if stats.TimedOut == 0 {
		t.Errorf("no cell timed out despite the wedged worker: %+v", stats)
	}
	if stats.WorkersLost != 0 {
		t.Errorf("the wedged worker was counted as dead (%+v); its connection never broke", stats)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestCellTimeoutLastWorkerFallsBackLocal: when the wedged worker is
// the entire fleet, a timed-out cell cannot be re-queued — it must
// fail back to the grid, which evaluates it locally, and the grid
// must still complete byte-identical to serial.
func TestCellTimeoutLastWorkerFallsBackLocal(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		CellTimeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2, WedgeCells: 1})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	eng := experiments.NewEngine(2).WithBackend(coord)
	got := eng.EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "grid with only a wedged worker", want, got)

	stats := coord.Stats()
	if stats.TimedOut == 0 {
		t.Errorf("no cell timed out despite the wedged worker: %+v", stats)
	}
	if stats.LocalCells == 0 {
		t.Errorf("timed-out cells were not evaluated locally: %+v", stats)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestNoWorkersFallsBackLocal: a coordinator with an empty fleet is
// just a slower NewLocalBackend — every cell must run in-process and
// still match serial.
func TestNoWorkersFallsBackLocal(t *testing.T) {
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "empty fleet", want, got)
	stats := coord.Stats()
	if stats.RemoteCells != 0 || stats.LocalCells == 0 {
		t.Errorf("empty fleet placed cells remotely: %+v", stats)
	}
}

// TestUnregisteredSchemeRunsLocal: ad-hoc closure schemes are not
// wire-representable and must be evaluated in-process even when
// workers are available — shipping them by name would evaluate the
// wrong partition.
func TestUnregisteredSchemeRunsLocal(t *testing.T) {
	ds := sharedDataset(t)
	custom := experiments.SchedulerScheme("custom-rr7", func(*stats.RNG) reshape.Scheduler {
		return reshape.NewRoundRobin(7)
	})
	want := experiments.NewEngine(1).EvalSchemes(ds, []experiments.Scheme{custom})

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	startWorker(t, coord.Addr(), dist.WorkerOptions{EngineWorkers: 2})
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := experiments.NewEngine(2).WithBackend(coord).EvalSchemes(ds, []experiments.Scheme{custom})
	sameConfusions(t, "unregistered scheme", want, got)
	if stats := coord.Stats(); stats.RemoteCells != 0 || stats.LocalCells != len(trace.Apps) {
		t.Errorf("unregistered scheme was shipped to workers: %+v", stats)
	}
}

// spawnWorkerProcess re-executes the test binary as a real worker
// process (see TestMain). extraEnv appends DIST_TEST_* settings for
// the TLS/auth variants.
func spawnWorkerProcess(t *testing.T, addr string, maxCells int, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"DIST_TEST_WORKER_ADDR="+addr,
		"DIST_TEST_MAX_CELLS="+strconv.Itoa(maxCells))
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	return cmd
}

// TestGridByteIdenticalWorkerProcesses is the acceptance pin: the
// grid through coordinator + two real worker processes — one of which
// is killed by its cell budget mid-run and must be reassigned —
// equals the serial grid exactly.
func TestGridByteIdenticalWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	ds := sharedDataset(t)
	want := serialGrid(t, ds)

	gate := newWriteGate(3)
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		Net:          dist.NetOptions{Wrap: gate.wrap},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	defer gate.open()
	// One worker dies after three cells: alone in the fleet, it is
	// dispatched a fourth, which the gate holds back until the healthy
	// worker has joined — so the fourth assignment is stranded
	// mid-flight with a peer to take it. The healthy worker carries
	// the rest.
	spawnWorkerProcess(t, coord.Addr(), 3)
	if err := coord.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	eng := experiments.NewEngine(4).WithBackend(coord)
	done := evalAsync(eng, ds)
	if st := awaitStats(coord, soleWorkerCells(4)); !soleWorkerCells(4)(st) {
		t.Fatalf("faulty worker never got its fourth cell: %+v", st)
	}
	spawnWorkerProcess(t, coord.Addr(), 0)
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	gate.open()
	got := <-done
	sameConfusions(t, "worker processes", want, got)

	stats := coord.Stats()
	if stats.RemoteCells == 0 {
		t.Error("no cell was evaluated by the worker processes")
	}
	if stats.WorkersLost == 0 || stats.Reassigned == 0 {
		t.Errorf("expected a mid-run worker death with reassignment, got %+v", stats)
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells+stats.LocalCells != wantCells {
		t.Errorf("%d remote + %d local != %d cells", stats.RemoteCells, stats.LocalCells, wantCells)
	}
}

// TestRunAllDistributedByteIdentical runs the complete experiment
// registry — every table, figure and ablation, including derived
// W = 60 s datasets and the morph/split schemes — through a worker
// fleet and compares the streamed output byte for byte with the
// serial engine.
func TestRunAllDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run is slow")
	}
	var serialOut bytes.Buffer
	serialRes, err := experiments.RunAll(&serialOut, true)
	if err != nil {
		t.Fatal(err)
	}

	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		startWorker(t, coord.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2})
	}
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	var distOut bytes.Buffer
	distRes, err := experiments.NewEngine(4).WithBackend(coord).RunAll(&distOut, true)
	if err != nil {
		t.Fatal(err)
	}
	if serialOut.String() != distOut.String() {
		t.Error("distributed RunAll stream differs from serial")
	}
	if len(serialRes) != len(distRes) {
		t.Fatalf("result counts differ: %d vs %d", len(serialRes), len(distRes))
	}
	for name, sr := range serialRes {
		dr, ok := distRes[name]
		if !ok {
			t.Errorf("distributed run missing %q", name)
			continue
		}
		if sr.Text != dr.Text || !reflect.DeepEqual(sr.Metrics, dr.Metrics) {
			t.Errorf("%s: distributed result differs from serial", name)
		}
	}
	if stats := coord.Stats(); stats.RemoteCells == 0 {
		t.Errorf("full registry run placed no cells on the fleet: %+v", stats)
	}
}

// capturedSet fabricates "captured" traffic: traces generated with
// seeds the Config does not know, so they are non-regenerable from
// the cell request alone — workers can only obtain them through the
// preload frames. Video is captured on both roles, uploading on the
// test side only; the other applications stay synthetic, so every
// grid over this set mixes captured and synthetic cells.
func capturedSet(cfg experiments.Config) *experiments.TraceSet {
	return &experiments.TraceSet{
		Train: map[trace.App]*trace.Trace{
			trace.Video: appgen.Generate(trace.Video, cfg.TrainDuration, 0xabcde),
		},
		Test: map[trace.App]*trace.Trace{
			trace.Video:     appgen.Generate(trace.Video, cfg.TestDuration, 0x12345),
			trace.Uploading: appgen.Generate(trace.Uploading, cfg.TestDuration, 0x54321),
		},
	}
}

// TestCapturedGridPreloadAndResume: a grid over captured traces runs
// on a worker that starts with an empty store — the coordinator must
// push exactly the named traces, once — and a worker rejoining a new
// coordinator with its state announces its holdings, so nothing is
// re-shipped and the whole second grid is served from the result
// cache. Both passes must be byte-identical to the serial evaluation
// of the same captured dataset.
func TestCapturedGridPreloadAndResume(t *testing.T) {
	cfg := distCfg()
	set := capturedSet(cfg)
	ds, err := experiments.NewEngine(1).BuildDatasetFrom(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())
	if reflect.DeepEqual(want, serialGrid(t, sharedDataset(t))) {
		t.Fatal("captured grid equals the synthetic grid — the captured traces are not being used")
	}
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	wantTraces := len(set.Ref().Digests())

	state := dist.NewWorkerState(2, 0)
	coord1, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, coord1.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2, State: state})
	if err := coord1.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got := experiments.NewEngine(4).WithBackend(coord1).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "captured grid, cold store", want, got)
	stats := coord1.Stats()
	if stats.RemoteCells != wantCells {
		t.Errorf("fleet evaluated %d captured cells, want all %d (local %d)", stats.RemoteCells, wantCells, stats.LocalCells)
	}
	if stats.TracesSent != wantTraces {
		t.Errorf("coordinator pushed %d traces, want each of the %d digests exactly once", stats.TracesSent, wantTraces)
	}
	coord1.Close()

	// Same worker state, fresh coordinator: the trace-have
	// announcement makes the preload resumable, and the result cache
	// answers every repeated cell.
	coord2, err := dist.NewCoordinator("", dist.CoordinatorOptions{LocalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	startWorker(t, coord2.Addr(), dist.WorkerOptions{Slots: 2, EngineWorkers: 2, State: state})
	if err := coord2.WaitWorkers(1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	got = experiments.NewEngine(4).WithBackend(coord2).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "captured grid, resumed store", want, got)
	stats = coord2.Stats()
	if stats.TracesSent != 0 {
		t.Errorf("rejoining worker was re-sent %d traces it announced holding", stats.TracesSent)
	}
	if stats.RemoteCacheHits != wantCells {
		t.Errorf("second grid hit the result cache %d times, want all %d cells", stats.RemoteCacheHits, wantCells)
	}
	cs := state.CacheStats()
	if cs.Hits != wantCells || cs.Misses != wantCells {
		t.Errorf("worker cache stats %+v, want %d hits over %d evaluations", cs, wantCells, wantCells)
	}
}

// TestCapturedGridTLSAuthWorkerProcesses is the multi-host acceptance
// pin: a grid containing captured-trace cells, distributed over two
// real worker processes with TLS on the coordinator port and HMAC
// auth in the handshake, produces exactly the bytes of the serial
// in-process evaluation — traces preloaded over the wire, every cell
// carried by the fleet, nobody rejected.
func TestCapturedGridTLSAuthWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	cfg := distCfg()
	set := capturedSet(cfg)
	ds, err := experiments.NewEngine(1).BuildDatasetFrom(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.NewEngine(1).EvalSchemes(ds, experiments.StandardSchemes())

	serverTLS, _, err := dist.SelfSignedTLS()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.NewCoordinator("", dist.CoordinatorOptions{
		LocalWorkers: 2,
		Net:          dist.NetOptions{TLS: serverTLS, AuthKey: "fleet-secret"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for i := 0; i < 2; i++ {
		spawnWorkerProcess(t, coord.Addr(), 0,
			"DIST_TEST_KEY=fleet-secret", "DIST_TEST_TLS=insecure")
	}
	if err := coord.WaitWorkers(2, 60*time.Second); err != nil {
		t.Fatal(err)
	}

	got := experiments.NewEngine(4).WithBackend(coord).EvalSchemes(ds, experiments.StandardSchemes())
	sameConfusions(t, "captured TLS+auth worker processes", want, got)

	stats := coord.Stats()
	wantCells := len(experiments.StandardSchemes()) * len(trace.Apps)
	if stats.RemoteCells != wantCells {
		t.Errorf("fleet evaluated %d cells, want all %d (local %d, reassigned %d)",
			stats.RemoteCells, wantCells, stats.LocalCells, stats.Reassigned)
	}
	if stats.TracesSent < len(set.Ref().Digests()) {
		t.Errorf("only %d traces pushed; the participating workers cannot all hold the set", stats.TracesSent)
	}
	if stats.HandshakesRejected != 0 {
		t.Errorf("%d handshakes rejected in a correctly keyed fleet", stats.HandshakesRejected)
	}
}
