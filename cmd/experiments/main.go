// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run name] [-quick] [-w duration] [-workers n] [-list]
//	            [-dist-workers n] [-dist-listen addr] [-dist-cell-timeout d]
//	            [-dist-heartbeat d]
//	            [-dist-key k | -dist-key-file f]
//	            [-dist-tls-cert c -dist-tls-key k | -dist-tls-auto]
//	            [-captured dir] [-dump-traces dir]
//	            [-journal dir [-resume]]
//
// Without -run, every experiment executes in the paper's order.
// -workers sizes the concurrent sharded engine (default: all CPUs);
// -workers 1 is the serial path. -dist-workers n additionally spawns
// n local worker processes and distributes the (scheme × application)
// grid cells to them over TCP; -dist-listen accepts standalone
// workers (cmd/expworker) from other hosts on a fixed address, which
// a real fleet protects with -dist-tls-* (TLS on the port) and
// -dist-key (HMAC challenge in the handshake). -captured builds the
// primary dataset from trace files instead of the generator — the
// coordinator preloads the traces to workers over the wire — and
// -dump-traces writes the synthetic traffic of the run configuration
// in that layout. Any worker count — goroutines or processes — prints
// identical bytes: cells own their seed-derived random streams
// wherever they run.
//
// -journal DIR makes the run crash-durable: every completed grid cell
// is appended to DIR/grid.journal as it finishes, and a rerun with
// -resume answers already-journaled cells from the file — so a run
// killed mid-grid (coordinator crash, OOM, operator ctrl-C) is
// restarted with the same flags plus -resume and re-evaluates only
// the unanswered cells, printing a report byte-identical to an
// uninterrupted run. The journal implies a coordinator even without
// -dist-workers/-dist-listen (cells must flow through it to be
// recorded).
package main

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/trace"
)

// distKeyEnv carries the shared fleet key to re-executed local
// workers without exposing it on their command line.
const distKeyEnv = "TRDIST_KEY"

func main() {
	run := flag.String("run", "", "experiment to run (default: all); see -list")
	quick := flag.Bool("quick", false, "down-scaled durations for a fast pass")
	w := flag.Duration("w", 5*time.Second, "eavesdropping window for the primary dataset of -run or -dump-traces")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for the experiment engine (1 = serial)")
	distWorkers := flag.Int("dist-workers", 0, "spawn this many local worker processes and distribute grid cells to them")
	distListen := flag.String("dist-listen", "", "also accept standalone expworker processes on this address (host:port)")
	distWait := flag.Int("dist-wait", 0, "wait until this many workers (spawned + standalone) are connected before starting; workers joining later still help, but cells submitted to an empty fleet run locally")
	captured := flag.String("captured", "", "build the primary dataset from <app>.{train,test}.trsh trace files in this directory instead of the generator (missing applications stay synthetic)")
	journalDir := flag.String("journal", "", "append every completed grid cell to <dir>/grid.journal for crash-resume (implies a coordinator)")
	resume := flag.Bool("resume", false, "answer cells already recorded in the -journal file instead of re-evaluating them")
	haltAfter := flag.Int("dist-halt-after", 0, "crash simulation: exit(3) without draining once this many cells have been journaled (testing hook, requires -journal)")
	dumpTraces := flag.String("dump-traces", "", "write the run configuration's synthetic traffic to this directory in the -captured layout, then exit")
	workerDial := flag.String("worker-dial", "", "run as a worker: dial this coordinator and evaluate cells (used by -dist-workers)")
	workerTLS := flag.Bool("worker-tls", false, "worker mode: dial over TLS without verifying the certificate, authenticated by the shared key (used by -dist-workers)")
	list := flag.Bool("list", false, "list experiment names and exit")
	var ff dist.FleetFlags
	ff.RegisterShared(flag.CommandLine)
	ff.RegisterServe(flag.CommandLine)
	flag.Parse()

	if *workerDial != "" {
		if err := serveWorker(*workerDial, *workers, *workerTLS, &ff); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Println(r.Name)
		}
		return
	}

	if *w <= 0 {
		fmt.Fprintf(os.Stderr, "experiments: -w is the eavesdropping window and must be positive, got %v\n", *w)
		os.Exit(2)
	}
	// The full registry fixes its own datasets, so without -run the
	// flags that describe the primary dataset have nothing to act on.
	// Both checks come before any trace is read or worker started.
	if *run == "" && *dumpTraces == "" {
		wSet := false
		flag.Visit(func(f *flag.Flag) { wSet = wSet || f.Name == "w" })
		if wSet {
			fmt.Fprintln(os.Stderr, "experiments: -w requires -run or -dump-traces (the full registry fixes the window of every dataset it builds)")
			os.Exit(2)
		}
		if *captured != "" {
			fmt.Fprintln(os.Stderr, "experiments: -captured requires -run (the full registry derives datasets the captured layout does not describe)")
			os.Exit(2)
		}
	}
	cfg := experiments.DefaultConfig(*w)
	if *quick {
		cfg = experiments.QuickConfig(*w)
	}
	eng := experiments.NewEngine(*workers)

	if *dumpTraces != "" {
		if err := writeTraceDir(*dumpTraces, eng.SyntheticTraceSet(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	var set *experiments.TraceSet
	if *captured != "" {
		var err error
		set, err = readTraceDir(*captured)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if *distWorkers < 0 || *distWait < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -dist-workers and -dist-wait count workers and cannot be negative")
		os.Exit(2)
	}
	if *distWait > 0 && *distWorkers == 0 && *distListen == "" {
		fmt.Fprintln(os.Stderr, "experiments: -dist-wait needs a fleet to wait for; give -dist-listen and/or -dist-workers")
		os.Exit(2)
	}
	if *resume && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs -journal to say which journal to resume from")
		os.Exit(2)
	}
	if *haltAfter > 0 && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -dist-halt-after needs -journal (it counts journaled cells)")
		os.Exit(2)
	}
	if *distWorkers > 0 || *distListen != "" || *journalDir != "" {
		fc := fleetConfig{
			listen:        *distListen,
			workers:       *distWorkers,
			wait:          *distWait,
			engineWorkers: *workers,
			cellTimeout:   ff.CellTimeout,
			heartbeat:     ff.Heartbeat,
			journalDir:    *journalDir,
			resume:        *resume,
			haltAfter:     *haltAfter,
			key:           fleetKey(&ff),
		}
		var err error
		fc.tls, err = fleetTLS(ff.TLSCert, ff.TLSKey, ff.TLSAuto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		coord, stop, err := startFleet(eng, fc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop()
		eng = eng.WithBackend(coord)
	}

	if *run == "" {
		if _, err := eng.RunAll(os.Stdout, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	res, err := eng.RunFrom(*run, cfg, set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("==== %s ====\n%s\n", res.Name, res.Text)
	for _, k := range res.SortedMetricKeys() {
		fmt.Printf("metric %-28s %.4f\n", k, res.Metrics[k])
	}
}

// fleetKey resolves the shared key: an explicit flag wins, then a key
// file, then the environment (how spawned local workers receive it).
func fleetKey(ff *dist.FleetFlags) string {
	key, err := ff.ResolveKey(distKeyEnv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	return key
}

// serveWorker is the -worker-dial mode body. A spawned worker dials
// its parent's listener the way expworker -dist-tls-insecure would:
// encrypted but unverified under -worker-tls, with the shared key from
// the environment proving the fleet.
func serveWorker(addr string, engineWorkers int, tlsOn bool, ff *dist.FleetFlags) error {
	ff.TLSInsecure = tlsOn
	netOpt, err := ff.DialNet(distKeyEnv)
	if err != nil {
		return err
	}
	ev := experiments.NewCellEvaluator(experiments.NewEngine(engineWorkers), 0)
	return dist.Serve(addr, dist.WorkerOptions{State: ev, Net: netOpt})
}

// fleetConfig bundles the coordinator-side fleet settings.
type fleetConfig struct {
	listen  string
	workers int
	// wait is the fleet size to await before the first cell is
	// enqueued (spawned and standalone workers both count). Spawned
	// workers are always awaited; -dist-wait raises the bar so a grid
	// over a standalone fleet starts remote instead of local: cells
	// submitted while the fleet is still empty are evaluated in-process
	// (correct, but not what a multi-host operator paid for).
	wait          int
	engineWorkers int
	cellTimeout   time.Duration
	// heartbeat is the liveness ping interval (0 = disabled).
	heartbeat time.Duration
	// journalDir, when non-empty, holds the grid journal; resume loads
	// prior records instead of truncating; haltAfter > 0 simulates a
	// coordinator crash (exit 3) after that many journal appends.
	journalDir string
	resume     bool
	haltAfter  int
	key        string
	// tls, when set, serves the listener over TLS; spawned local
	// workers then dial with -worker-tls.
	tls *tls.Config
}

// fleetTLS resolves the listener TLS config. Spawned local workers
// never verify it: they cannot know an ephemeral -dist-tls-auto
// certificate, and they dial the listener's numeric address, which an
// operator certificate rarely carries as an IP SAN — verifying would
// fail every spawned worker on a cert that is perfectly valid for the
// listen hostname. They are children of this process on this host,
// so the shared key authenticates them; standalone expworkers on
// other hosts verify properly via -dist-tls-ca.
func fleetTLS(certFile, keyFile string, auto bool) (*tls.Config, error) {
	switch {
	case auto && (certFile != "" || keyFile != ""):
		return nil, errors.New("-dist-tls-auto and -dist-tls-cert/-dist-tls-key are mutually exclusive")
	case auto:
		server, _, err := dist.SelfSignedTLS()
		return server, err
	case certFile != "" || keyFile != "":
		if certFile == "" || keyFile == "" {
			return nil, errors.New("-dist-tls-cert and -dist-tls-key must be given together")
		}
		return dist.LoadServerTLS(certFile, keyFile)
	default:
		return nil, nil
	}
}

// startFleet brings up the coordinator and n local worker processes
// (re-executions of this binary in -worker-dial mode), returning the
// backend and a shutdown func. The fleet is ready — every spawned
// worker connected — before the first cell is enqueued, so a
// dist-workers run exercises the wire path rather than silently
// falling back to local evaluation.
func startFleet(eng *experiments.Engine, fc fleetConfig) (*dist.Coordinator, func(), error) {
	var journal *dist.GridJournal
	if fc.journalDir != "" {
		if err := os.MkdirAll(fc.journalDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("journal dir: %w", err)
		}
		var err error
		journal, err = dist.OpenGridJournal(filepath.Join(fc.journalDir, "grid.journal"), fc.resume)
		if err != nil {
			return nil, nil, err
		}
		if fc.haltAfter > 0 {
			// Crash simulation in the reshaped -halt-after convention:
			// exit(3) with no draining, no journal close, no report —
			// exactly what a mid-grid coordinator death leaves behind.
			halt := fc.haltAfter
			journal.OnAppend(func(total int) {
				if total == halt {
					fmt.Fprintf(os.Stderr, "dist: halting after %d journal appends (crash simulation)\n", total)
					os.Exit(3)
				}
			})
		}
	}
	coord, err := dist.NewCoordinator(fc.listen, dist.CoordinatorOptions{
		// Fallback cells draw the engine's own permits, keeping the
		// -workers bound true even when the fleet misbehaves.
		Pool:        eng.Pool(),
		CellTimeout: fc.cellTimeout,
		Heartbeat:   fc.heartbeat,
		Journal:     journal,
		Net:         dist.NetOptions{TLS: fc.tls, AuthKey: fc.key},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, nil, err
	}
	self, err := os.Executable()
	if err != nil {
		coord.Close()
		if journal != nil {
			journal.Close()
		}
		return nil, nil, fmt.Errorf("locating own binary for worker spawn: %w", err)
	}
	procs := make([]*exec.Cmd, 0, fc.workers)
	stop := func() {
		stats := coord.Stats()
		coord.Close()
		for _, p := range procs {
			_ = p.Wait()
		}
		fmt.Fprintf(os.Stderr, "dist: %d cells remote (%d cached), %d local, %d reassigned, %d traces sent, %d workers joined, %d lost\n",
			stats.RemoteCells, stats.RemoteCacheHits, stats.LocalCells, stats.Reassigned,
			stats.TracesSent, stats.WorkersJoined, stats.WorkersLost)
		fmt.Fprintf(os.Stderr, "dist: %d batches (%d cells batched), max queue %d\n",
			stats.BatchesSent, stats.BatchedCells, stats.MaxQueueDepth)
		if stats.PingsSent > 0 || stats.HeartbeatReaps > 0 || stats.CorruptFrames > 0 {
			fmt.Fprintf(os.Stderr, "dist: %d pings (%d pongs), %d heartbeat reaps, %d corrupt frames\n",
				stats.PingsSent, stats.PongsReceived, stats.HeartbeatReaps, stats.CorruptFrames)
		}
		if journal != nil {
			fmt.Fprintf(os.Stderr, "dist: journal: restored=%d hits=%d appends=%d\n",
				journal.Restored(), journal.Hits(), journal.Appends())
			if err := journal.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
	}
	for i := 0; i < fc.workers; i++ {
		args := []string{
			"-worker-dial", coord.Addr(),
			"-workers", strconv.Itoa(fc.engineWorkers),
		}
		if fc.tls != nil {
			args = append(args, "-worker-tls")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if fc.key != "" {
			// The key travels in the environment, not on the command
			// line, so it is not readable from the process table.
			cmd.Env = append(os.Environ(), distKeyEnv+"="+fc.key)
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	await := fc.workers
	if fc.wait > await {
		await = fc.wait
	}
	if await > 0 {
		if err := coord.WaitWorkers(await, 60*time.Second); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return coord, stop, nil
}

// --- captured-trace directory layout ----------------------------------------

// traceFile names one slot: <app>.<role>.trsh (binary trace codec).
func traceFile(dir string, app trace.App, role string) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%s.trsh", app, role))
}

// writeTraceDir dumps a trace set in the -captured layout.
func writeTraceDir(dir string, set *experiments.TraceSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(role string, m map[trace.App]*trace.Trace) error {
		for app, tr := range m {
			f, err := os.Create(traceFile(dir, app, role))
			if err != nil {
				return err
			}
			err = trace.WriteBinary(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("train", set.Train); err != nil {
		return err
	}
	return write("test", set.Test)
}

// readTraceDir loads whichever <app>.{train,test}.trsh files exist in
// dir; applications without a file stay synthetic, so a partial
// directory mixes captured and synthetic cells in one grid.
func readTraceDir(dir string) (*experiments.TraceSet, error) {
	set := &experiments.TraceSet{
		Train: make(map[trace.App]*trace.Trace),
		Test:  make(map[trace.App]*trace.Trace),
	}
	read := func(role string, m map[trace.App]*trace.Trace) error {
		for _, app := range trace.Apps {
			f, err := os.Open(traceFile(dir, app, role))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return err
			}
			tr, err := trace.ReadBinary(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", traceFile(dir, app, role), err)
			}
			m[app] = tr
		}
		return nil
	}
	if err := read("train", set.Train); err != nil {
		return nil, err
	}
	if err := read("test", set.Test); err != nil {
		return nil, err
	}
	if set.Empty() {
		return nil, fmt.Errorf("no <app>.{train,test}.trsh files in %s", dir)
	}
	return set, nil
}
