// Command reshaped is the online reshaping daemon: it runs the
// internal/stream engine over a packet capture, applying the adaptive
// reshaping defense per flow — streaming windows, self-audit
// classification, and vMAC escalation — and emits a deterministic
// report.
//
// Two input modes:
//
//	reshaped -synth -duration 30s -capture-seed 42        # synthesize a multi-flow capture
//	reshaped -replay capture.trace                        # replay a recorded capture
//
// The deterministic report goes to stdout; timing diagnostics
// (throughput, per-packet latency) go to stderr, so redirecting
// stdout captures a byte-comparable artifact. With the same capture
// and -seed, the report is byte-identical across runs and across any
// -shards value — the property the stream-replay CI job enforces.
//
//	reshaped -synth -dump capture.trace                   # also record the synthetic capture
//	reshaped -replay capture.trace -shards 8              # same bytes, eight shard goroutines
//
// Overload robustness:
//
//	-policy fail-closed|fail-open selects what a full shard queue does
//	(drop the packet, or pass it unshaped and count the leak);
//	-queue-depth bounds the queue; -degrade-audit sheds the self-audit
//	before shedding packets; -watchdog reaps wedged shards.
//
// Crash recovery:
//
//	reshaped -replay cap.trace -checkpoint ckpt -checkpoint-every 5000
//	reshaped -replay cap.trace -restore ckpt/reshaped.ckpt
//
// The first run snapshots all per-flow defense state every N packets;
// after a crash the second resumes from the last snapshot, skipping
// the already-ingested prefix, and its report is byte-identical to an
// uninterrupted run (-halt-after simulates the crash: exit without
// drain). SIGINT/SIGTERM trigger a graceful drain — the report is
// still written.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

func main() {
	var (
		replay      = flag.String("replay", "", "replay a captured binary trace file")
		synth       = flag.Bool("synth", false, "synthesize a multi-flow capture (one flow per application)")
		dump        = flag.String("dump", "", "with -synth: also write the capture to this file")
		duration    = flag.Duration("duration", 30*time.Second, "with -synth: capture duration")
		captureSeed = flag.Uint64("capture-seed", 42, "with -synth: capture generator seed")
		seed        = flag.Uint64("seed", 11, "engine seed (per-flow RNG streams, vMAC pool)")
		shards      = flag.Int("shards", 0, "shard goroutines (0 = inline)")
		window      = flag.Duration("window", 5*time.Second, "eavesdropping window length")
		interfaces  = flag.Int("interfaces", 3, "initial virtual interfaces per flow")
		period      = flag.Int("period", 500, "adaptive scheduler re-derivation period, packets")
		ringCap     = flag.Int("ringcap", 4096, "per-flow window ring capacity, packets")
		escalate    = flag.Int("escalate-after", 2, "consecutive leaky windows before interface escalation")
		audit       = flag.Bool("audit", true, "run the self-audit classifier (trains a kNN at startup)")
		trainSeed   = flag.Uint64("train-seed", 9000, "self-audit training trace seed base")

		policy       = flag.String("policy", "backpressure", "shard admission policy: backpressure, fail-closed or fail-open")
		queueDepth   = flag.Int("queue-depth", 2, "batches queued per shard before the admission policy triggers")
		degradeAudit = flag.Bool("degrade-audit", true, "disable the self-audit at the first full-queue event under -policy fail-open or fail-closed, shedding load before packets")
		watchdog     = flag.Duration("watchdog", 0, "reap a shard wedged for this long (0 = off)")

		ckptDir   = flag.String("checkpoint", "", "snapshot per-flow defense state into this directory")
		ckptEvery = flag.Int("checkpoint-every", 5000, "with -checkpoint: snapshot every N ingested packets")
		restore   = flag.String("restore", "", "resume from this checkpoint file, skipping the already-ingested prefix")
		haltAfter = flag.Int("halt-after", 0, "exit(3) without draining after N packets — crash simulation for the kill-and-restore harness")
	)
	flag.Parse()

	shedPolicy, err := stream.ParseShedPolicy(*policy)
	if err != nil {
		fatal(err)
	}

	var capture *trace.Trace
	switch {
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		capture, err = trace.ReadBinary(bufio.NewReader(f))
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("read %s: %w", *replay, err))
		}
	case *synth:
		capture = synthesize(*duration, *captureSeed)
		if *dump != "" {
			if err := writeCapture(*dump, capture); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dumped capture: %s (%d packets)\n", *dump, capture.Len())
		}
	default:
		fatal(fmt.Errorf("reshaped: need -replay FILE or -synth (see -help)"))
	}

	cfg := stream.Config{
		W:             *window,
		RingCap:       *ringCap,
		Interfaces:    *interfaces,
		Period:        *period,
		Seed:          *seed,
		Shards:        *shards,
		EscalateAfter: *escalate,
		Policy:        shedPolicy,
		QueueDepth:    *queueDepth,
		DegradeAudit:  *degradeAudit,
		Watchdog:      *watchdog,
	}
	if *audit {
		cls, err := trainAudit(*window, *trainSeed)
		if err != nil {
			fatal(err)
		}
		cfg.Classifier = cls
	}

	engine := stream.New(cfg)
	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			fatal(err)
		}
		err = engine.Restore(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("restore %s: %w", *restore, err))
		}
		fmt.Fprintf(os.Stderr, "restored state for %d ingested packets from %s\n", engine.Offered(), *restore)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	skip := engine.Offered()
	if skip > int64(len(capture.Packets)) {
		fatal(fmt.Errorf("reshaped: checkpoint is ahead of the capture (%d packets of state, %d in capture)",
			skip, len(capture.Packets)))
	}

	start := time.Now()
	var ingested int64
ingest:
	for i := skip; i < int64(len(capture.Packets)); i++ {
		engine.Ingest(capture.Packets[i])
		ingested++
		n := i + 1
		if *ckptDir != "" && *ckptEvery > 0 && n%int64(*ckptEvery) == 0 {
			if err := writeCheckpoint(engine, *ckptDir); err != nil {
				fatal(err)
			}
		}
		if *haltAfter > 0 && n >= int64(*haltAfter) {
			// Crash simulation: no drain, no report, no final
			// checkpoint — only what -checkpoint-every already wrote
			// survives, exactly like a kill -9 at packet n.
			fmt.Fprintf(os.Stderr, "halting without drain after %d packets (crash simulation)\n", n)
			os.Exit(3)
		}
		if n%1024 == 0 {
			select {
			case s := <-sig:
				fmt.Fprintf(os.Stderr, "received %v: draining for a final report\n", s)
				break ingest
			default:
			}
		}
	}
	rep := engine.Drain()
	elapsed := time.Since(start)

	out := bufio.NewWriter(os.Stdout)
	if _, err := rep.WriteTo(out); err != nil {
		fatal(err)
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}

	if rep.Packets == 0 {
		// Guard the per-packet timing below: an empty capture (or a
		// stream shed in its entirety) has no meaningful ns/pkt, and
		// dividing by zero used to print "+Inf".
		fmt.Fprintln(os.Stderr, "reshaped: no packets were processed (empty capture or fully shed stream); timing statistics are undefined")
		os.Exit(1)
	}
	if ingested > 0 {
		pps := float64(ingested) / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "ingested %d packets in %v (%.0f pkts/s, %.0f ns/pkt, shards=%d)\n",
			ingested, elapsed.Round(time.Millisecond), pps,
			float64(elapsed.Nanoseconds())/float64(ingested), *shards)
	}
}

// writeCheckpoint snapshots the engine atomically: write to a temp
// file in the same directory, fsync-free rename over the target, so a
// crash mid-write never leaves a truncated checkpoint where the next
// -restore will look (the CRC footer catches torn writes regardless).
func writeCheckpoint(e *stream.Engine, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, "reshaped.ckpt.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := e.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "reshaped.ckpt"))
}

// synthesize builds the -synth capture: one flow per application,
// each under a deterministic locally-administered address, merged
// into one arrival-ordered stream. The generators emit zero MACs, so
// the daemon assigns the per-flow addresses the engine keys on.
func synthesize(dur time.Duration, seed uint64) *trace.Trace {
	flows := make([]*trace.Trace, 0, trace.NumApps)
	for i, app := range trace.Apps {
		tr := appgen.Generate(app, dur, seed+uint64(i))
		addr := mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, byte(i + 1)}
		for j := range tr.Packets {
			tr.Packets[j].MAC = addr
		}
		flows = append(flows, tr)
	}
	return trace.Merge(flows...)
}

// trainAudit trains the daemon's self-audit classifier: a kNN over
// synthetic training traces with an explicit trainer, so training is
// deterministic (no holdout shuffle) and classification allocation-
// free on the ingest path.
func trainAudit(w time.Duration, seedBase uint64) (*attack.Classifier, error) {
	training := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		training[app] = appgen.Generate(app, 60*time.Second, seedBase+uint64(i))
	}
	return attack.Train(training, attack.TrainOptions{W: w, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7})
}

func writeCapture(name string, tr *trace.Trace) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.WriteBinary(bw, tr); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
