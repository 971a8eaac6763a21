// Command expworker is a standalone experiment-grid worker: it dials
// a coordinator (cmd/experiments -dist-listen on any host), rebuilds
// datasets from the Configs — and, for captured cells, the preloaded
// traces — it is handed, and evaluates grid cells until the
// coordinator shuts it down. Because every cell is a pure function of
// its request, adding or losing expworker processes — even mid-run —
// never changes a result bit.
//
// Fleet security: -dist-tls (with -dist-tls-ca or -dist-tls-insecure)
// encrypts the coordinator connection, and -dist-key/-dist-key-file
// answers the coordinator's HMAC challenge. With -redial the worker
// outlives the coordinator: its trace store, dataset cache and result
// cache survive reconnects, so a resumed grid neither re-ships traces
// nor re-evaluates answered cells.
//
// Flag names follow cmd/experiments' -dist-* vocabulary.
//
// SIGINT/SIGTERM drain gracefully, mirroring reshaped: in-flight
// cells finish, queued results flush to the coordinator, then the
// process exits (overriding -redial). A second signal kills the
// process immediately via Go's default disposition being restored.
//
// Usage:
//
//	expworker -addr host:port [-workers n] [-slots n]
//	          [-dist-tls] [-dist-tls-ca cert.pem] [-dist-tls-insecure]
//	          [-dist-key k | -dist-key-file f]
//	          [-dist-cache n] [-redial d]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"trafficreshape/internal/dist"
)

func main() {
	addr := flag.String("addr", "", "coordinator address to dial (required)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines for dataset builds and cell evaluation")
	slots := flag.Int("slots", 0, "cells to evaluate concurrently (default GOMAXPROCS)")
	cache := flag.Int("dist-cache", 0, "result cache entries (default 4096)")
	redial := flag.Duration("redial", 0, "when set, redial the coordinator after it goes away, starting at this delay with jittered exponential backoff, keeping the trace store and result cache")
	redialMax := flag.Duration("redial-max", 2*time.Minute, "ceiling for the redial backoff")
	var ff dist.FleetFlags
	ff.RegisterShared(flag.CommandLine)
	ff.RegisterDial(flag.CommandLine)
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "expworker: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	netOpt, err := ff.DialNet("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "expworker:", err)
		os.Exit(1)
	}

	// Graceful drain: the first SIGINT/SIGTERM closes the drain channel
	// — Serve finishes in-flight cells, flushes queued results, and
	// returns — and resets the handlers so a second signal kills the
	// process the default way (a wedged drain must stay killable).
	drain := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Reset(os.Interrupt, syscall.SIGTERM)
		fmt.Fprintf(os.Stderr, "expworker: %v: draining (finishing in-flight cells, flushing results)\n", s)
		close(drain)
	}()

	opt := dist.WorkerOptions{
		Slots: *slots,
		State: dist.NewWorkerState(*workers, *cache),
		Net:   netOpt,
		Drain: drain,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	// The backoff seed mixes process identity and start time so a fleet
	// of workers restarted together spreads its redials instead of
	// hammering the recovering coordinator in lockstep.
	backoff := dist.NewBackoff(*redial, *redialMax, uint64(os.Getpid())^uint64(time.Now().UnixNano()))
	for {
		err := dist.Serve(*addr, opt)
		select {
		case <-drain:
			// Serve returned because the signal drain completed (or the
			// signal landed between sessions): exit cleanly even under
			// -redial — the operator asked this process to go away.
			return
		default:
		}
		if err != nil && *redial <= 0 {
			fmt.Fprintln(os.Stderr, "expworker:", err)
			os.Exit(1)
		}
		if err == nil {
			// A session completed: the next outage starts its backoff
			// from the base delay again.
			backoff.Reset()
		} else {
			// With -redial the worker outlives the coordinator in both
			// directions: clean shutdowns and dial/transport errors
			// (coordinator not up yet, restarting, network blip) all
			// lead back to the dial loop, state intact.
			fmt.Fprintln(os.Stderr, "expworker:", err, "- redialing")
		}
		if *redial <= 0 {
			return
		}
		time.Sleep(backoff.Next())
	}
}
