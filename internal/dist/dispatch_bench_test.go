package dist

// Dispatch-path benchmark: coordinator scheduling + wire round-trip
// with evaluation taken out of the loop. A scripted peer answers every
// cell instantly from canned results, so the measured time is framing,
// syscalls, and scheduler bookkeeping — the overhead batched binary
// dispatch exists to shrink:
//
//	go test ./internal/dist -bench BenchmarkCoordinatorDispatch -run ^$

import (
	"bufio"
	"net"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/par"
	"trafficreshape/internal/trace"
)

// benchGridCells is one synthetic "grid" per iteration: enough cells
// that batching has something to amortize.
const benchGridCells = 64

// BenchmarkCoordinatorDispatchV3 keeps the name its BENCH_PR8.json
// baseline was recorded under.
func BenchmarkCoordinatorDispatchV3(b *testing.B) {
	coord, err := NewCoordinator("", CoordinatorOptions{Pool: par.NewPool(1)})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()

	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if _, err := ReadChallenge(conn); err != nil {
		b.Fatal(err)
	}
	if err := EncodeHello(conn, Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 8}); err != nil {
		b.Fatal(err)
	}
	if err := EncodeTraceHave(conn, TraceHave{}); err != nil {
		b.Fatal(err)
	}

	canned := make([]ml.Confusion, 4)
	for f := range canned {
		for d := 0; d < trace.NumApps; d++ {
			canned[f][d][d] = 10
		}
	}
	go func() {
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		for {
			msg, err := ReadMessage(br)
			if err != nil {
				return
			}
			if len(msg.Batch) == 0 {
				continue
			}
			results := make([]CellResult, len(msg.Batch))
			for i, r := range msg.Batch {
				results[i] = CellResult{ID: r.ID, Families: canned}
			}
			if err := EncodeResultBatch(bw, results); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}()
	if err := coord.WaitWorkers(1, 30*time.Second); err != nil {
		b.Fatal(err)
	}

	cfg := experiments.QuickConfig(5 * time.Second)
	reqs := make([]CellRequest, benchGridCells)
	for i := range reqs {
		reqs[i] = CellRequest{Cfg: cfg, Scheme: "Original", App: trace.Apps[i%len(trace.Apps)]}
	}

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		chans := coord.submitAll(reqs)
		if chans == nil {
			b.Fatal("no workers connected")
		}
		for _, ch := range chans {
			if r := <-ch; r.err != nil {
				b.Fatal(r.err)
			}
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*benchGridCells)/sec, "cells/s")
	}
}
