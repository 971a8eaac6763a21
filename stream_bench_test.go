package trafficreshape

// Streaming-engine benchmarks:
//
//   - StreamIngestInline: the full per-packet path — window
//     maintenance, adaptive scheduling, ring append, self-audit
//     classification on window close — inline on one goroutine.
//     Zero-alloc, pinned by hotpath_alloc_test.go.
//   - StreamIngestDaemon: the same inline path under reshaped's
//     defaults, with escalation on, so the audit runs at up to 16
//     interfaces per flow. Profile it with
//     go test -run '^$' -bench StreamIngestDaemon -cpuprofile cpu.out
//   - StreamIngestShardedDaemon: reshaped's defaults on one shard
//     goroutine with a checkpoint every 50 000 packets — the handoff,
//     barrier and checkpoint-encoding path. Profile it the same way.
//   - StreamIngestSharded: the asynchronous batched path across many
//     flows — what the daemon actually sustains.

import (
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

// streamBenchCapture builds the multi-flow input: one flow per
// application under its own locally-administered address.
func streamBenchCapture(dur time.Duration) *trace.Trace {
	flows := make([]*trace.Trace, 0, trace.NumApps)
	for i, app := range trace.Apps {
		tr := appgen.Generate(app, dur, 500+uint64(i))
		addr := mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, byte(i + 1)}
		for j := range tr.Packets {
			tr.Packets[j].MAC = addr
		}
		flows = append(flows, tr)
	}
	return trace.Merge(flows...)
}

// benchPeriod is the adaptive-scheduler re-derivation period used by
// every stream benchmark, deliberately identical across the
// single-flow and sharded configurations so the headline ratio
// compares paths, not tuning. 2000 packets is well under a second of
// traffic at daemon rates.
const benchPeriod = 2000

var streamBenchCls *attack.Classifier

func streamBenchClassifier(b testing.TB) *attack.Classifier {
	b.Helper()
	if streamBenchCls == nil {
		training := make(map[trace.App]*trace.Trace, trace.NumApps)
		for i, app := range trace.Apps {
			training[app] = appgen.Generate(app, 30*time.Second, 600+uint64(i))
		}
		cls, err := attack.Train(training, attack.TrainOptions{
			W: time.Second, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		streamBenchCls = cls
	}
	return streamBenchCls
}

// cyclePackets replays a capture's packets forever with a monotone
// time offset per lap, so per-flow time never runs backwards and
// windows keep closing at the steady-state rate.
type cyclePackets struct {
	packets []trace.Packet
	span    time.Duration
	base    time.Duration
	i       int
}

func newCycle(tr *trace.Trace) *cyclePackets {
	return &cyclePackets{packets: tr.Packets, span: tr.Duration() + time.Second}
}

func (c *cyclePackets) next() trace.Packet {
	p := c.packets[c.i]
	p.Time += c.base
	c.i++
	if c.i == len(c.packets) {
		c.i = 0
		c.base += c.span
	}
	return p
}

// BenchmarkStreamIngestInline: full ingest path with the self-audit
// classifier, zero allocations per packet in steady state (pinned by
// hotpath_alloc_test.go).
// Escalation is disabled so the measured window never rebuilds
// schedulers mid-run; escalations are rare control-plane events, not
// steady state.
func BenchmarkStreamIngestInline(b *testing.B) {
	in := streamBenchCapture(20 * time.Second)
	e := stream.New(stream.Config{
		W: time.Second, RingCap: 512, Seed: 11, Period: benchPeriod,
		Classifier: streamBenchClassifier(b), EscalateAfter: 1 << 30,
	})
	cyc := newCycle(in)
	for i := 0; i < len(in.Packets)+10000; i++ { // create flows, cross windows and epochs
		e.Ingest(cyc.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Ingest(cyc.next())
	}
}

// BenchmarkStreamIngestDaemon: the inline ingest path under
// reshaped's defaults (bench/daemon.go's daemonConfig): 5 s windows,
// 4096-packet rings, a re-derivation period of 500 packets and
// escalation after two leaky windows, audited by a kNN trained at
// 5 s. Three warm-up laps of the capture let flows escalate; three of
// the seven then audit their windows at the 16-interface ceiling, as
// the chatting, downloading and uploading flows do in reshaped's
// 300 s synthetic run.
func BenchmarkStreamIngestDaemon(b *testing.B) {
	in := streamBenchCapture(60 * time.Second)
	e := stream.New(daemonBenchConfig(b, 0))
	cyc := newCycle(in)
	for i := 0; i < 3*len(in.Packets); i++ {
		e.Ingest(cyc.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Ingest(cyc.next())
	}
}

// daemonBenchConfig is reshaped's default configuration at the given
// shard count, with its self-audit kNN trained at 5 s.
func daemonBenchConfig(b *testing.B, shards int) stream.Config {
	const w = 5 * time.Second
	training := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		training[app] = appgen.Generate(app, 60*time.Second, 600+uint64(i))
	}
	cls, err := attack.Train(training, attack.TrainOptions{W: w, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return stream.Config{
		W: w, RingCap: 4096, Period: 500, EscalateAfter: 2, Seed: 11,
		Shards: shards, DegradeAudit: true, Classifier: cls,
	}
}

// BenchmarkStreamIngestShardedDaemon: the daemon's sharded path as
// bench/daemon.go's daemon-sharded workload drives it — reshaped's
// defaults on one shard goroutine, with a checkpoint every 50 000
// packets into a writer that only counts. Per-op time is the
// producer's wall time per packet, handoff, barriers and checkpoint
// encoding included. Profile it with
// go test -run '^$' -bench StreamIngestShardedDaemon -cpuprofile cpu.out
func BenchmarkStreamIngestShardedDaemon(b *testing.B) {
	const checkpointEvery = 50_000
	in := streamBenchCapture(60 * time.Second)
	e := stream.New(daemonBenchConfig(b, 1))
	cyc := newCycle(in)
	for i := 0; i < 3*len(in.Packets); i++ {
		e.Ingest(cyc.next())
	}
	var w countWriter
	b.ReportAllocs()
	b.ResetTimer()
	for n := 1; n <= b.N; n++ {
		e.Ingest(cyc.next())
		if n%checkpointEvery == 0 {
			if err := e.Checkpoint(&w); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	e.Drain()
}

// countWriter counts the bytes written to it and drops them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkStreamIngestSharded: asynchronous batched ingest across
// all seven flows on four shard goroutines — the daemon's sustained
// multi-flow throughput path. Per-op time is the producer-side cost
// per packet with the shards consuming concurrently.
func BenchmarkStreamIngestSharded(b *testing.B) {
	in := streamBenchCapture(20 * time.Second)
	e := stream.New(stream.Config{W: time.Second, RingCap: 512, Seed: 11, Shards: 4, Period: benchPeriod})
	cyc := newCycle(in)
	for i := 0; i < len(in.Packets)+10000; i++ {
		e.Ingest(cyc.next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Ingest(cyc.next())
	}
	b.StopTimer()
	e.Drain()
}
