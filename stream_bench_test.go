package trafficreshape

// Streaming-engine benchmarks. Two shapes:
//
//   - StreamIngestInline: the full per-packet path — window
//     maintenance, adaptive scheduling, ring append, self-audit
//     classification on window close — inline on one goroutine.
//     Zero-alloc, pinned by hotpath_alloc_test.go.
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
