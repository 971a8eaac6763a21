package trafficreshape

// Allocation guards for the classification and build hot paths.
// Window cutting (with scratch reuse), feature extraction and kNN
// prediction perform zero steady-state heap allocations. The build
// side follows: whole-trace morphing into a reused destination, MLP
// prediction and the grid cell's partition are allocation-free too,
// and so is the streaming engine: ingesting a packet into a warmed
// engine — window maintenance, adaptive scheduling, ring append,
// self-audit classification on window close — is allocation-free in
// steady state. These guards run in the regular test suite and in
// CI's "Allocation guards" step; any regression above zero fails the
// build.

import (
	"io"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/features"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

func TestHotPathAllocGuards(t *testing.T) {
	tr := appgen.Generate(trace.Video, 60*time.Second, 5)
	ws := features.AppendWindowsOf(nil, tr, 5*time.Second, false)
	if len(ws) == 0 {
		t.Fatal("no windows")
	}
	model, queries := knnFixture(500, 17)
	scratch := tr.AppendWindows(nil, 5*time.Second, 1, false)

	guards := []struct {
		name string
		f    func()
	}{
		{"trace.AppendWindows/reused", func() {
			scratch = tr.AppendWindows(scratch[:0], 5*time.Second, 1, false)
		}},
		{"features.Extract", func() {
			_ = features.Extract(ws[0])
		}},
		{"ml.knn.Predict", func() {
			_ = model.Predict(queries[0])
		}},
	}
	guards = append(guards, buildPathGuards(t)...)
	guards = append(guards, streamPathGuards(t)...)
	for _, g := range guards {
		g := g
		t.Run(g.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(50, g.f); allocs != 0 {
				t.Fatalf("%s allocates %.1f times per run, want 0", g.name, allocs)
			}
		})
	}
}

// buildPathGuards pins the build-side contract: whole-trace morphing
// (ApplyInPlace on a reused scratch copy) touches the heap zero times
// per run, and so do pricing a morph by its dominant-direction bytes
// and MLP Predict (stack-resident activation scratch). The grid
// cell's partition joins it: reshaping into a warm reshape.Buffer and
// splitting into a reused destination allocate nothing.
func buildPathGuards(t *testing.T) []struct {
	name string
	f    func()
} {
	t.Helper()
	src := appgen.Generate(trace.Chatting, 30*time.Second, 7)
	target := appgen.Generate(trace.Gaming, 30*time.Second, 8)
	model, err := defense.NewMorphModel(target)
	if err != nil {
		t.Fatal(err)
	}
	morpher := model.Morpher(9)
	morphed := src.Clone()

	video := appgen.Generate(trace.Video, 30*time.Second, 12)
	or := reshape.Recommended()
	var parts reshape.Buffer
	parts.Apply(or, video)
	fragments := defense.AppendSplit(new(trace.Trace), video, 500, 28)

	var examples []features.Example
	for _, app := range trace.Apps {
		tr := appgen.Generate(app, 30*time.Second, 11)
		for _, w := range features.AppendWindowsOf(nil, tr, 5*time.Second, false) {
			w.App = app
			examples = append(examples, features.Example{X: features.Extract(w), Y: app})
		}
	}
	scaler := features.FitScaler(examples)
	scaled := scaler.ApplyAll(examples)
	mlpModel, err := (&ml.MLPTrainer{}).Train(scaled, 1)
	if err != nil {
		t.Fatal(err)
	}

	return []struct {
		name string
		f    func()
	}{
		{"ml.mlp.Predict", func() {
			_ = mlpModel.Predict(scaled[0].X)
		}},
		{"defense.Morpher.ApplyInPlace", func() {
			morphed.Packets = append(morphed.Packets[:0], src.Packets...)
			morpher.ApplyInPlace(morphed)
		}},
		{"defense.DominantOverhead", func() {
			_ = defense.DominantOverhead(src, morphed)
		}},
		{"reshape.Buffer.Apply/reused", func() {
			_ = parts.Apply(or, video)
		}},
		{"defense.AppendSplit/reused", func() {
			fragments.Packets = fragments.Packets[:0]
			_ = defense.AppendSplit(fragments, video, 500, 28)
		}},
	}
}

// streamPathGuards pins PR 6's streaming contract: once an engine is
// warm (flows registered, rings and scratch grown, schedulers past
// their first epoch), ingesting a packet allocates nothing — even
// with the self-audit classifier enabled and windows closing inside
// the measured runs (W is small relative to the run length so every
// run crosses several window boundaries). PR 7 extends the contract
// to bounded admission: a sharded engine with a shed policy and
// queue-depth accounting active stays allocation-free on the producer
// side AND in the shard consumers (AllocsPerRun counts mallocs from
// every goroutine), so overload protection costs nothing when the
// system is healthy. The default backpressure policy, whose handoff
// blocks on the shard queue instead of selecting, is pinned the same
// way on four shards.
func streamPathGuards(t *testing.T) []struct {
	name string
	f    func()
} {
	t.Helper()
	in := streamBenchCapture(10 * time.Second)
	e := stream.New(stream.Config{
		W: 250 * time.Millisecond, RingCap: 512, Seed: 3,
		Classifier: streamBenchClassifier(t), EscalateAfter: 1 << 30,
	})
	cyc := newCycle(in)
	for i := 0; i < len(in.Packets)+5000; i++ {
		e.Ingest(cyc.next())
	}

	es := stream.New(stream.Config{
		W: 250 * time.Millisecond, RingCap: 512, Seed: 3,
		Shards: 2, BatchSize: 64, EscalateAfter: 1 << 30,
		Policy: stream.PolicyFailClosed, QueueDepth: 2, DegradeAudit: true,
	})
	t.Cleanup(func() { es.Drain() })
	cycs := newCycle(in)
	for i := 0; i < len(in.Packets)+5000; i++ {
		es.Ingest(cycs.next())
	}
	// Checkpoint is a full shard barrier: it waits for every queued
	// warmup batch to finish, so no consumer-side warmup allocation
	// (ring growth, scratch sizing) bleeds into the measured runs of
	// this or any later guard.
	if err := es.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}

	eb := stream.New(stream.Config{
		W: 250 * time.Millisecond, RingCap: 512, Seed: 3,
		Shards: 4, BatchSize: 64, EscalateAfter: 1 << 30,
	})
	t.Cleanup(func() { eb.Drain() })
	cycb := newCycle(in)
	for i := 0; i < len(in.Packets)+5000; i++ {
		eb.Ingest(cycb.next())
	}
	if err := eb.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}

	return []struct {
		name string
		f    func()
	}{
		{"stream.Engine.Ingest/steady", func() {
			for i := 0; i < 200; i++ {
				e.Ingest(cyc.next())
			}
		}},
		{"stream.Engine.Ingest/sharded-admission", func() {
			for i := 0; i < 200; i++ {
				es.Ingest(cycs.next())
			}
		}},
		{"stream.Engine.Ingest/sharded-backpressure", func() {
			for i := 0; i < 200; i++ {
				eb.Ingest(cycb.next())
			}
		}},
	}
}
