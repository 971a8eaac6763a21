package trafficreshape

// Allocation guards for the classification and build hot paths. PR
// 2's contract: window cutting (with scratch reuse), feature
// extraction and kNN prediction perform zero steady-state heap
// allocations. PR 4 extends the contract to the build side: SVM
// training into a reused scratch and whole-trace morphing into a
// reused destination are allocation-free too. PR 6 extends it to the
// streaming engine: ingesting a packet into a warmed engine — window
// maintenance, adaptive scheduling, ring append, self-audit
// classification on window close — is allocation-free in steady
// state. These guards run in the regular test suite and in the CI
// bench job; any regression above zero fails the build.

import (
	"io"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/defense"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

func TestHotPathAllocGuards(t *testing.T) {
	tr := appgen.Generate(trace.Video, 60*time.Second, 5)
	ws := features.WindowsOf(tr, 5*time.Second)
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

// buildPathGuards pins PR 4's build-side contract: steady-state SVM
// retraining (serial TrainScratch into a reused scratch) and
// whole-trace morphing (AppendApply into a reused destination) touch
// the heap zero times per run. PR 10 closes the set with the MLP —
// the last trainer with per-step allocations: scratch retraining and
// Predict (stack-resident activation scratch) are allocation-free.
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
	dst := morpher.AppendApply(trace.New(src.Len()), src)

	var examples []features.Example
	for _, app := range trace.Apps {
		tr := appgen.Generate(app, 30*time.Second, 11)
		for _, w := range features.WindowsOf(tr, 5*time.Second) {
			w.App = app
			examples = append(examples, features.Example{X: features.Extract(w), Y: app})
		}
	}
	scaler := features.FitScaler(examples)
	scaled := scaler.ApplyAll(examples)
	trainer := &ml.SVMTrainer{Epochs: 2}
	scratch := ml.NewSVMScratch()
	if _, err := trainer.TrainScratch(scratch, scaled, 1); err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)

	mlpTrainer := &ml.MLPTrainer{Epochs: 2}
	mlpScratch := ml.NewMLPScratch()
	mlpModel, err := mlpTrainer.TrainScratch(mlpScratch, scaled, 1)
	if err != nil {
		t.Fatal(err)
	}
	mlpSeed := uint64(1)

	return []struct {
		name string
		f    func()
	}{
		{"ml.svm.TrainScratch/reused", func() {
			seed++
			if _, err := trainer.TrainScratch(scratch, scaled, seed); err != nil {
				t.Fatal(err)
			}
		}},
		{"ml.mlp.TrainScratch/reused", func() {
			mlpSeed++
			if _, err := mlpTrainer.TrainScratch(mlpScratch, scaled, mlpSeed); err != nil {
				t.Fatal(err)
			}
		}},
		{"ml.mlp.Predict", func() {
			_ = mlpModel.Predict(scaled[0].X)
		}},
		{"defense.Morpher.AppendApply/reused", func() {
			dst.Packets = dst.Packets[:0]
			_ = morpher.AppendApply(dst, src)
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
// system is healthy. The synchronous path is pinned too: a warmed
// one-shard engine answering Source.Assign round trips allocates
// nothing on either side of the shard queue.
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

	flow := appgen.Generate(trace.Downloading, 10*time.Second, 510)
	addr := mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, 0x01}
	for j := range flow.Packets {
		flow.Packets[j].MAC = addr
	}
	ea := stream.New(stream.Config{
		W: 250 * time.Millisecond, RingCap: 512, Seed: 3,
		Shards: 1, EscalateAfter: 1 << 30,
	})
	t.Cleanup(func() { ea.Drain() })
	src := ea.Source(addr)
	cyca := newCycle(flow)
	for i := 0; i < len(flow.Packets)+5000; i++ {
		src.Assign(cyca.next())
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
		{"stream.Source.Assign/sharded", func() {
			for i := 0; i < 200; i++ {
				src.Assign(cyca.next())
			}
		}},
	}
}
