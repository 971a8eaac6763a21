package main

// The daemon workloads: the streaming engine with reshaped's defaults,
// fed a multi-flow capture in laps, inline (the closed-loop decision
// path) and sharded with periodic checkpoints (handoff, queues and
// checkpoint barriers).

import (
	"fmt"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stream"
	"trafficreshape/internal/trace"
)

const (
	captureFlowsPerApp = 8
	captureDuration    = 60 * time.Second
	// sessionPackets is one measured group: a fresh engine fed this many
	// packets (about four laps of the capture), then drained.
	sessionPackets = 2_000_000
	smokePackets   = 50_000
	// checkpointEvery is the sharded daemon's snapshot interval, in
	// offered packets.
	checkpointEvery = 50_000
	daemonWindow    = 5 * time.Second
	// decisionSampleEvery: the untraced phase times one Ingest call in
	// this many. Two clock reads cost about as much as a packet, so
	// timing every call would halve the throughput it is measured beside.
	// One in 64 cost about 1 % in six alternating pairs on a 2-vCPU VM,
	// and a 15 s run's 30 M or more packets still leave over 40 samples
	// beyond the p99.99. The stride is a prime: the sharded engine hands
	// a batch to a shard on every 256th call, and a stride of 64 timed
	// every fourth handoff, which put handoffs at the p99.
	decisionSampleEvery = 61
)

// generator is appgen.Generate, or a replay of it inside a span.
type generator func(app trace.App, d time.Duration, seed uint64) *trace.Trace

// buildCapture makes the daemon's input from seed: every application
// as captureFlowsPerApp flows of captureDuration, each under its own
// locally administered address, merged into one arrival-ordered stream.
func buildCapture(seed uint64, gen generator) *trace.Trace {
	flows := make([]*trace.Trace, 0, trace.NumApps*captureFlowsPerApp)
	for i, app := range trace.Apps {
		for f := 0; f < captureFlowsPerApp; f++ {
			tr := gen(app, captureDuration, seed<<8|uint64(i*captureFlowsPerApp+f))
			addr := mac.Address{0x02, 0x00, 0x5e, 0x00, byte(f), byte(i + 1)}
			for j := range tr.Packets {
				tr.Packets[j].MAC = addr
			}
			flows = append(flows, tr)
		}
	}
	return trace.Merge(flows...)
}

// auditTraining is the self-audit's training traffic: one minute of
// each application, with seeds taken from seed.
func auditTraining(seed uint64, gen generator) map[trace.App]*trace.Trace {
	training := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		training[app] = gen(app, captureDuration, seed<<8|0x80|uint64(i))
	}
	return training
}

// trainAudit trains the self-audit classifier as reshaped does: a kNN
// with an explicit trainer, so training is deterministic.
func trainAudit(training map[trace.App]*trace.Trace) (*attack.Classifier, error) {
	return attack.Train(training, attack.TrainOptions{W: daemonWindow, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7})
}

// daemonConfig is reshaped's default configuration.
func daemonConfig(seed uint64, shards int, cls *attack.Classifier) stream.Config {
	return stream.Config{
		W:             daemonWindow,
		RingCap:       4096,
		Period:        500,
		EscalateAfter: 2,
		Seed:          seed,
		Shards:        shards,
		DegradeAudit:  true,
		Classifier:    cls,
	}
}

// countWriter counts checkpoint bytes and drops them.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// sessionOpts instrument one session; the zero value is untraced.
type sessionOpts struct {
	ckptEvery int
	hist      *histogram // Ingest latency of every timeEvery-th call
	timeEvery int
	tr        *tracer
	req       int // session index, the Drain span's request id
	ckpt      *countWriter
}

// session runs a fresh engine over n packets of the capture, replayed
// in laps with a monotone time offset so per-flow time never runs
// backwards, then drains it.
func session(cfg stream.Config, capture *trace.Trace, n int, o sessionOpts) (*stream.Report, error) {
	e := stream.New(cfg)
	pk := capture.Packets
	span := capture.Duration() + time.Second
	var base time.Duration
	var ckptErr error
	w := o.ckpt
	if w == nil {
		w = &countWriter{}
	}
	for k, j := 1, 0; k <= n; k++ {
		p := pk[j]
		p.Time += base
		if j++; j == len(pk) {
			j, base = 0, base+span
		}
		if o.hist != nil && k%o.timeEvery == 0 {
			t0 := time.Now()
			e.Ingest(p)
			o.hist.record(int64(time.Since(t0)))
		} else {
			e.Ingest(p)
		}
		if o.ckptEvery > 0 && k%o.ckptEvery == 0 && ckptErr == nil {
			if o.tr != nil {
				id := o.tr.begin("stream.Checkpoint", -1, k/o.ckptEvery)
				ckptErr = e.Checkpoint(w)
				o.tr.end(id)
			} else {
				ckptErr = e.Checkpoint(w)
			}
		}
	}
	var rep *stream.Report
	if o.tr != nil {
		o.tr.do("stream.Drain", -1, o.req, func(int) { rep = e.Drain() })
	} else {
		rep = e.Drain()
	}
	if ckptErr != nil {
		return rep, fmt.Errorf("checkpoint: %w", ckptErr)
	}
	return rep, nil
}

func daemonInline(r *run) error { return daemon(r, 0, 0) }

func daemonSharded(r *run) error {
	shards := r.nproc - 1
	if shards < 1 {
		shards = 1
	}
	return daemon(r, shards, checkpointEvery)
}

func daemon(r *run, shards, ckptEvery int) error {
	plainGen := generator(appgen.Generate)
	n := sessionPackets
	if r.smoke {
		n = smokePackets
	}
	var capture *trace.Trace
	var cls *attack.Classifier
	if err := r.setup(func(int) error {
		capture = buildCapture(r.seed, plainGen)
		var err error
		if cls, err = trainAudit(auditTraining(r.seed, plainGen)); err != nil {
			return err
		}
		_, err = session(daemonConfig(r.seed, shards, cls), capture, min(capture.Len(), n), sessionOpts{ckptEvery: ckptEvery}) // warm-up lap
		return err
	}); err != nil {
		return err
	}

	cfg := daemonConfig(r.seed, shards, cls)
	var sampled, hist histogram
	ckpt := &countWriter{}
	var want *stream.Report
	op := func(i int, traced bool) (float64, func()) {
		o := sessionOpts{ckptEvery: ckptEvery, hist: &sampled, timeEvery: decisionSampleEvery}
		if traced {
			o = sessionOpts{ckptEvery: ckptEvery, hist: &hist, timeEvery: 1, tr: r.tr, req: i, ckpt: ckpt}
		}
		rep, err := session(cfg, capture, n, o)
		return float64(n), func() { checkSession(r, i, n, rep, err, want, traced) }
	}
	r.measurePlain(func(i int) (float64, func()) { return op(i, false) })
	r.decisionUS = map[string]float64{
		"samples": float64(sampled.n),
		"p50":     sampled.quantile(0.5) / 1e3,
		"p99":     sampled.quantile(0.99) / 1e3,
		"p999":    sampled.quantile(0.999) / 1e3,
		"p9999":   sampled.quantile(0.9999) / 1e3,
	}

	// The reference is an inline replay of the same packets on a fresh
	// engine: the engine's reports are identical at every shard count.
	refCapture, refCls := capture, cls
	if r.refSkew != 0 {
		refCapture = buildCapture(r.refSeed(r.seed), plainGen)
		var err error
		if refCls, err = trainAudit(auditTraining(r.refSeed(r.seed), plainGen)); err != nil {
			return err
		}
	}
	want, err := session(daemonConfig(r.refSeed(r.seed), 0, refCls), refCapture, n, sessionOpts{})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.runChecks()
	if !r.traced {
		return nil
	}
	r.measureTraced(func(i int) (float64, func()) { return op(i, true) })
	r.runChecks()

	// Decomposition: the input build and the two layers the per-packet
	// path calls into, each replayed over the capture.
	spanGen := func(app trace.App, d time.Duration, seed uint64) *trace.Trace {
		var tr *trace.Trace
		r.tr.do("appgen.Generate", -1, int(app), func(int) { tr = appgen.Generate(app, d, seed) })
		r.counts["appgen.packets"] += float64(tr.Len())
		return tr
	}
	buildCapture(r.seed, spanGen)
	training := auditTraining(r.seed, spanGen)
	r.tr.do("attack.Train.knn", -1, 0, func(int) { _, err = trainAudit(training) })
	if err != nil {
		return err
	}
	for _, tr := range training {
		r.counts["attack.train_examples"] += float64(len(features.AppendWindowsOf(nil, tr, daemonWindow, false)))
	}
	r.counts["input_builds"]++
	replayFlows(r, capture, cls)

	tot := r.tr.totals()
	buildLayers(r, tot)
	c := r.counts
	mpkts := c["stream.packets"] / 1e6
	for _, k := range []string{"windows", "classified", "leaked", "escalations"} {
		r.layer["stream."+k+"_per_mpkt"] = ratio(c["stream."+k], mpkts)
	}
	for _, k := range []string{"shed", "stalled", "lost", "restarts"} {
		r.layer["stream."+k] = c["stream."+k]
	}
	r.layer["stream.ingest_ns_mean"] = hist.mean()
	r.layer["stream.decision_us_p50"] = hist.quantile(0.5) / 1e3
	r.layer["stream.decision_us_p99"] = hist.quantile(0.99) / 1e3
	r.layer["stream.decision_us_p999"] = hist.quantile(0.999) / 1e3
	r.layer["stream.decision_us_p9999"] = hist.quantile(0.9999) / 1e3
	r.layer["stream.checkpoint_ms"] = meanSpan(tot, "stream.Checkpoint", time.Millisecond)
	if lt := tot["stream.Checkpoint"]; lt != nil {
		r.layer["stream.checkpoint_bytes"] = ratio(float64(ckpt.n), float64(lt.count))
	}
	r.layer["stream.drain_ms"] = meanSpan(tot, "stream.Drain", time.Millisecond)
	r.layer["reshape.adaptive_assign_ns"] = ratio(float64(spanTotal(tot, "reshape.Adaptive.Assign")), c["assign.packets"])
	r.layer["attack.classify_us"] = ratio(float64(spanTotal(tot, "attack.Classify"))/1e3, c["classify.windows"])
	return nil
}

// checkSession applies the daemon's output checks to one session: the
// conservation law offered = packets + shed + stalled + lost, every
// offered packet processed, and the report digest equal to the inline
// reference replay's.
func checkSession(r *run, i, n int, rep *stream.Report, err error, want *stream.Report, traced bool) {
	switch {
	case err != nil:
		r.fail(int64(n), "session %d: %v", i, err)
		return
	case rep.Offered != rep.Packets+rep.Shed+rep.Stalled+rep.Lost:
		r.fail(int64(n), "session %d: offered %d != packets %d + shed %d + stalled %d + lost %d",
			i, rep.Offered, rep.Packets, rep.Shed, rep.Stalled, rep.Lost)
	case rep.Offered != int64(n) || rep.Packets != int64(n):
		r.fail(int64(n)-rep.Packets, "session %d: %d of %d packets processed", i, rep.Packets, n)
	case rep.Digest != want.Digest:
		r.fail(int64(n), "session %d: report digest %016x, inline reference %016x", i, rep.Digest, want.Digest)
	}
	if traced {
		c := r.counts
		c["stream.packets"] += float64(rep.Packets)
		c["stream.windows"] += float64(rep.Windows)
		c["stream.classified"] += float64(rep.Classified)
		c["stream.leaked"] += float64(rep.Leaked)
		c["stream.escalations"] += float64(rep.Escalations)
		c["stream.shed"] += float64(rep.Shed)
		c["stream.stalled"] += float64(rep.Stalled)
		c["stream.lost"] += float64(rep.Lost)
		c["stream.restarts"] += float64(rep.Restarts)
	}
}

// replayFlows times the per-packet path's layers over each flow of the
// capture: the adaptive scheduler's Assign on every packet, and the
// audit classifier on every qualifying window.
func replayFlows(r *run, capture *trace.Trace, cls *attack.Classifier) {
	i := 0
	for _, flow := range capture.ByMAC() {
		a := reshape.NewAdaptive(3, 500)
		r.tr.do("reshape.Adaptive.Assign", -1, i, func(int) {
			for _, p := range flow.Packets {
				a.Assign(p)
			}
		})
		r.counts["assign.packets"] += float64(flow.Len())
		wins := features.AppendWindowsOf(nil, flow, daemonWindow, false)
		r.tr.do("attack.Classify", -1, i, func(int) {
			for _, w := range wins {
				cls.Classify(w)
			}
		})
		r.counts["classify.windows"] += float64(len(wins))
		i++
	}
}
