package stream

import (
	"bytes"
	"math"
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/features"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/vmac"
)

// flowMAC mints the locally-administered per-flow address the daemon
// assigns: deterministic, never colliding with pool draws (which are
// random 48-bit values).
func flowMAC(i int) mac.Address {
	return mac.Address{0x02, 0x00, 0x5e, 0x00, 0x00, byte(i + 1)}
}

// ingestTrace feeds every packet of a trace to e in order.
func ingestTrace(e *Engine, tr *trace.Trace) {
	for _, p := range tr.Packets {
		e.Ingest(p)
	}
}

// capture builds a multi-flow input: one flow per application, each
// under its own address, merged into arrival order.
func capture(t testing.TB, dur time.Duration, seed uint64) *trace.Trace {
	t.Helper()
	flows := make([]*trace.Trace, 0, trace.NumApps)
	for i, app := range trace.Apps {
		tr := appgen.Generate(app, dur, seed+uint64(i))
		for j := range tr.Packets {
			tr.Packets[j].MAC = flowMAC(i)
		}
		flows = append(flows, tr)
	}
	return trace.Merge(flows...)
}

// auditClassifier trains the deterministic self-audit kNN the daemon
// uses: explicit trainer, no holdout.
func auditClassifier(t testing.TB, w time.Duration) *attack.Classifier {
	t.Helper()
	training := make(map[trace.App]*trace.Trace, trace.NumApps)
	for i, app := range trace.Apps {
		training[app] = appgen.Generate(app, 60*time.Second, 9000+uint64(i))
	}
	c, err := attack.Train(training, attack.TrainOptions{W: w, Trainer: &ml.KNNTrainer{K: 5}, Seed: 7})
	if err != nil {
		t.Fatalf("train audit classifier: %v", err)
	}
	return c
}

func renderReport(t testing.TB, r *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatalf("render report: %v", err)
	}
	return buf.Bytes()
}

// TestReplayEquivalenceAcrossShards is the engine's core contract:
// the same input yields a byte-identical report inline and sharded
// over 1, 4 and 8 goroutines.
func TestReplayEquivalenceAcrossShards(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	in := capture(t, 30*time.Second, 42)
	run := func(shards int) []byte {
		e := New(Config{Seed: 11, Shards: shards, Classifier: cls})
		ingestTrace(e, in)
		return renderReport(t, e.Drain())
	}
	ref := run(0)
	for _, shards := range []int{1, 4, 8} {
		if got := run(shards); !bytes.Equal(got, ref) {
			t.Errorf("shards=%d report diverges from inline:\n--- inline ---\n%s--- shards=%d ---\n%s",
				shards, ref, shards, got)
		}
	}
}

// TestReplayRepeatable: two runs of the identical configuration are
// byte-identical (no hidden global state, map-order, or time
// dependence).
func TestReplayRepeatable(t *testing.T) {
	cls := auditClassifier(t, 5*time.Second)
	in := capture(t, 20*time.Second, 43)
	run := func() []byte {
		e := New(Config{Seed: 3, Shards: 4, Classifier: cls})
		ingestTrace(e, in)
		return renderReport(t, e.Drain())
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("same configuration produced different reports across runs")
	}
}

// TestStreamMatchesBatchWindowing pins the incremental window cutter
// to the batch one: without escalation in play (no classifier), each
// flow's window count must equal trace.AppendWindows(minPackets=1)
// and its classified count the features.AppendWindowsOf qualifying
// count.
func TestStreamMatchesBatchWindowing(t *testing.T) {
	const w = 5 * time.Second
	cls := auditClassifier(t, w)
	in := capture(t, 30*time.Second, 44)

	e := New(Config{W: w, Seed: 11, Classifier: cls, RingCap: 1 << 14,
		// One interface and an enormous escalation threshold: the
		// audit still classifies every qualifying window, but cannot
		// change per-flow behavior mid-run.
		Interfaces: 1, EscalateAfter: 1 << 30})
	ingestTrace(e, in)
	rep := e.Drain()

	perFlow := flowsByMAC(in)
	if len(rep.Flows) != len(perFlow) {
		t.Fatalf("report has %d flows, capture has %d", len(rep.Flows), len(perFlow))
	}
	for _, fr := range rep.Flows {
		tr := perFlow[fr.MAC]
		if tr == nil {
			t.Fatalf("report flow %s not in capture", fr.MAC)
		}
		batchWindows := tr.AppendWindows(nil, w, 1, false)
		if int64(len(batchWindows)) != fr.Windows {
			t.Errorf("flow %s: stream windows=%d, batch windows=%d", fr.MAC, fr.Windows, len(batchWindows))
		}
		qualifying := features.AppendWindowsOf(nil, tr, w, false)
		if int64(len(qualifying)) != fr.Classified {
			t.Errorf("flow %s: stream classified=%d, batch qualifying=%d", fr.MAC, fr.Classified, len(qualifying))
		}
	}
}

// flowsByMAC splits a capture into its per-MAC flows, keyed by the
// address's colon form, as the report names them.
func flowsByMAC(in *trace.Trace) map[string]*trace.Trace {
	out := make(map[string]*trace.Trace)
	for addr, tr := range in.ByMAC() {
		out[addr.String()] = tr
	}
	return out
}

// TestStreamPredictionsMatchBatch: with one interface the stream's
// window contents are the flow's raw packets, so its per-window
// predictions must equal classifying the batch-cut windows.
func TestStreamPredictionsMatchBatch(t *testing.T) {
	const w = 5 * time.Second
	cls := auditClassifier(t, w)
	in := capture(t, 30*time.Second, 45)

	e := New(Config{W: w, Seed: 11, Classifier: cls, RingCap: 1 << 14, Interfaces: 1, EscalateAfter: 1 << 30})
	ingestTrace(e, in)
	rep := e.Drain()

	perFlow := flowsByMAC(in)
	for _, fr := range rep.Flows {
		var batchHist [trace.NumApps]int64
		for _, win := range features.AppendWindowsOf(nil, perFlow[fr.MAC], w, false) {
			batchHist[cls.Classify(win)]++
		}
		if fr.Pred != batchHist {
			t.Errorf("flow %s: stream predictions %v != batch %v", fr.MAC, fr.Pred, batchHist)
		}
	}
}

// TestStreamSchedulesLikeBatchAdaptive: the daemon reshapes like the
// batch engine. At reshaped's defaults (-synth capture, seed 11, three
// interfaces, period 500, the self-audit on) with escalation off, each
// flow's sequence of inline Ingest return values equals
// reshape.NewAdaptive(3, 500).Assign run over that flow's packets.
func TestStreamSchedulesLikeBatchAdaptive(t *testing.T) {
	const w = 5 * time.Second
	in := capture(t, 30*time.Second, 42)
	e := New(Config{W: w, Seed: 11, Interfaces: 3, Period: 500,
		Classifier: auditClassifier(t, w), EscalateAfter: 1 << 30})
	got := make(map[mac.Address][]int)
	for _, p := range in.Packets {
		got[p.MAC] = append(got[p.MAC], e.Ingest(p))
	}
	for addr, tr := range in.ByMAC() {
		sched := reshape.NewAdaptive(3, 500)
		stream := got[addr]
		if len(stream) != len(tr.Packets) {
			t.Fatalf("flow %s: %d stream decisions for %d packets", addr, len(stream), len(tr.Packets))
		}
		for i, p := range tr.Packets {
			if want := sched.Assign(p); stream[i] != want {
				t.Errorf("flow %s: packet %d of %d went to interface %d, batch adaptive says %d",
					addr, i, len(tr.Packets), stream[i], want)
				break
			}
		}
	}
}

// TestEscalationOnPersistentLeak: a pure bulk download reshaped over
// few interfaces keeps its sub-flows classifiable (Table II's row),
// so the self-audit must detect the leak and escalate — raising the
// interface count and re-granting vMACs under the engine's AP.
func TestEscalationOnPersistentLeak(t *testing.T) {
	const w = 5 * time.Second
	cls := auditClassifier(t, w)
	tr := appgen.Generate(trace.Downloading, 60*time.Second, 46)
	for j := range tr.Packets {
		tr.Packets[j].MAC = flowMAC(0)
	}
	e := New(Config{W: w, Seed: 5, Classifier: cls, Interfaces: 2, EscalateAfter: 2})
	ingestTrace(e, tr)
	rep := e.Drain()
	if len(rep.Flows) != 1 {
		t.Fatalf("expected 1 flow, got %d", len(rep.Flows))
	}
	f := rep.Flows[0]
	if f.Leaked == 0 {
		t.Fatal("bulk download never flagged as leaked — the self-audit premise failed")
	}
	if f.Escalations == 0 {
		t.Fatal("persistent leak did not escalate")
	}
	if f.Interfaces <= 2 {
		t.Errorf("interfaces = %d after escalation, want > 2", f.Interfaces)
	}
	if f.Granted != f.Interfaces {
		t.Errorf("granted %d vMACs for %d interfaces", f.Granted, f.Interfaces)
	}
	if rep.Outstanding != f.Granted {
		t.Errorf("AP outstanding=%d, flow granted=%d", rep.Outstanding, f.Granted)
	}
	if f.VmacErrors != 0 {
		t.Errorf("vmac errors: %d", f.VmacErrors)
	}
}

// TestStingyAPCapsInterfaces: when the AP policy grants fewer
// interfaces than requested, the engine schedules only onto granted
// addresses.
func TestStingyAPCapsInterfaces(t *testing.T) {
	ap := vmac.NewAP(vmac.APConfig{MaxPerClient: 2, Seed: 1})
	tr := appgen.Generate(trace.Browsing, 10*time.Second, 47)
	for j := range tr.Packets {
		tr.Packets[j].MAC = flowMAC(0)
	}
	e := New(Config{Seed: 5, Interfaces: 5})
	e.ap = ap // inline engine: nothing has asked the AP for a grant yet
	ingestTrace(e, tr)
	rep := e.Drain()
	if f := rep.Flows[0]; f.Interfaces != 2 || f.Granted != 2 {
		t.Errorf("ifaces=%d granted=%d under MaxPerClient=2, want 2/2", f.Interfaces, f.Granted)
	}
}

// TestFarFutureTimestamp: a packet at the largest timestamp closes
// the flow's open window and opens one of its own, without the window
// boundary overflowing.
func TestFarFutureTimestamp(t *testing.T) {
	e := New(Config{W: 5 * time.Second, Seed: 1})
	addr := flowMAC(0)
	e.Ingest(trace.Packet{Time: 0, Size: 100, MAC: addr})
	e.Ingest(trace.Packet{Time: math.MaxInt64, Size: 100, MAC: addr})
	rep := e.Drain()
	if f := rep.Flows[0]; f.Windows != 2 || f.Packets != 2 {
		t.Errorf("windows=%d packets=%d around a far-future packet, want 2/2", f.Windows, f.Packets)
	}
}

// TestIdleGapJumps: a flow that goes silent for a very long time must
// not make the engine walk every empty window boundary one by one.
// With a naive loop this test would spin for ~1.8e9 iterations.
func TestIdleGapJumps(t *testing.T) {
	e := New(Config{W: time.Millisecond, Seed: 1})
	addr := flowMAC(0)
	e.Ingest(trace.Packet{Time: 0, Size: 100, MAC: addr})
	e.Ingest(trace.Packet{Time: 20 * 24 * time.Hour, Size: 100, MAC: addr})
	e.Ingest(trace.Packet{Time: 20*24*time.Hour + time.Microsecond, Size: 100, MAC: addr})
	rep := e.Drain()
	if f := rep.Flows[0]; f.Windows != 2 || f.Packets != 3 {
		t.Errorf("windows=%d packets=%d across idle gap, want 2/3", f.Windows, f.Packets)
	}
}

// TestRingEvictionBoundsMemory: a window with more packets than
// RingCap keeps only the newest RingCap, and says so in the report.
func TestRingEvictionBoundsMemory(t *testing.T) {
	e := New(Config{W: time.Hour, RingCap: 8, Seed: 1})
	addr := flowMAC(0)
	for i := 0; i < 100; i++ {
		e.Ingest(trace.Packet{Time: time.Duration(i) * time.Millisecond, Size: 100, MAC: addr})
	}
	rep := e.Drain()
	if f := rep.Flows[0]; f.Evicted != 92 || f.Packets != 100 {
		t.Errorf("evicted=%d packets=%d with RingCap=8, want 92/100", f.Evicted, f.Packets)
	}
}

// TestIngestSteadyStateAllocFree gates the tentpole's hot-path
// promise: after flows exist, ingesting packets — including window
// closes and self-audit classification — performs zero heap
// allocations per packet.
func TestIngestSteadyStateAllocFree(t *testing.T) {
	const w = 250 * time.Millisecond // frequent window closes
	cls := auditClassifier(t, w)
	in := capture(t, 30*time.Second, 49)
	e := New(Config{W: w, Seed: 11, Classifier: cls, RingCap: 512, EscalateAfter: 1 << 30})
	// Warm: create every flow, cross several windows and epochs.
	warm := in.Packets[:len(in.Packets)/2]
	rest := in.Packets[len(in.Packets)/2:]
	for _, p := range warm {
		e.Ingest(p)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		for j := 0; j < 200; j++ {
			e.Ingest(rest[i%len(rest)])
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ingest allocates %.2f per 200 packets, want 0", allocs)
	}
}
