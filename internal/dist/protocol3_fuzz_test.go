package dist

// Fuzz coverage dedicated to the v3 binary payload decoders. The
// framed fuzzer (FuzzReadMessage) reaches these through the outer
// kind|length framing; this one feeds the raw payloads directly, so
// every mutation lands inside the binary layouts instead of mostly
// dying on the frame header. Invariants: no panic, no unbounded
// allocation (the count fields are validated before any make), and
// every accepted payload survives decode → encode → decode unchanged.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

func FuzzReadBinaryMessage(f *testing.F) {
	seed := func(enc func(b *bytes.Buffer) error) {
		var b bytes.Buffer
		if err := enc(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes()[5:]) // strip kind + length: fuzz the payload
	}
	seed(func(b *bytes.Buffer) error {
		ref := experiments.TraceSetRef{Train: []string{digest64("aa"), ""}, Test: []string{digest64("bb")}}
		return EncodeCellBatch(b, []CellRequest{
			{ID: 1, Cfg: experiments.Config{Seed: 9, TrainDuration: time.Minute, W: time.Second}, Scheme: "Original", App: trace.Browsing},
			{ID: 2, Scheme: "OR+morph", App: trace.Video, Traces: &ref},
		})
	})
	seed(func(b *bytes.Buffer) error {
		var conf ml.Confusion
		conf[2][3] = 17
		return EncodeResultBatch(b, []CellResult{
			{ID: 1, Families: []ml.Confusion{conf}},
			{ID: 2, Err: "boom"},
			{ID: 3, Families: []ml.Confusion{conf, {}}, Cached: true},
		})
	})
	seed(func(b *bytes.Buffer) error {
		tr := trace.New(1)
		tr.Append(trace.Packet{Time: time.Second, Size: 40, Dir: trace.Downlink, App: trace.Downloading})
		return EncodeTraceCompressed(b, TracePayload{App: trace.Downloading, Trace: tr})
	})
	f.Add([]byte{batchVersion, byte(trace.NumApps), 0xff, 0xff}) // absurd count
	f.Add([]byte{batchVersion + 9, 0, 1, 0})                     // wrong version
	f.Add([]byte{})                                              // empty
	f.Add(badAppBatch(f))                                        // app out of range

	f.Fuzz(func(t *testing.T, payload []byte) {
		if reqs, err := decodeCellBatch(payload); err == nil {
			var b bytes.Buffer
			if err := EncodeCellBatch(&b, reqs); err != nil {
				t.Fatalf("re-encode of accepted cell batch failed: %v", err)
			}
			back, err := decodeCellBatch(b.Bytes()[5:])
			if err != nil {
				t.Fatalf("decode of own cell-batch encoding failed: %v", err)
			}
			if !reflect.DeepEqual(reqs, back) {
				t.Fatalf("cell batch changed in round trip:\nfirst  %+v\nsecond %+v", reqs, back)
			}
		}
		if results, err := decodeResultBatch(payload); err == nil {
			var b bytes.Buffer
			if err := EncodeResultBatch(&b, results); err != nil {
				t.Fatalf("re-encode of accepted result batch failed: %v", err)
			}
			back, err := decodeResultBatch(b.Bytes()[5:])
			if err != nil {
				t.Fatalf("decode of own result-batch encoding failed: %v", err)
			}
			if !reflect.DeepEqual(results, back) {
				t.Fatalf("result batch changed in round trip:\nfirst  %+v\nsecond %+v", results, back)
			}
		}
		if p, err := decodeTraceZ(payload); err == nil {
			var b bytes.Buffer
			if err := EncodeTraceCompressed(&b, p); err != nil {
				t.Fatalf("re-encode of accepted trace-z failed: %v", err)
			}
			back, err := decodeTraceZ(b.Bytes()[5:])
			if err != nil {
				t.Fatalf("decode of own trace-z encoding failed: %v", err)
			}
			if back.App != p.App || trace.Digest(back.Trace) != trace.Digest(p.Trace) {
				t.Fatalf("trace-z changed in round trip")
			}
		}
	})
}
