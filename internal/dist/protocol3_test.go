package dist

// Round-trip and bounds coverage for the v3 binary payload codec:
// everything the encoder accepts must decode back equal, and the
// decoder must reject corrupt counts, versions, and truncations before
// allocating for them.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

func TestCellBatchRoundTrip(t *testing.T) {
	ref := experiments.TraceSetRef{
		Train: []string{digest64("1a"), "", digest64("2b")},
		Test:  []string{digest64("3c")},
	}
	reqs := []CellRequest{
		{
			ID:     7,
			Cfg:    experiments.Config{Seed: 42, TrainDuration: time.Minute, TestDuration: time.Second, W: 5 * time.Second},
			Scheme: "OR modulo i=size%3",
			App:    trace.Video,
		},
		{ID: 8, Scheme: "OR+morph", App: trace.Gaming, Traces: &ref},
		{ID: 9, Scheme: "Original", App: trace.Chatting, Traces: &experiments.TraceSetRef{}},
	}
	var b bytes.Buffer
	if err := EncodeCellBatch(&b, reqs); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg.Batch, reqs) {
		t.Fatalf("cell batch changed in round trip:\nsent %+v\ngot  %+v", reqs, msg.Batch)
	}
}

func TestResultBatchRoundTrip(t *testing.T) {
	var conf ml.Confusion
	conf[0][1] = 3
	conf[trace.NumApps-1][trace.NumApps-1] = 1 << 20
	results := []CellResult{
		{ID: 1, Families: []ml.Confusion{conf}},
		{ID: 2, Err: "store miss: deadbeef"},
		{ID: 3, Families: []ml.Confusion{conf, {}, conf}, Cached: true},
	}
	var b bytes.Buffer
	if err := EncodeResultBatch(&b, results); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg.Results, results) {
		t.Fatalf("result batch changed in round trip:\nsent %+v\ngot  %+v", results, msg.Results)
	}
}

func TestTraceCompressedRoundTrip(t *testing.T) {
	tr := trace.New(int(trace.Gaming))
	for i := 0; i < 2000; i++ {
		tr.Append(trace.Packet{
			Time: time.Duration(i) * time.Millisecond,
			Size: 100 + i%7,
			Dir:  trace.Uplink,
			App:  trace.Gaming,
		})
	}
	var z, plain bytes.Buffer
	if err := EncodeTraceCompressed(&z, TracePayload{App: trace.Gaming, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&plain, tr); err != nil {
		t.Fatal(err)
	}
	if z.Len() >= plain.Len() {
		t.Errorf("compressed preload frame (%d bytes) not smaller than the plain trace codec (%d bytes)", z.Len(), plain.Len())
	}
	msg, err := ReadMessage(&z)
	if err != nil {
		t.Fatal(err)
	}
	if msg.TraceZ == nil {
		t.Fatalf("decoded message carries no trace-z: %+v", msg)
	}
	if msg.TraceZ.App != trace.Gaming {
		t.Errorf("app label = %v, want %v", msg.TraceZ.App, trace.Gaming)
	}
	if got, want := trace.Digest(msg.TraceZ.Trace), trace.Digest(tr); got != want {
		t.Errorf("trace content changed in compressed round trip: %s vs %s", got, want)
	}
}

func TestEncodeCellBatchRejects(t *testing.T) {
	var b bytes.Buffer
	if err := EncodeCellBatch(&b, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := EncodeCellBatch(&b, make([]CellRequest, maxBatchCells+1)); err == nil {
		t.Error("oversized batch accepted")
	}
	long := make([]byte, maxSchemeName+1)
	if err := EncodeCellBatch(&b, []CellRequest{{Scheme: string(long)}}); err == nil {
		t.Error("oversized scheme name accepted")
	}
	bad := experiments.TraceSetRef{Train: []string{"not hex"}}
	if err := EncodeCellBatch(&b, []CellRequest{{Scheme: "x", Traces: &bad}}); err == nil {
		t.Error("malformed ref digest accepted")
	}
	if err := EncodeCellBatch(&b, []CellRequest{{Scheme: "x", App: trace.App(trace.NumApps)}}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-range app: err = %v, want ErrBadFrame", err)
	}
}

// corruptBatch encodes a one-cell batch and returns its raw payload
// (framing stripped) for byte-level tampering.
func corruptBatch(t testing.TB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := EncodeCellBatch(&b, []CellRequest{{ID: 1, Scheme: "Original", App: trace.Browsing}}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()[5:] // kind(1) + length(4)
}

func TestDecodeCellBatchRejectsCorruption(t *testing.T) {
	good := corruptBatch(t)
	cases := map[string][]byte{
		"bad version":    append([]byte{batchVersion + 1}, good[1:]...),
		"bad dimension":  append([]byte{good[0], byte(trace.NumApps + 1)}, good[2:]...),
		"zero count":     append([]byte{good[0], good[1], 0, 0}, good[4:]...),
		"absurd count":   append([]byte{good[0], good[1], 0xff, 0xff}, good[4:]...),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xAB),
		"empty":          {},
	}
	for name, payload := range cases {
		if _, err := decodeCellBatch(payload); err == nil {
			t.Errorf("%s: corrupt cell batch accepted", name)
		}
	}
	if _, err := decodeCellBatch(good); err != nil {
		t.Fatalf("control: intact payload rejected: %v", err)
	}
}

// appOffset locates corruptBatch's app byte: after the 4-byte batch
// header, five u64 fields and the u16-prefixed scheme name "Original".
const appOffset = 4 + 5*8 + 2 + len("Original")

// badAppBatch is corruptBatch with the cell's app byte set to
// trace.NumApps.
func badAppBatch(t testing.TB) []byte {
	payload := corruptBatch(t)
	payload[appOffset] = byte(trace.NumApps)
	return payload
}

// TestReadMessageRefusesOutOfRangeApp: a worker evaluating a cell whose
// app lies outside the application table dies on a nil dereference, so
// the frame decoder must refuse the batch instead.
func TestReadMessageRefusesOutOfRangeApp(t *testing.T) {
	payload := badAppBatch(t)
	var b bytes.Buffer
	if err := writeFrame(&b, kindCellBatch, payload); err != nil {
		t.Fatal(err)
	}
	if msg, err := ReadMessage(&b); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ReadMessage = %+v, %v; want ErrBadFrame", msg, err)
	}
	payload[appOffset] = byte(trace.NumApps - 1)
	if _, err := decodeCellBatch(payload); err != nil {
		t.Fatalf("control: the last valid app is refused: %v", err)
	}
}

func TestDecodeResultBatchRejectsCorruption(t *testing.T) {
	var b bytes.Buffer
	if err := EncodeResultBatch(&b, []CellResult{{ID: 1, Families: []ml.Confusion{{}}}}); err != nil {
		t.Fatal(err)
	}
	good := b.Bytes()[5:]
	cases := map[string][]byte{
		"bad version":    append([]byte{batchVersion + 1}, good[1:]...),
		"truncated":      good[:len(good)-2],
		"trailing bytes": append(append([]byte{}, good...), 0x01),
	}
	for name, payload := range cases {
		if _, err := decodeResultBatch(payload); err == nil {
			t.Errorf("%s: corrupt result batch accepted", name)
		}
	}
	if _, err := decodeResultBatch(good); err != nil {
		t.Fatalf("control: intact payload rejected: %v", err)
	}
}
