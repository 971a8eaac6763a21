package dist

// Golden pins for every dist encoding: the fuzz targets only prove
// decode → encode → decode is stable, so these hold the bytes
// themselves fixed across codec refactors.

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenJournalImage(t *testing.T) {
	img := journalHeader()
	for i := 0; i < 2; i++ {
		key, err := journalKey(journalReq(i))
		if err != nil {
			t.Fatal(err)
		}
		if img, err = appendJournalRecord(img, key, journalFams(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sha256Hex(img), "56697b3cdf53a6f681a18cc575dce1dea1ef92ebe10a8b9a270bc8e6f85c2073"; got != want {
		t.Errorf("journal image sha256 = %s, want %s", got, want)
	}
}

func TestGoldenFrames(t *testing.T) {
	ref := experiments.TraceSetRef{Train: []string{digest64("1a"), ""}, Test: []string{digest64("3c")}}
	var conf ml.Confusion
	conf[0][1] = 3
	conf[2][2] = -5
	conf[trace.NumApps-1][trace.NumApps-1] = 1 << 20
	frames := []struct {
		name string
		enc  func(w io.Writer) error
		want string
	}{
		{"cell-batch", func(w io.Writer) error {
			return EncodeCellBatch(w, []CellRequest{
				{ID: 7, Cfg: experiments.Config{Seed: 42, TrainDuration: time.Minute, TestDuration: time.Second, W: 5 * time.Second},
					Scheme: "OR modulo i=size%3", App: trace.Video},
				{ID: 8, Scheme: "OR+morph", App: trace.Gaming, Traces: &ref},
			})
		}, "fda5842f408ea0b38561b8c15e6dd446d96c0a315186534e3458b6d2e20a3a70"},
		{"result-batch", func(w io.Writer) error {
			return EncodeResultBatch(w, []CellResult{
				{ID: 1, Families: []ml.Confusion{conf}},
				{ID: 2, Err: "store miss: deadbeef"},
				{ID: 3, Families: []ml.Confusion{conf, {}}, Cached: true},
			})
		}, "f77cebfc022ba52c5f868d0254da714e6df03a4ea63250455d6d857524fa201e"},
		{"ping", func(w io.Writer) error { return EncodePing(w, 1500*time.Millisecond) }, "802dcf588a04f0cfe11a683011711762b24b898ed960b49f2f81d8e20380bded"},
	}
	for _, f := range frames {
		var b bytes.Buffer
		if err := f.enc(&b); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := sha256Hex(b.Bytes()); got != f.want {
			t.Errorf("%s frame sha256 = %s, want %s", f.name, got, f.want)
		}
	}
}

// TestGoldenTraceZ pins the trace-z frame's app byte and decompressed
// stream. The flate bytes themselves are not pinned: compress/flate
// does not promise stable output across Go releases.
func TestGoldenTraceZ(t *testing.T) {
	tr := trace.New(32)
	for i := 0; i < 32; i++ {
		tr.Append(trace.Packet{Time: time.Duration(i) * time.Millisecond, Size: int32(100 + i%7), Dir: trace.Uplink, App: trace.Gaming, RSSI: -61.5})
	}
	var b bytes.Buffer
	if err := EncodeTraceCompressed(&b, TracePayload{App: trace.Gaming, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	payload := b.Bytes()[5:]
	plain, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload[1:])))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha256Hex(append([]byte{payload[0]}, plain...)), "a9cd0c2ad2aa84e94bfc5c24c29896ae2cba65afb511a4d22d30b0c4a29326c8"; got != want {
		t.Errorf("trace-z app byte + stream sha256 = %s, want %s", got, want)
	}
}
