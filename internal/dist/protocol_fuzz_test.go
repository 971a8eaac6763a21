package dist

// Fuzz coverage for the frame decoders. The coordinator port faces
// arbitrary bytes — strays, scanners, version-skewed peers — on two
// surfaces: ReadHello/ReadMessage during the handshake and the
// steady-state frame stream. Neither may panic, hang, or allocate
// absurdly on garbage, and everything they accept must re-encode and
// decode to the same message (a frame that silently mutates in a
// round trip would evaluate the wrong grid cell somewhere).

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

// fuzzSeedFrames encodes one specimen of every frame kind — the seed
// corpus mirrors the round-trip unit tests.
func fuzzSeedFrames(f *testing.F) [][]byte {
	f.Helper()
	var frames [][]byte
	add := func(enc func(b *bytes.Buffer) error) {
		var b bytes.Buffer
		if err := enc(&b); err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b.Bytes())
	}
	add(func(b *bytes.Buffer) error {
		return EncodeHello(b, Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 4, Auth: AuthTag("k", []byte{1, 2})})
	})
	add(func(b *bytes.Buffer) error { return EncodeTraceHave(b, TraceHave{Digests: []string{"aa", "bb"}}) })
	add(func(b *bytes.Buffer) error {
		_, err := EncodeChallenge(b, []byte{0xde, 0xad, 0xbe, 0xef})
		return err
	})
	add(func(b *bytes.Buffer) error { return EncodeShutdown(b) })
	add(func(b *bytes.Buffer) error { return EncodePing(b, 150*time.Millisecond) })
	add(func(b *bytes.Buffer) error { return EncodePong(b) })
	// Binary batch and preload frames.
	add(func(b *bytes.Buffer) error {
		ref := experiments.TraceSetRef{
			Train: []string{digest64("aa"), ""},
			Test:  []string{digest64("bb")},
		}
		return EncodeCellBatch(b, []CellRequest{
			{ID: 1, Cfg: experiments.Config{Seed: 3, W: time.Second}, Scheme: "Original", App: trace.Video},
			{ID: 2, Scheme: "OR+morph", App: trace.Gaming, Traces: &ref},
		})
	})
	add(func(b *bytes.Buffer) error {
		var conf ml.Confusion
		conf[1][2] = 5
		return EncodeResultBatch(b, []CellResult{
			{ID: 1, Families: []ml.Confusion{conf}},
			{ID: 2, Err: "boom"},
			{ID: 3, Families: []ml.Confusion{conf, conf}, Cached: true},
		})
	})
	add(func(b *bytes.Buffer) error {
		tr := trace.New(1)
		tr.Append(trace.Packet{Time: time.Second, Size: 100, Dir: trace.Uplink, App: trace.Gaming})
		return EncodeTraceCompressed(b, TracePayload{App: trace.Gaming, Trace: tr})
	})
	return frames
}

// retiredFrames holds one well-formed frame of each retired
// version-2 kind, exactly as a version-2 peer wrote them.
func retiredFrames(f *testing.F) [][]byte {
	f.Helper()
	var tr bytes.Buffer
	tr.WriteByte(byte(trace.Gaming))
	one := trace.New(1)
	one.Append(trace.Packet{Time: time.Second, Size: 100, Dir: trace.Uplink, App: trace.Gaming})
	if err := trace.WriteBinary(&tr, one); err != nil {
		f.Fatal(err)
	}
	frame := func(kind byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, kind, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	return [][]byte{
		frame(2, []byte(`{"ID":7,"Cfg":{"Seed":42,"TrainDuration":60000000000,"TestDuration":1000000000,"W":5000000000},"Scheme":"OR","App":3}`)),
		frame(3, []byte(`{"ID":9,"Families":[[[0,3,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0],[0,0,0,0,0,0,0]]],"Cached":true}`)),
		frame(3, []byte(`{"ID":1,"Err":"boom"}`)),
		frame(4, tr.Bytes()),
	}
}

// digest64 expands a two-hex-char seed into a well-formed 64-char
// digest string for wire tests.
func digest64(seed string) string {
	d := ""
	for len(d) < 64 {
		d += seed
	}
	return d[:64]
}

// reencode writes msg back out through the matching encoder, or
// reports false for kinds with no re-encoding invariant to check.
func reencode(b *bytes.Buffer, msg Message) (bool, error) {
	switch {
	case msg.Hello != nil:
		return true, EncodeHello(b, *msg.Hello)
	case msg.Have != nil:
		return true, EncodeTraceHave(b, *msg.Have)
	case msg.Challenge != nil:
		_, err := EncodeChallenge(b, msg.Challenge)
		return true, err
	case msg.Shutdown:
		return true, EncodeShutdown(b)
	case msg.Ping != nil:
		return true, EncodePing(b, *msg.Ping)
	case msg.Pong:
		return true, EncodePong(b)
	case len(msg.Batch) > 0:
		return true, EncodeCellBatch(b, msg.Batch)
	case len(msg.Results) > 0:
		return true, EncodeResultBatch(b, msg.Results)
	case msg.TraceZ != nil:
		return true, EncodeTraceCompressed(b, *msg.TraceZ)
	}
	return false, nil
}

// sameMessage compares the payload-bearing fields of two messages.
func sameMessage(a, b Message) bool {
	switch {
	case a.TraceZ != nil:
		// Traces round-trip by content digest (byte-level and NaN-safe
		// — a hostile peer can craft NaN RSSI bits, which DeepEqual
		// would wrongly call unequal); the *Trace pointers and slice
		// capacities differ structurally.
		return b.TraceZ != nil && a.TraceZ.App == b.TraceZ.App &&
			trace.Digest(a.TraceZ.Trace) == trace.Digest(b.TraceZ.Trace)
	default:
		return reflect.DeepEqual(a, b)
	}
}

// FuzzReadMessage hardens the steady-state decoder: garbage must
// error (never panic or hang), a complete frame of a retired
// version-2 kind must fail as ErrBadFrame, and accepted frames must
// survive decode → encode → decode unchanged.
func FuzzReadMessage(f *testing.F) {
	for _, frame := range fuzzSeedFrames(f) {
		f.Add(frame)
	}
	for _, frame := range retiredFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte{0xEE, 0, 0, 0, 0})                      // unknown kind
	f.Add([]byte{kindCellBatch, 0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add([]byte{kindCellBatch, 10, 0, 0, 0, 'x'})       // truncated payload
	f.Add(append([]byte{kindTraceHave, 8, 0, 0, 0}, []byte("not json")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if len(data) >= 5 && (data[0] == 2 || data[0] == 3 || data[0] == 4) && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("retired kind %d decoded with err = %v, want ErrBadFrame", data[0], err)
		}
		if err != nil {
			return
		}
		var b bytes.Buffer
		ok, err := reencode(&b, msg)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !ok {
			t.Fatalf("decoded message carries no payload: %+v", msg)
		}
		back, err := ReadMessage(&b)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !sameMessage(msg, back) {
			t.Fatalf("round trip changed message:\nfirst  %+v\nsecond %+v", msg, back)
		}
	})
}

// FuzzReadHello hardens the unauthenticated half of the handshake:
// whatever a stray sends as its first frame, ReadHello must return
// promptly with a hello or an error — bounded allocation, no panic —
// and never consume bytes past its own frame.
func FuzzReadHello(f *testing.F) {
	var good bytes.Buffer
	if err := EncodeHello(&good, Hello{Magic: protoMagic, Version: ProtoVersion, Slots: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Add([]byte{kindHello, 0xff, 0xff, 0xff, 0x3f})
	f.Add([]byte{0x16, 0x03, 0x01, 0x02, 0x00}) // a TLS ClientHello record header

	f.Fuzz(func(t *testing.T, data []byte) {
		trailer := []byte{0xAB, 0xCD}
		r := bytes.NewReader(append(append([]byte{}, data...), trailer...))
		h, err := ReadHello(r)
		if err != nil {
			return
		}
		// Accepted: the remaining stream must start exactly where the
		// hello frame ended (ReadHello promises no readahead), so the
		// encoded form must reproduce the consumed prefix.
		var b bytes.Buffer
		if err := EncodeHello(&b, h); err != nil {
			t.Fatalf("re-encode of accepted hello failed: %v", err)
		}
		consumed := len(data) + len(trailer) - r.Len()
		if consumed > len(data) {
			t.Fatalf("ReadHello read %d bytes past its input", consumed-len(data))
		}
		back, err := ReadHello(bytes.NewReader(data[:consumed]))
		if err != nil || back != h {
			t.Fatalf("hello round trip changed: %+v vs %+v (%v)", h, back, err)
		}
	})
}
