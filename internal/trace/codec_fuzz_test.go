package trace

// Fuzz coverage for the binary trace codec. The decoder faces
// network-supplied bytes in the distributed engine (trace frames ship
// captured traces to workers), so it must reject arbitrary garbage
// with an error — never panic, hang, or allocate absurdly — and any
// input it does accept must re-encode into a stream that decodes to
// the same packets (the content-digest round trip the preload path
// depends on).

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// fuzzSeedTraces mirrors the deterministic cases of the round-trip
// unit tests: empty, representation extremes, and a small typical
// trace.
func fuzzSeedTraces() []*Trace {
	small := New(3)
	small.Append(Packet{Time: time.Millisecond, Size: 100, Dir: Uplink, App: Browsing, Seq: 1})
	small.Append(Packet{Time: 2 * time.Millisecond, Size: 1500, Dir: Downlink, App: Video, RSSI: -55.25})
	small.Append(Packet{Time: time.Second, Size: 64, Dir: Uplink, App: Gaming, Chan: 6})

	extreme := New(1)
	extreme.Append(Packet{
		Time: math.MaxInt64,
		Size: math.MaxInt32,
		App:  Apps[len(Apps)-1],
		Chan: 255,
		MAC:  [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		RSSI: -120.5,
		Seq:  0x0fff,
	})
	return []*Trace{New(0), small, extreme}
}

func FuzzReadBinary(f *testing.F) {
	for _, tr := range fuzzSeedTraces() {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Adversarial seeds: bad magic, bad version, a count far beyond
	// the data, a truncated record, a negative packet size and a bad
	// direction byte.
	f.Add([]byte("XXSH\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("TRSH\xff\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	huge := []byte("TRSH\x02\x00\x00\x00")
	huge = binary.LittleEndian.AppendUint64(huge, 1<<31)
	f.Add(huge)
	f.Add(append([]byte("TRSH\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"), make([]byte, recordLen+3)...))
	// A well-formed record with a negative packet size.
	negative := New(1)
	negative.Append(Packet{Time: time.Second, Size: -5})
	var negBuf bytes.Buffer
	if err := WriteBinary(&negBuf, negative); err != nil {
		f.Fatal(err)
	}
	f.Add(negBuf.Bytes())
	// A well-formed record with a direction byte that is neither
	// direction.
	badDir := New(1)
	badDir.Append(Packet{Time: time.Second, Size: 100, Dir: 2})
	var dirBuf bytes.Buffer
	if err := WriteBinary(&dirBuf, badDir); err != nil {
		f.Fatal(err)
	}
	f.Add(dirBuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only requirement is not panicking
		}
		for i, p := range tr.Packets {
			if p.Size < 0 {
				t.Fatalf("accepted packet %d with negative size %d", i, p.Size)
			}
			if !p.Dir.Valid() {
				t.Fatalf("accepted packet %d with direction byte %d", i, p.Dir)
			}
		}
		// Accepted input: encoding must be an exact involution over
		// what the decoder produced — decode(encode(tr)) encodes to
		// the same bytes — so a digest computed anywhere names the
		// same content. Digest equality is the comparison (byte-level,
		// and NaN-safe where DeepEqual is not: the codec stores RSSI
		// bit patterns exactly, including NaNs a hostile peer crafts).
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(back.Packets) != len(tr.Packets) {
			t.Fatalf("round trip changed packet count: %d -> %d", len(tr.Packets), len(back.Packets))
		}
		if Digest(back) != Digest(tr) {
			t.Fatal("round trip changed the content digest")
		}
	})
}
