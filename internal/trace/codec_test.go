package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/stats"
)

func randomTrace(seed uint64, n int) *Trace {
	r := stats.NewRNG(seed)
	tr := New(n)
	tc := time.Duration(0)
	for i := 0; i < n; i++ {
		tc += time.Duration(r.Intn(100000)) * time.Microsecond
		tr.Append(Packet{
			Time: tc,
			Size: int32(r.IntRange(28, 1576)),
			Dir:  Direction(r.Intn(2)),
			App:  App(r.Intn(NumApps)),
			MAC:  mac.RandomAddress(r),
			Chan: []uint8{1, 6, 11}[r.Intn(3)],
			RSSI: -30 - 40*r.Float64(),
			Seq:  uint16(r.Intn(4096)),
		})
	}
	return tr
}

func tracesEqual(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Packets {
		pa, pb := a.Packets[i], b.Packets[i]
		if pa.Time != pb.Time || pa.Size != pb.Size || pa.Dir != pb.Dir ||
			pa.App != pb.App || pa.MAC != pb.MAC || pa.Chan != pb.Chan ||
			pa.Seq != pb.Seq {
			return false
		}
		if d := pa.RSSI - pb.RSSI; d > 1e-5 || d < -1e-5 {
			return false
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(1, 500)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, New(0)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("expected empty trace, got %d packets", got.Len())
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE0123456789ab")); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := randomTrace(2, 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-17]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated stream should fail")
	}
}

// TestBinaryRejectsNegativeSize: a record with a negative packet size
// is refused with ErrBadFormat naming the record.
func TestBinaryRejectsNegativeSize(t *testing.T) {
	tr := randomTrace(3, 5)
	tr.Packets[2].Size = -5
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	_, err := ReadBinary(&buf)
	if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("negative size decoded with err = %v, want ErrBadFormat at record 2", err)
	}
}

// TestBinaryRejectsBadDirection: a record whose direction byte is
// neither Downlink nor Uplink is refused with ErrBadFormat naming the
// record, and both real directions decode.
func TestBinaryRejectsBadDirection(t *testing.T) {
	for _, dir := range []Direction{Downlink, Uplink, 2, 255} {
		tr := randomTrace(3, 5)
		tr.Packets[3].Dir = dir
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBinary(&buf)
		if dir.Valid() {
			if err != nil {
				t.Errorf("direction %d refused: %v", dir, err)
			}
			continue
		}
		if !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "record 3") {
			t.Errorf("direction byte %d decoded with err = %v, want ErrBadFormat at record 3", dir, err)
		}
	}
}

// Property: binary round trip is lossless for arbitrary traces.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		tr := randomTrace(seed, int(n%64))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
