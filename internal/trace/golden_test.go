package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// goldenTrace is a fixed trace touching every record field, including
// a NaN RSSI bit pattern and sequence bits above the 12-bit mask.
func goldenTrace() *Trace {
	tr := New(64)
	for i := 0; i < 64; i++ {
		tr.Append(Packet{
			Time: time.Duration(i*i) * time.Millisecond,
			Size: int32(40 + (i*97)%1460),
			Dir:  Direction(i % 2),
			App:  Apps[i%NumApps],
			Chan: uint8(i % 14),
			MAC:  [6]byte{0x02, 0, 0x5e, 0, byte(i >> 3), byte(i)},
			RSSI: -30 - float64(i)/4,
			Seq:  uint16(i * 613),
		})
	}
	return tr
}

// goldenTraceSHA is the SHA-256 of goldenTrace's encoding, and so also
// its Digest.
const goldenTraceSHA = "cbb4c18969c0ae87cd9bb341e73e179d9b166304ae7362c400c23506fd6846c4"

// TestGoldenBinaryEncoding pins the exact bytes of the TRSH codec. The
// fuzz target proves decode → encode → decode is stable; this pins the
// encoding itself, so a codec refactor that shifts a byte fails here
// even when it round-trips.
func TestGoldenBinaryEncoding(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), goldenTraceSHA; got != want {
		t.Errorf("WriteBinary sha256 = %s, want %s", got, want)
	}
	if got, want := Digest(goldenTrace()), goldenTraceSHA; got != want {
		t.Errorf("Digest = %s, want %s", got, want)
	}
}

// TestGoldenCSV pins the exact bytes WriteCSV produces for a small
// trace: the column order, the nanosecond time and two-decimal RSSI
// precision, and the direction, application and address spellings.
func TestGoldenCSV(t *testing.T) {
	tr := New(3)
	tr.Append(Packet{Time: time.Millisecond, Size: 100, Dir: Uplink, App: Browsing, Seq: 1})
	tr.Append(Packet{
		Time: 1500 * time.Microsecond, Size: 1576, Dir: Downlink, App: Video,
		MAC: [6]byte{0x02, 0x1b, 0x2c, 0x3d, 0x4e, 0x5f}, Chan: 6, RSSI: -55.256, Seq: 4095,
	})
	tr.Append(Packet{Time: 2*time.Second + 7, Size: 64, Dir: Uplink, App: BitTorrent, Chan: 11, RSSI: -70})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = "time_s,size,dir,app,mac,chan,rssi,seq\n" +
		"0.001000000,100,up,browsing,00:00:00:00:00:00,0,0.00,1\n" +
		"0.001500000,1576,down,video,02:1b:2c:3d:4e:5f,6,-55.26,4095\n" +
		"2.000000007,64,up,bittorrent,00:00:00:00:00:00,11,-70.00,0\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteCSV wrote\n%s\nwant\n%s", got, want)
	}
}
