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
