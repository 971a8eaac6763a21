package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"trafficreshape/internal/trace"
)

// TestGoldenCheckpointEncoding pins the exact TRCK bytes of a
// checkpoint after a fixed ingest, inline and sharded. Rings wrap and
// schedulers pass an epoch, so every section of the layout is
// non-trivial. Flow state is placement independent, so both
// configurations encode the same bytes.
func TestGoldenCheckpointEncoding(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"inline", Config{Seed: 3, RingCap: 16, Period: 32}, "f48fd931a316c181fd5e7e0ac6bd4dbfa09173f9c4d539d4107d9c0c09c261d8"},
		{"shards2", Config{Seed: 3, Shards: 2, RingCap: 16, Period: 32}, "f48fd931a316c181fd5e7e0ac6bd4dbfa09173f9c4d539d4107d9c0c09c261d8"},
	}
	for _, tc := range cases {
		e := New(tc.cfg)
		for i := 0; i < 600; i++ {
			e.Ingest(trace.Packet{
				Time: time.Duration(i) * 20 * time.Millisecond,
				Size: int32(60 + (i*131)%1400),
				Dir:  trace.Direction(i % 2),
				MAC:  flowMAC(i % 4),
				Seq:  uint16(i),
			})
		}
		var ck bytes.Buffer
		if err := e.Checkpoint(&ck); err != nil {
			t.Fatalf("%s: checkpoint: %v", tc.name, err)
		}
		e.Drain()
		sum := sha256.Sum256(ck.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: checkpoint sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
