package stream

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"trafficreshape/internal/trace"
)

// FuzzReadCheckpoint holds the checkpoint codec to the same standard
// as the trace codec: no input may panic the decoder, and any input
// the decoder accepts must round-trip — decode → encode → decode
// yields the identical structure. The second property is what makes
// the CRC footer and the validation layer trustworthy: a checkpoint
// that survives decoding is fully re-serializable, so a restored
// daemon can immediately checkpoint again without drift.
func FuzzReadCheckpoint(f *testing.F) {
	// Seeds are kept small (tight rings, short flows): the mutator
	// throughput on large inputs is what limits fuzz coverage, and the
	// decoder's deep paths need valid structure, not bulk.
	seed := func(cfg Config, nPackets int) []byte {
		e := New(cfg)
		for i := 0; i < nPackets; i++ {
			e.Ingest(trace.Packet{
				Time: time.Duration(i) * 50 * time.Millisecond,
				Size: int32(80 + (i*37)%700),
				Dir:  trace.Downlink,
				MAC:  flowMAC(i % 2),
			})
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			f.Fatalf("seed checkpoint: %v", err)
		}
		e.Drain()
		return buf.Bytes()
	}
	f.Add(seed(Config{Seed: 5, RingCap: 8, Period: 16}, 40))
	f.Add(seed(Config{Seed: 9, Shards: 2, RingCap: 16, Period: 8}, 90))
	f.Add([]byte(ckptMagic))
	f.Add([]byte("TRCK\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := encodeCheckpoint(&out, d); err != nil {
			t.Fatalf("encode of accepted checkpoint failed: %v", err)
		}
		d2, err := decodeCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("decode→encode→decode mismatch:\nfirst:  %+v\nsecond: %+v", d, d2)
		}
	})
}
