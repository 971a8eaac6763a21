package mac

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzUnmarshal holds the frame decoder to the standard of the other
// codecs: it parses bytes a sniffer or a station takes off the air, so
// no input may panic it, and any frame it accepts must survive
// decode → encode → decode unchanged. Bytes are not compared: Unmarshal
// drops the frame-control protocol-version bits and the sequence
// control's fragment number, which Marshal writes as zero.
func FuzzUnmarshal(f *testing.F) {
	a := Address{0x02, 0x11, 0x22, 0x33, 0x44, 0x55}
	b := Address{0x02, 0x66, 0x77, 0x88, 0x99, 0xaa}
	seeds := []*Frame{
		NewData(a, a, b, 0, true),
		NewData(a, b, b, 64, false),
		{Type: TypeManagement, Subtype: SubtypeAction, Flags: FlagProtected, Duration: 44,
			Addr1: b, Addr2: a, Addr3: b, Seq: 0x0abc, Payload: []byte("sealed configuration request")},
		{Type: TypeControl, Subtype: SubtypeAck, Addr1: a},
	}
	for _, fr := range seeds {
		buf, err := fr.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(make([]byte, headerLen+fcsLen-1))
	// One byte over MaxPayload: with its checksum fixed up below,
	// Unmarshal must refuse it, as Marshal refuses to produce it.
	f.Add(make([]byte, headerLen+MaxPayload+1+fcsLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		// The FCS rejects almost every mutation before a header field
		// is read; decode each input once more with its checksum fixed
		// up so the mutator reaches the field decoding too.
		if len(data) >= headerLen+fcsLen {
			fixed := append([]byte(nil), data...)
			body := fixed[:len(fixed)-fcsLen]
			binary.LittleEndian.PutUint32(fixed[len(body):], checksum(body))
			roundTrip(t, fixed)
		}
	})
}

// roundTrip checks that a frame Unmarshal accepts re-encodes and
// decodes back to an equal value.
func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	fr, err := Unmarshal(data)
	if err != nil {
		return
	}
	buf, err := fr.Marshal()
	if err != nil {
		t.Fatalf("re-encode of accepted frame failed: %v", err)
	}
	fr2, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("re-decode of re-encoded frame failed: %v", err)
	}
	if !reflect.DeepEqual(fr, fr2) {
		t.Fatalf("decode→encode→decode mismatch:\nfirst:  %+v\nsecond: %+v", fr, fr2)
	}
}
