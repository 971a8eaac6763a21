package mac

import (
	"testing"
	"testing/quick"

	"trafficreshape/internal/stats"
)

func TestFrameMarshalRoundTrip(t *testing.T) {
	r := stats.NewRNG(1)
	src := RandomAddress(r)
	dst := RandomAddress(r)
	bssid := RandomAddress(r)
	f := &Frame{
		Type:     TypeData,
		Subtype:  SubtypeQoS,
		Flags:    FlagToDS | FlagProtected,
		Duration: 314,
		Addr1:    dst,
		Addr2:    src,
		Addr3:    bssid,
		Seq:      1234,
		Payload:  []byte("encrypted application bytes"),
	}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Subtype != f.Subtype || got.Flags != f.Flags ||
		got.Duration != f.Duration || got.Addr1 != f.Addr1 || got.Addr2 != f.Addr2 ||
		got.Addr3 != f.Addr3 || got.Seq != f.Seq || string(got.Payload) != string(f.Payload) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestFrameMarshalEmptyPayload(t *testing.T) {
	f := &Frame{Type: TypeControl, Subtype: SubtypeAck}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("expected empty payload, got %d bytes", len(got.Payload))
	}
}

func TestFrameMarshalTooBig(t *testing.T) {
	f := &Frame{Type: TypeData, Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("oversized payload should fail to marshal")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err != ErrFrameTooShort {
		t.Fatalf("err = %v, want ErrFrameTooShort", err)
	}
}

func TestUnmarshalCorrupted(t *testing.T) {
	f := &Frame{Type: TypeData, Payload: []byte("hello")}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf[5] ^= 0xff
	if _, err := Unmarshal(buf); err != ErrBadFCS {
		t.Fatalf("err = %v, want ErrBadFCS", err)
	}
}

func TestNewDataDirections(t *testing.T) {
	r := stats.NewRNG(2)
	sta := RandomAddress(r)
	peer := RandomAddress(r)
	bssid := RandomAddress(r)

	up := NewData(sta, peer, bssid, 100, true)
	if !up.IsUplink() || up.IsDownlink() {
		t.Fatal("uplink frame direction flags wrong")
	}
	if up.Addr1 != bssid || up.Addr2 != sta {
		t.Fatal("uplink addressing wrong: Addr1 must be BSSID, Addr2 the station")
	}

	down := NewData(bssid, sta, bssid, 100, false)
	if down.IsUplink() || !down.IsDownlink() {
		t.Fatal("downlink frame direction flags wrong")
	}
	if down.Addr1 != sta || down.Addr2 != bssid {
		t.Fatal("downlink addressing wrong: Addr1 must be station, Addr2 the BSSID")
	}
}

func TestAirLength(t *testing.T) {
	f := NewData(Zero, Zero, Zero, 1000, true)
	// 24-byte header + payload + 4-byte FCS.
	if got := f.AirLength(); got != 24+1000+4 {
		t.Errorf("AirLength = %d, want %d", got, 24+1000+4)
	}
}

func TestSequenceCounterWraps(t *testing.T) {
	var s SequenceCounter
	for i := 0; i < 4096; i++ {
		if got := s.Next(); got != uint16(i) {
			t.Fatalf("Next() = %d, want %d", got, i)
		}
	}
	if got := s.Next(); got != 0 {
		t.Fatalf("sequence should wrap to 0, got %d", got)
	}
}

func TestFrameTypeString(t *testing.T) {
	cases := map[FrameType]string{
		TypeManagement: "mgmt",
		TypeControl:    "ctrl",
		TypeData:       "data",
		FrameType(9):   "type(9)",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}

// Property: marshal/unmarshal is the identity on well-formed frames.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed uint64, plen uint16, seq uint16, dur uint16, flags uint8) bool {
		r := stats.NewRNG(seed)
		fr := &Frame{
			Type:     TypeData,
			Subtype:  SubtypeData,
			Flags:    Flags(flags & 0x0f),
			Duration: dur,
			Addr1:    RandomAddress(r),
			Addr2:    RandomAddress(r),
			Addr3:    RandomAddress(r),
			Seq:      seq & 0x0fff,
			Payload:  make([]byte, int(plen)%MaxPayload),
		}
		for i := range fr.Payload {
			fr.Payload[i] = byte(r.Uint64())
		}
		buf, err := fr.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		if got.Seq != fr.Seq || got.Addr1 != fr.Addr1 || len(got.Payload) != len(fr.Payload) {
			return false
		}
		for i := range got.Payload {
			if got.Payload[i] != fr.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
