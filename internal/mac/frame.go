package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FrameType is the 802.11 frame type field.
type FrameType uint8

// 802.11 frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case TypeManagement:
		return "mgmt"
	case TypeControl:
		return "ctrl"
	case TypeData:
		return "data"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Subtype identifies the frame within its type. Only the subtypes the
// simulation uses are defined.
type Subtype uint8

// Management subtypes.
const (
	SubtypeAssocRequest  Subtype = 0
	SubtypeAssocResponse Subtype = 1
	SubtypeProbeRequest  Subtype = 4
	SubtypeProbeResponse Subtype = 5
	SubtypeBeacon        Subtype = 8
	SubtypeDisassoc      Subtype = 10
	SubtypeAuth          Subtype = 11
	// SubtypeAction carries the paper's virtual-interface
	// configuration exchange (Figure 2) as an encrypted vendor
	// action frame.
	SubtypeAction Subtype = 13
)

// Control subtypes.
const (
	SubtypeAck Subtype = 13
)

// Data subtypes.
const (
	SubtypeData Subtype = 0
	SubtypeQoS  Subtype = 8
)

// Flags carries the frame-control bits the simulation cares about.
type Flags uint8

// Frame-control flags.
const (
	FlagToDS      Flags = 1 << 0 // station → AP (uplink)
	FlagFromDS    Flags = 1 << 1 // AP → station (downlink)
	FlagRetry     Flags = 1 << 2
	FlagProtected Flags = 1 << 3 // payload is encrypted
)

// Frame is an 802.11 MAC frame as the simulation (and the sniffer)
// sees it. The eavesdropper of the paper's attack model observes
// exactly these header fields plus the frame length — never the
// (encrypted) payload contents.
type Frame struct {
	Type     FrameType
	Subtype  Subtype
	Flags    Flags
	Duration uint16
	// Addr1 is the receiver, Addr2 the transmitter, Addr3 the
	// BSSID/DS address, following the ToDS/FromDS conventions.
	Addr1, Addr2, Addr3 Address
	Seq                 uint16 // 12-bit sequence number
	Payload             []byte
}

// header sizes in bytes for the wire codec.
const (
	headerLen = 2 + 2 + 6*3 + 2 // FC + duration + 3 addresses + seqctl
	fcsLen    = 4
)

// MaxPayload bounds a frame's payload for the wire codec.
const MaxPayload = 2304 // 802.11 MSDU limit

// IsUplink reports whether the frame travels station → AP.
func (f *Frame) IsUplink() bool { return f.Flags&FlagToDS != 0 }

// IsDownlink reports whether the frame travels AP → station.
func (f *Frame) IsDownlink() bool { return f.Flags&FlagFromDS != 0 }

// AirLength returns the number of bytes the frame occupies on the air
// (header + payload + FCS). This is the "packet size" every traffic-
// analysis feature in the paper is computed from.
func (f *Frame) AirLength() int { return headerLen + len(f.Payload) + fcsLen }

// Marshal encodes the frame into the simulation's wire format, an
// 802.11-shaped fixed header followed by the payload and a dummy FCS.
func (f *Frame) Marshal() ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("mac: payload %d exceeds maximum %d", len(f.Payload), MaxPayload)
	}
	buf := make([]byte, headerLen+len(f.Payload)+fcsLen)
	fc := uint16(f.Type&0x3)<<2 | uint16(f.Subtype&0xf)<<4 | uint16(f.Flags)<<8
	binary.LittleEndian.PutUint16(buf[0:2], fc)
	binary.LittleEndian.PutUint16(buf[2:4], f.Duration)
	copy(buf[4:10], f.Addr1[:])
	copy(buf[10:16], f.Addr2[:])
	copy(buf[16:22], f.Addr3[:])
	binary.LittleEndian.PutUint16(buf[22:24], f.Seq&0x0fff)
	copy(buf[headerLen:], f.Payload)
	// The FCS over the simulated medium is a simple checksum: the
	// channel model injects no bit errors, so its only job is to let
	// Unmarshal detect truncated buffers.
	crc := checksum(buf[:headerLen+len(f.Payload)])
	binary.LittleEndian.PutUint32(buf[headerLen+len(f.Payload):], crc)
	return buf, nil
}

// ErrFrameTooShort is returned by Unmarshal for truncated buffers.
var ErrFrameTooShort = errors.New("mac: frame too short")

// ErrBadFCS is returned by Unmarshal when the checksum does not match.
var ErrBadFCS = errors.New("mac: bad frame check sequence")

// Unmarshal decodes a frame previously encoded with Marshal. It
// rejects buffers Marshal cannot produce: truncated, over-long or
// failing the checksum.
func Unmarshal(buf []byte) (*Frame, error) {
	if len(buf) < headerLen+fcsLen {
		return nil, ErrFrameTooShort
	}
	if len(buf) > headerLen+MaxPayload+fcsLen {
		return nil, fmt.Errorf("mac: payload %d exceeds maximum %d", len(buf)-headerLen-fcsLen, MaxPayload)
	}
	body := buf[:len(buf)-fcsLen]
	wantCRC := binary.LittleEndian.Uint32(buf[len(buf)-fcsLen:])
	if checksum(body) != wantCRC {
		return nil, ErrBadFCS
	}
	f := &Frame{}
	fc := binary.LittleEndian.Uint16(buf[0:2])
	f.Type = FrameType(fc >> 2 & 0x3)
	f.Subtype = Subtype(fc >> 4 & 0xf)
	f.Flags = Flags(fc >> 8)
	f.Duration = binary.LittleEndian.Uint16(buf[2:4])
	copy(f.Addr1[:], buf[4:10])
	copy(f.Addr2[:], buf[10:16])
	copy(f.Addr3[:], buf[16:22])
	f.Seq = binary.LittleEndian.Uint16(buf[22:24]) & 0x0fff
	if len(body) > headerLen {
		f.Payload = append([]byte(nil), body[headerLen:]...)
	}
	return f, nil
}

// checksum is a tiny FNV-style rolling checksum standing in for the
// 802.11 CRC-32 FCS.
func checksum(b []byte) uint32 {
	var h uint32 = 2166136261
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// NewData builds a data frame between a station and the AP.
// If uplink is true the frame is station→AP (ToDS), otherwise AP→station
// (FromDS). payloadLen bytes of zero payload are attached; the traffic
// analysis attack only ever observes lengths, so payload content is
// irrelevant in the simulation.
func NewData(src, dst, bssid Address, payloadLen int, uplink bool) *Frame {
	f := &Frame{
		Type:    TypeData,
		Subtype: SubtypeData,
		Addr3:   bssid,
		Payload: make([]byte, payloadLen),
	}
	if uplink {
		f.Flags |= FlagToDS
		f.Addr1 = bssid
		f.Addr2 = src
	} else {
		f.Flags |= FlagFromDS
		f.Addr1 = dst
		f.Addr2 = bssid
	}
	return f
}

// SequenceCounter issues 12-bit 802.11 sequence numbers.
type SequenceCounter struct{ next uint16 }

// Next returns the next sequence number, wrapping at 4096.
func (s *SequenceCounter) Next() uint16 {
	v := s.next
	s.next = (s.next + 1) & 0x0fff
	return v
}

// Seed positions the counter at an arbitrary starting value. Virtual
// interfaces seed their counters randomly so a sniffer cannot stitch
// their flows together through one interleaved sequence space.
func (s *SequenceCounter) Seed(start uint16) {
	s.next = start & 0x0fff
}
