package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"trafficreshape/internal/wire"
)

// Binary codec: a compact little-endian record format so large traces
// can be generated once by cmd/tracegen and replayed by the other
// tools. Layout per packet (fixed 40 bytes, wider than the 32-byte
// in-memory Packet because of its padding and reserved bytes; its size
// and channel fields have the Packet's widths):
//
//	time(int64 ns) | size(int32) | dir(u8) | app(u8) | chan(u8) | pad(u8)
//	mac(6 bytes) | pad(2) | rssi(IEEE-754 float64 bits) | seq(u16) | pad(6)
//
// preceded by a 16-byte header: magic "TRSH" | version(u32) | count(u64).
//
// Version 2 switched RSSI from truncated fixed-point µdB to the raw
// float64 bit pattern: the fixed-point form was lossy (decode →
// encode could shift the stored integer by one ulp of rounding),
// which the codec fuzz target caught the moment content digests
// started to matter — the distributed preload addresses traces by the
// digest of their encoding, so encoding must be an exact involution
// over everything the decoder accepts.

const (
	binMagic   = "TRSH"
	binVersion = 2
	recordLen  = 40
	// headerLen is magic + version(u32) + count(u64).
	headerLen = len(binMagic) + 4 + 8
)

// PacketRecordLen is the fixed length of one binary packet record —
// the unit both WriteBinary and the streaming engine's checkpoint
// codec encode packets in, so one fuzz-hardened layout serves both.
const PacketRecordLen = recordLen

// ErrBadFormat is returned when decoding a malformed trace stream.
var ErrBadFormat = errors.New("trace: bad binary format")

// PutPacketRecord encodes p into rec, which must be at least
// PacketRecordLen bytes. The layout is the package-comment record
// format; PacketFromRecord inverts it exactly (the involution the
// codec fuzz target pins).
func PutPacketRecord(rec []byte, p Packet) {
	_ = rec[recordLen-1]
	binary.LittleEndian.PutUint64(rec[0:8], uint64(p.Time))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(p.Size))
	rec[12] = byte(p.Dir)
	rec[13] = byte(p.App)
	rec[14] = p.Chan
	rec[15] = 0
	copy(rec[16:22], p.MAC[:])
	rec[22], rec[23] = 0, 0
	binary.LittleEndian.PutUint64(rec[24:32], math.Float64bits(p.RSSI))
	binary.LittleEndian.PutUint16(rec[32:34], p.Seq&0x0fff)
	for i := 34; i < recordLen; i++ {
		rec[i] = 0 // reserved
	}
}

// PacketFromRecord decodes a record written by PutPacketRecord.
func PacketFromRecord(rec []byte) Packet {
	_ = rec[recordLen-1]
	var p Packet
	p.Time = time.Duration(binary.LittleEndian.Uint64(rec[0:8]))
	p.Size = int32(binary.LittleEndian.Uint32(rec[8:12]))
	p.Dir = Direction(rec[12])
	p.App = App(rec[13])
	p.Chan = rec[14]
	copy(p.MAC[:], rec[16:22])
	p.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32]))
	p.Seq = binary.LittleEndian.Uint16(rec[32:34]) & 0x0fff
	return p
}

// WriteBinary encodes the trace to w.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	hdr := wire.AppendHeader(make([]byte, 0, headerLen), binMagic, binVersion)
	if _, err := bw.Write(binary.LittleEndian.AppendUint64(hdr, uint64(len(t.Packets)))); err != nil {
		return err
	}
	var rec [recordLen]byte
	for _, p := range t.Packets {
		PutPacketRecord(rec[:], p)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace encoded by WriteBinary. It streams the
// records from r rather than reading the input whole: replay captures
// can be large, and network callers bound r themselves. A record with
// a negative packet size is rejected: no packet has one, and the
// defenses' size tables (the morpher's) assume none. So is a direction
// byte other than Downlink's or Uplink's: the feature extractors count
// every non-uplink packet as downlink, while the window qualification
// counts only Downlink, so such a packet would make them disagree.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var head [headerLen]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	hr := wire.NewReader(head[:], ErrBadFormat)
	hr.Header(binMagic, binVersion)
	count := hr.U64()
	if count > 1<<32 {
		hr.Failf("implausible packet count %d", count)
	}
	if err := hr.Done(); err != nil {
		return nil, err
	}
	// The capacity hint is bounded: the count field is attacker-
	// controlled on network paths (dist trace frames), and a 16-byte
	// header claiming 2^32 packets must not allocate hundreds of
	// gigabytes before the first record is read. Beyond the bound the
	// slice grows with the data actually present.
	hint := count
	if hint > 1<<16 {
		hint = 1 << 16
	}
	t := New(int(hint))
	var rec [recordLen]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated at record %d: %v", ErrBadFormat, i, err)
		}
		p := PacketFromRecord(rec[:])
		if p.Size < 0 {
			return nil, fmt.Errorf("%w: negative packet size %d at record %d", ErrBadFormat, p.Size, i)
		}
		if !p.Dir.Valid() {
			return nil, fmt.Errorf("%w: direction byte %d at record %d", ErrBadFormat, p.Dir, i)
		}
		t.Append(p)
	}
	return t, nil
}

// WriteCSV writes a human-readable CSV with a header row, for
// `tracegen -format csv` and external plotting tools.
func WriteCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("time_s,size,dir,app,mac,chan,rssi,seq\n"); err != nil {
		return err
	}
	for _, p := range t.Packets {
		_, err := fmt.Fprintf(bw, "%.9f,%d,%s,%s,%s,%d,%.2f,%d\n",
			p.Time.Seconds(), p.Size, p.Dir, p.App, p.MAC, p.Chan, p.RSSI, p.Seq)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
