package trace

// Fuzz coverage for the binary trace codec. The decoder faces
// network-supplied bytes in the distributed engine (trace frames ship
// captured traces to workers), so it must reject arbitrary garbage
// with an error — never panic, hang, or allocate absurdly — and any
// input it does accept must re-encode into a stream that decodes to
// the same packets (the content-digest round trip the preload path
// depends on).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
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
	// the data, and a truncated record.
	f.Add([]byte("XXSH\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("TRSH\xff\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	huge := []byte("TRSH\x02\x00\x00\x00")
	huge = binary.LittleEndian.AppendUint64(huge, 1<<31)
	f.Add(huge)
	f.Add(append([]byte("TRSH\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"), make([]byte, recordLen+3)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return // rejected: the only requirement is not panicking
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

// FuzzReadCSV checks that every trace ReadCSV accepts fits the binary
// record: it survives WriteBinary → ReadBinary unchanged, and each
// packet's size and channel are the values its row spells rather than
// a truncation of them. Packet has the record's widths, so a parser
// that truncated into the struct would pass the round trip alone; the
// row comparison is what catches it. RSSI is compared at the two
// decimals WriteCSV prints it with (which also equates NaNs).
func FuzzReadCSV(f *testing.F) {
	for _, tr := range fuzzSeedTraces() {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	const header = "time_s,size,dir,app,mac,chan,rssi,seq\n"
	f.Add(header + "1.0,4294967396,down,browsing,00:11:22:33:44:55,1,-50,0\n")
	f.Add(header + "1.0,100,down,browsing,00:11:22:33:44:55,300,-50,0\n")
	f.Add(header + "1.0,-7,up,chatting,00:11:22:33:44:55,255,NaN,4095\n")

	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("encode of accepted csv failed: %v", err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(back.Packets) != len(tr.Packets) {
			t.Fatalf("round trip changed packet count: %d -> %d", len(tr.Packets), len(back.Packets))
		}
		rows := csvRows(data)
		if len(rows) != len(tr.Packets) {
			t.Fatalf("%d data rows parsed into %d packets", len(rows), len(tr.Packets))
		}
		for i, p := range back.Packets {
			want := tr.Packets[i]
			if got, w := fmt.Sprintf("%.2f", p.RSSI), fmt.Sprintf("%.2f", want.RSSI); got != w {
				t.Fatalf("packet %d: rssi %s after round trip, want %s", i, got, w)
			}
			p.RSSI, want.RSSI = 0, 0
			if p != want {
				t.Fatalf("packet %d: round trip changed %+v into %+v", i, want, p)
			}
			size, _ := strconv.ParseInt(rows[i][1], 10, 64)
			ch, _ := strconv.ParseInt(rows[i][5], 10, 64)
			if int64(p.Size) != size || int64(p.Chan) != ch {
				t.Fatalf("packet %d: size %d chan %d, row spells %s and %s", i, p.Size, p.Chan, rows[i][1], rows[i][5])
			}
		}
	})
}

// csvRows splits an input ReadCSV accepted into the fields of its data
// rows, skipping the header and blank lines the way ReadCSV does.
func csvRows(data string) [][]string {
	var rows [][]string
	sc := bufio.NewScanner(strings.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if text := strings.TrimSpace(sc.Text()); line > 1 && text != "" {
			rows = append(rows, strings.Split(text, ","))
		}
	}
	return rows
}
