package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

var errTest = errors.New("test: bad input")

// TestReaderLatchesFirstError: once a read fails, later reads return
// zero values without consuming input, and the first error survives
// every later failure.
func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	if got := r.U16(); got != 0x0201 {
		t.Fatalf("U16 = %#x, want 0x0201", got)
	}
	if got := r.U32(); got != 0 {
		t.Fatalf("truncated U32 = %d, want 0", got)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("truncated read latched no error")
	}
	r.Failf("a later failure")
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.Varint() != 0 || r.Take(0) != nil {
		t.Fatal("reads after the first error returned data")
	}
	if r.Count("x", 10, 1) != 0 {
		t.Fatal("Count after the first error returned non-zero")
	}
	if err := r.Done(); err != first {
		t.Fatalf("Done = %v, want the first error %v", err, first)
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{7, 0}, errTest)
	r.U8()
	if err := r.Done(); !errors.Is(err, errTest) {
		t.Fatalf("Done with a trailing byte = %v, want %v", err, errTest)
	}
	r = NewReader([]byte{7}, errTest)
	r.U8()
	if err := r.Done(); err != nil {
		t.Fatalf("Done on fully consumed input = %v", err)
	}
}

// TestCountBoundsAgainstBytesLeft: a count is refused when it exceeds
// max, or when count × elemLen exceeds the bytes after it — exactly at
// the boundary, one element fits and one more does not.
func TestCountBoundsAgainstBytesLeft(t *testing.T) {
	count := func(n uint32, rest int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, rest)...)
	}
	cases := []struct {
		name         string
		in           []byte
		max, elemLen int
		want         int
		wantErr      bool
	}{
		{"fits exactly", count(3, 12), 10, 4, 3, false},
		{"one byte short", count(3, 11), 10, 4, 0, true},
		{"width one", count(5, 5), 10, 1, 5, false},
		{"over max", count(11, 100), 10, 1, 0, true},
		{"at max", count(10, 10), 10, 1, 10, false},
		{"zero", count(0, 0), 10, 4, 0, false},
		{"huge count", count(0xffffffff, 8), 1 << 30, 8, 0, true},
		{"truncated count", []byte{1, 0}, 10, 1, 0, true},
	}
	for _, tc := range cases {
		r := NewReader(tc.in, errTest)
		if got := r.Count("elem", tc.max, tc.elemLen); got != tc.want {
			t.Errorf("%s: Count = %d, want %d", tc.name, got, tc.want)
		}
		if err := r.Err(); (err != nil) != tc.wantErr || (err != nil && !errors.Is(err, errTest)) {
			t.Errorf("%s: err = %v, want error %v wrapping %v", tc.name, err, tc.wantErr, errTest)
		}
	}
}

// TestVarint: the encoder's own output decodes; empty, truncated,
// overflowing and non-minimal encodings fail.
func TestVarint(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 20, -(1 << 40), 1<<63 - 1, -1 << 63} {
		r := NewReader(binary.AppendVarint(nil, v), errTest)
		if got := r.Varint(); got != v || r.Done() != nil {
			t.Errorf("Varint(%d) = %d, err %v", v, got, r.Done())
		}
	}
	bad := map[string][]byte{
		"empty":       {},
		"truncated":   {0x80},
		"overflow":    {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"tenth byte":  {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"non-minimal": {0x80, 0x00},
		"padded one":  {0x82, 0x80, 0x00},
	}
	for name, in := range bad {
		r := NewReader(in, errTest)
		if got := r.Varint(); got != 0 || !errors.Is(r.Err(), errTest) {
			t.Errorf("%s: Varint = %d, err %v; want 0 and an error wrapping %v", name, got, r.Err(), errTest)
		}
	}
}

func TestHeader(t *testing.T) {
	good := AppendHeader(nil, "TEST", 3)
	r := NewReader(good, errTest)
	r.Header("TEST", 3)
	if err := r.Done(); err != nil {
		t.Fatalf("own header refused: %v", err)
	}
	for name, in := range map[string][]byte{
		"bad magic":   AppendHeader(nil, "NOPE", 3),
		"bad version": AppendHeader(nil, "TEST", 4),
		"short":       good[:6],
		"empty":       nil,
	} {
		r := NewReader(in, errTest)
		r.Header("TEST", 3)
		if err := r.Err(); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want an error wrapping %v", name, err, errTest)
		}
	}
}

func TestCRC(t *testing.T) {
	img := AppendCRC([]byte("prefix:body"), len("prefix:"))
	if _, err := CheckCRC(img, errTest); err == nil {
		t.Fatal("CRC over a sub-range verified over the whole buffer")
	}
	body, err := CheckCRC(img[len("prefix:"):], errTest)
	if err != nil || string(body) != "body" {
		t.Fatalf("CheckCRC = %q, %v; want \"body\"", body, err)
	}
	for i := range img[len("prefix:"):] {
		mut := append([]byte(nil), img[len("prefix:"):]...)
		mut[i] ^= 0x01
		if _, err := CheckCRC(mut, errTest); !errors.Is(err, errTest) {
			t.Errorf("flip at %d: err = %v, want an error wrapping %v", i, err, errTest)
		}
	}
	if _, err := CheckCRC([]byte{1, 2, 3}, errTest); !errors.Is(err, errTest) {
		t.Errorf("3-byte input: err = %v, want an error wrapping %v", err, errTest)
	}
}
