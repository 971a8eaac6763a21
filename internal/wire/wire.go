// Package wire is the bounded reader under every binary format the
// repository parses from outside the program: the trace codec (TRSH),
// the streaming checkpoint (TRCK), the grid journal (TRGJ) and the
// fleet's v3 batch frames. The formats share these rules:
//
//   - little-endian fixed-width scalars and zigzag varints;
//   - files open with a magic + u32 version header;
//   - a declared count is bounded, and count × element width is checked
//     against the bytes left, before anything is allocated for it;
//   - CRC-32 (IEEE) guards integrity where a torn write is possible;
//   - a decode consumes its input exactly: trailing bytes are an error.
//
// Encoders append with encoding/binary directly; only reading, where
// the input is hostile, needs a shared type.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Reader is a bounds-checked cursor over one payload. Every read
// validates the remaining length first and latches the first error;
// after it, reads return zero values and the error stays. Decode loops
// therefore stay linear and check once, at Done.
type Reader struct {
	b        []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a Reader over b whose errors all wrap sentinel, so
// callers match them with errors.Is against their own format's error.
func NewReader(b []byte, sentinel error) *Reader {
	return &Reader{b: b, sentinel: sentinel}
}

// Failf latches a format error wrapping the sentinel, unless an
// earlier error is already latched.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// Err returns the latched error, for decoders that must stop before
// allocating or return early.
func (r *Reader) Err() error { return r.err }

// Done reports decode success: the latched error if any, else an error
// when input remains — trailing bytes mean a framing bug or tampering.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Failf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Take returns the next n bytes, aliasing the input, or nil on error.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.Failf("truncated at offset %d (want %d bytes, have %d)", r.off, n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Varint reads a zigzag varint (binary.AppendVarint). Empty,
// truncated, overflowing and non-minimal encodings all fail: accepting
// only the encoder's own minimal form keeps every accepted payload's
// re-encoding byte-identical.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.Failf("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Count reads a u32 element count and bounds it before the caller
// allocates: the count must not exceed max, and count × elemLen (the
// minimum encoded width of one element, at least 1) must fit in the
// bytes left. A forged count therefore cannot buy an allocation larger
// than the input it arrived in. It returns 0 on error.
func (r *Reader) Count(what string, max, elemLen int) int {
	n := int(r.U32())
	switch {
	case r.err != nil:
		return 0
	case n > max:
		r.Failf("%s count %d exceeds limit %d", what, n, max)
		return 0
	case n > (len(r.b)-r.off)/elemLen:
		r.Failf("%s count %d × %d bytes exceeds the %d bytes left", what, n, elemLen, len(r.b)-r.off)
		return 0
	}
	return n
}

// AppendHeader appends a format header: magic, then version as a
// little-endian u32.
func AppendHeader(b []byte, magic string, version uint32) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint32(b, version)
}

// Header reads and checks a header written by AppendHeader.
func (r *Reader) Header(magic string, version uint32) {
	if m := r.Take(len(magic)); string(m) != magic {
		r.Failf("bad magic %q, want %q", m, magic)
	}
	if v := r.U32(); v != version {
		r.Failf("unsupported version %d, want %d", v, version)
	}
}

// AppendCRC appends the CRC-32 (IEEE) of b[from:] — the record or file
// body the caller just appended — as a little-endian u32.
func AppendCRC(b []byte, from int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[from:]))
}

// CheckCRC verifies that b ends in the CRC-32 (IEEE) of the bytes
// before it, as AppendCRC(body, 0) writes, and returns that body. The
// error wraps sentinel.
func CheckCRC(b []byte, sentinel error) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: %d bytes cannot hold a CRC", sentinel, len(b))
	}
	body := b[:len(b)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(b[len(body):]); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x): corrupted or truncated", sentinel, want, got)
	}
	return body, nil
}
