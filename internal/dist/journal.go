package dist

// The grid journal is the coordinator's crash-durability layer: an
// append-only file of completed (cell key → confusion families)
// records, written as each wire-addressable cell completes and read
// back by `experiments -journal DIR -resume` after a coordinator
// crash, so a restarted grid re-dispatches only the cells that never
// answered. The codec follows the internal/wire rules the checkpoint
// shares — magic + version header, little-endian scalars, every length
// bounds-checked before it allocates — but CRC-guards each record
// instead of the whole file, because the file is append-only and must
// survive losing its tail. The families encoding is the result
// batch's (appendFamilies).
//
// Layout:
//
//	header: "TRGJ" | version(u32) | dim(u8)=NumApps
//	record: len(u32) | payload | crc32-IEEE(payload) (u32)
//	payload: keyLen(u16) | key | famCount(u8) | famCount × dim² varints
//
// The key is the cell's canonical wire encoding (appendCellRequest
// with ID zeroed): two requests collide exactly when they denote the
// same pure cell, so journal hits are as safe as the worker result
// cache. Decoding tolerates a torn tail — a crash can land mid-append,
// so the reader stops at the first record whose length, CRC, or body
// fails to parse and the opener truncates the file there. Records
// before the tear are intact by construction; anything after it is
// unreachable garbage. A bad header is not a tear but a refusal
// (ErrBadJournal): the file is not a journal, or was written for a
// different grid shape.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/wire"
)

const (
	journalMagic   = "TRGJ"
	journalVersion = 1
	// journalHeaderLen is magic + version + dim.
	journalHeaderLen = len(journalMagic) + 4 + 1
	// maxJournalRecord bounds one record payload: a key is well under
	// a kilobyte and families a few hundred bytes, so anything near
	// this limit is corruption, refused before allocating.
	maxJournalRecord = 1 << 20
)

// ErrBadJournal reports a file that is not a grid journal (or was
// written for an incompatible layout) — distinct from a torn tail,
// which resume handles silently.
var ErrBadJournal = errors.New("dist: bad journal")

// journalEntry is one decoded record.
type journalEntry struct {
	key      string
	families []ml.Confusion
}

// journalKey canonicalizes a cell request into its journal key: the
// v3 wire encoding with the per-grid ID zeroed, so the key is a pure
// function of (Config, scheme, app, trace ref).
func journalKey(req CellRequest) (string, error) {
	req.ID = 0
	b, err := appendCellRequest(nil, req)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// GridJournal is a durable, resumable record of completed grid cells.
// Safe for concurrent use; attach one to CoordinatorOptions.Journal.
type GridJournal struct {
	mu       sync.Mutex
	f        *os.File
	done     map[string][]ml.Confusion
	restored int
	hits     int
	appends  int
	onAppend func(total int)
}

// OpenGridJournal opens (resume=true) or creates/truncates
// (resume=false) the journal at path. On resume, every intact record
// is loaded and a torn tail — the signature of a crash mid-append —
// is truncated away; a file that is not a journal, or records a
// different confusion dimension, is refused with ErrBadJournal.
func OpenGridJournal(path string, resume bool) (*GridJournal, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	j := &GridJournal{f: f, done: make(map[string][]ml.Confusion)}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write(journalHeader()); err != nil {
			f.Close()
			return nil, fmt.Errorf("dist: journal header: %w", err)
		}
		return j, nil
	}
	entries, valid, err := readJournal(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, e := range entries {
		if _, ok := j.done[e.key]; !ok {
			j.done[e.key] = e.families
		}
	}
	j.restored = len(j.done)
	if valid != len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("dist: journal truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: journal: %w", err)
	}
	return j, nil
}

func journalHeader() []byte {
	b := wire.AppendHeader(make([]byte, 0, journalHeaderLen), journalMagic, journalVersion)
	return append(b, byte(trace.NumApps))
}

// readJournal decodes a journal image: header, then records until the
// first torn one. It returns the intact entries in file order and the
// byte offset the intact prefix ends at (callers truncate there).
// Only header-level problems are errors; record-level damage is a
// tear, by design — every record was CRC-stamped when written, so a
// bad record means the file ends in a crash's debris.
func readJournal(data []byte) (entries []journalEntry, valid int, err error) {
	h := wire.NewReader(data[:min(len(data), journalHeaderLen)], ErrBadJournal)
	h.Header(journalMagic, journalVersion)
	if dim := int(h.U8()); dim != trace.NumApps {
		h.Failf("confusion dimension %d, want %d", dim, trace.NumApps)
	}
	if err := h.Done(); err != nil {
		return nil, 0, err
	}
	off := journalHeaderLen
	for len(data)-off >= 8 {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n > maxJournalRecord || len(data)-off-8 < n {
			break // torn or implausible length
		}
		payload, err := wire.CheckCRC(data[off+4:off+8+n], ErrBadJournal)
		if err != nil {
			break // torn mid-append, or bit rot: the tail ends here
		}
		e, err := decodeJournalPayload(payload)
		if err != nil {
			break
		}
		entries = append(entries, e)
		off += 8 + n
	}
	return entries, off, nil
}

// decodeJournalPayload parses one record body.
func decodeJournalPayload(payload []byte) (journalEntry, error) {
	r := wire.NewReader(payload, ErrBadJournal)
	key := string(r.Take(int(r.U16())))
	families := readFamilies(r)
	if err := r.Done(); err != nil {
		return journalEntry{}, err
	}
	return journalEntry{key: key, families: families}, nil
}

// appendJournalRecord encodes one framed record (length, payload,
// CRC).
func appendJournalRecord(buf []byte, key string, fams []ml.Confusion) ([]byte, error) {
	if len(key) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d-byte cell key exceeds limit", ErrBadJournal, len(key))
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // length, patched below
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf, err := appendFamilies(buf, fams, ErrBadJournal)
	if err != nil {
		return nil, err
	}
	n := len(buf) - start - 4
	if n > maxJournalRecord {
		return nil, fmt.Errorf("%w: %d-byte record exceeds limit", ErrBadJournal, n)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	return wire.AppendCRC(buf, start+4), nil
}

// Lookup answers req from the journal when a completed record exists,
// counting a hit. The returned slice is the caller's to keep.
func (j *GridJournal) Lookup(req CellRequest) ([]ml.Confusion, bool) {
	key, err := journalKey(req)
	if err != nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	fams, ok := j.done[key]
	if !ok {
		return nil, false
	}
	j.hits++
	return append([]ml.Confusion(nil), fams...), true
}

// Record appends req's completed result. Re-recording a key already
// journaled is a no-op (cells are pure — the bytes would be
// identical), which is what keeps overlapping grids and resumed runs
// idempotent.
func (j *GridJournal) Record(req CellRequest, fams []ml.Confusion) error {
	key, err := journalKey(req)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[key]; ok {
		return nil
	}
	rec, err := appendJournalRecord(nil, key, fams)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("dist: journal append: %w", err)
	}
	j.done[key] = append([]ml.Confusion(nil), fams...)
	j.appends++
	if j.onAppend != nil {
		j.onAppend(j.appends)
	}
	return nil
}

// OnAppend registers a callback invoked (under the journal's lock)
// after each durable append with the running append count — the hook
// behind `experiments -dist-halt-after`, which simulates a
// coordinator crash at a chosen point.
func (j *GridJournal) OnAppend(fn func(total int)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onAppend = fn
}

// Restored reports how many distinct records resume loaded; Hits and
// Appends count this process's journal activity.
func (j *GridJournal) Restored() int { j.mu.Lock(); defer j.mu.Unlock(); return j.restored }
func (j *GridJournal) Hits() int     { j.mu.Lock(); defer j.mu.Unlock(); return j.hits }
func (j *GridJournal) Appends() int  { j.mu.Lock(); defer j.mu.Unlock(); return j.appends }

// Close closes the underlying file. The journal needs no final flush:
// every Record call wrote its framed bytes already, which is what
// makes a kill -9 mid-grid recoverable.
func (j *GridJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
