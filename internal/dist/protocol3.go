package dist

// Protocol v3 payload codec: batched binary cell dispatch read through
// internal/wire — little-endian, versioned, every length
// bounds-checked before it allocates. The coordinator packs many cells
// into one cell-batch frame (sized to the receiving worker's slots)
// and a worker packs many answers into one result-batch frame, so
// framing and syscalls amortize over the batch; captured trace
// preloads ship flate-compressed. The outer kind|length framing is
// protocol.go's.
//
// Payload layouts (all little-endian):
//
//	cell-batch:   ver(u8)=1 | dim(u8)=NumApps | count(u16) | count × request
//	request:      id(u64) | seed(u64) | train(i64) | test(i64) | w(i64)
//	              | schemeLen(u16) | scheme | app(u8)<NumApps | hasRef(u8)
//	              | [ref when hasRef=1]
//	ref:          trainCount(u8) | trainCount × slot
//	              | testCount(u8) | testCount × slot
//	slot:         present(u8) | [32 raw digest bytes when present=1]
//	result-batch: ver(u8)=1 | dim(u8)=NumApps | count(u16) | count × result
//	result:       id(u64) | errLen(u16) | err | cached(u8)
//	              | famCount(u8) | famCount × dim² varint cells
//	trace-z:      app(u8) | flate(binary trace codec)
//
// Digests travel as raw SHA-256 bytes (half the hex wire size); the
// decoder re-hexes them, so any accepted ref round-trips to canonical
// lowercase form. Confusion cells use zigzag varints — the matrices
// are mostly near-zero counts, so a 7×7 matrix typically encodes in
// ~60 bytes instead of 392.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"

	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/wire"
)

const (
	// batchVersion stamps the inner payload layout of cell-batch and
	// result-batch frames, independent of the session protocol number.
	batchVersion = 1
	// maxBatchCells bounds one batch frame. The coordinator never
	// sends more cells than a worker has slots (≤ 64); the decoder
	// allows headroom but refuses a corrupt count before allocating.
	maxBatchCells = 4096
	// maxSchemeName bounds a scheme wire name. The longest registered
	// name today is ~50 bytes.
	maxSchemeName = 256
	// maxRefSlots bounds the per-role slot count of a trace ref
	// (trace.NumApps today, headroom for profile growth).
	maxRefSlots = 64
	// maxFamilies bounds the classifier families in one result (4
	// today).
	maxFamilies = 16
	// digestRawLen is a raw SHA-256 digest.
	digestRawLen = 32
	// maxTraceZBytes bounds a trace-z frame's decompressed stream: at
	// ~40 bytes per packet record this is ~1.6M packets, an order of
	// magnitude beyond any captured trace the experiments ship. The
	// tight bound is what keeps a decompression bomb's cost bounded —
	// a tiny hostile frame can otherwise buy a gigabyte of inflate
	// work before the trace decoder's own checks see a single byte.
	maxTraceZBytes = 64 << 20
)

// --- cell batches ------------------------------------------------------------

func appendRefSlots(buf []byte, slots []string) ([]byte, error) {
	if len(slots) > maxRefSlots {
		return nil, fmt.Errorf("%w: %d ref slots exceed limit", ErrBadFrame, len(slots))
	}
	buf = append(buf, byte(len(slots)))
	for _, d := range slots {
		if d == "" {
			buf = append(buf, 0)
			continue
		}
		raw, err := hex.DecodeString(d)
		if err != nil || len(raw) != digestRawLen {
			return nil, fmt.Errorf("%w: ref digest %q is not a hex SHA-256", ErrBadFrame, d)
		}
		buf = append(buf, 1)
		buf = append(buf, raw...)
	}
	return buf, nil
}

func readRefSlots(r *wire.Reader) []string {
	n := int(r.U8())
	if n > maxRefSlots {
		r.Failf("%d ref slots exceed limit", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	slots := make([]string, n)
	for i := range slots {
		if r.U8() == 1 {
			if raw := r.Take(digestRawLen); raw != nil {
				slots[i] = hex.EncodeToString(raw)
			}
		}
	}
	return slots
}

func appendCellRequest(buf []byte, req CellRequest) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, req.ID)
	buf = binary.LittleEndian.AppendUint64(buf, req.Cfg.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Cfg.TrainDuration))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Cfg.TestDuration))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(req.Cfg.W))
	if len(req.Scheme) > maxSchemeName {
		return nil, fmt.Errorf("%w: %d-byte scheme name exceeds limit", ErrBadFrame, len(req.Scheme))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Scheme)))
	buf = append(buf, req.Scheme...)
	if int(req.App) >= trace.NumApps {
		return nil, fmt.Errorf("%w: app %d out of range", ErrBadFrame, req.App)
	}
	buf = append(buf, byte(req.App))
	if req.Traces == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	var err error
	if buf, err = appendRefSlots(buf, req.Traces.Train); err != nil {
		return nil, err
	}
	return appendRefSlots(buf, req.Traces.Test)
}

func readCellRequest(r *wire.Reader) CellRequest {
	var req CellRequest
	req.ID = r.U64()
	req.Cfg.Seed = r.U64()
	req.Cfg.TrainDuration = time.Duration(r.U64())
	req.Cfg.TestDuration = time.Duration(r.U64())
	req.Cfg.W = time.Duration(r.U64())
	n := int(r.U16())
	if n > maxSchemeName {
		r.Failf("%d-byte scheme name exceeds limit", n)
		return req
	}
	req.Scheme = string(r.Take(n))
	// An out-of-range app has no dataset to evaluate against: it would
	// crash the worker on a nil dereference, so refuse it here.
	if req.App = trace.App(r.U8()); int(req.App) >= trace.NumApps {
		r.Failf("app %d out of range", req.App)
	}
	if r.U8() == 1 {
		ref := experiments.TraceSetRef{Train: readRefSlots(r), Test: readRefSlots(r)}
		req.Traces = &ref
	}
	return req
}

// EncodeCellBatch frames a batch of cell requests as one binary v3
// frame, amortizing framing and syscalls over the whole batch.
func EncodeCellBatch(w io.Writer, reqs []CellRequest) error {
	if len(reqs) == 0 || len(reqs) > maxBatchCells {
		return fmt.Errorf("%w: cell batch of %d", ErrBadFrame, len(reqs))
	}
	buf := make([]byte, 0, 64*len(reqs))
	buf = append(buf, batchVersion, byte(trace.NumApps))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(reqs)))
	var err error
	for _, req := range reqs {
		if buf, err = appendCellRequest(buf, req); err != nil {
			return err
		}
	}
	return writeFrame(w, kindCellBatch, buf)
}

// readBatchHeader validates the shared ver|dim|count prefix and
// returns the cell count, 0 on error.
func readBatchHeader(r *wire.Reader) int {
	if v := r.U8(); v != batchVersion {
		r.Failf("batch payload version %d, want %d", v, batchVersion)
	}
	if d := r.U8(); int(d) != trace.NumApps {
		r.Failf("confusion dimension %d, want %d", d, trace.NumApps)
	}
	n := int(r.U16())
	if n == 0 || n > maxBatchCells {
		r.Failf("batch of %d cells", n)
	}
	if r.Err() != nil {
		return 0
	}
	return n
}

func decodeCellBatch(payload []byte) ([]CellRequest, error) {
	r := wire.NewReader(payload, ErrBadFrame)
	n := readBatchHeader(r)
	reqs := make([]CellRequest, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		reqs = append(reqs, readCellRequest(r))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// --- result batches ----------------------------------------------------------

func appendCellResult(buf []byte, res CellResult) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, res.ID)
	if len(res.Err) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d-byte error string exceeds limit", ErrBadFrame, len(res.Err))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.Err)))
	buf = append(buf, res.Err...)
	var cached byte
	if res.Cached {
		cached = 1
	}
	buf = append(buf, cached)
	return appendFamilies(buf, res.Families, ErrBadFrame)
}

func readCellResult(r *wire.Reader) CellResult {
	var res CellResult
	res.ID = r.U64()
	res.Err = string(r.Take(int(r.U16())))
	res.Cached = r.U8() == 1
	res.Families = readFamilies(r)
	return res
}

// appendFamilies encodes per-family confusion matrices as
// famCount(u8) | famCount × dim² zigzag varints — the layout result
// batches and journal records share. Too many families is an error
// wrapping sentinel.
func appendFamilies(buf []byte, fams []ml.Confusion, sentinel error) ([]byte, error) {
	if len(fams) > maxFamilies {
		return nil, fmt.Errorf("%w: %d families exceed limit", sentinel, len(fams))
	}
	buf = append(buf, byte(len(fams)))
	for _, fam := range fams {
		for row := range fam {
			for col := range fam[row] {
				buf = binary.AppendVarint(buf, int64(fam[row][col]))
			}
		}
	}
	return buf, nil
}

// readFamilies decodes appendFamilies' layout; no families decode to
// nil.
func readFamilies(r *wire.Reader) []ml.Confusion {
	n := int(r.U8())
	if n > maxFamilies {
		r.Failf("%d families exceed limit", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	fams := make([]ml.Confusion, n)
	for f := range fams {
		for row := range fams[f] {
			for col := range fams[f][row] {
				fams[f][row][col] = int(r.Varint())
			}
		}
	}
	return fams
}

// EncodeResultBatch frames a batch of cell results as one binary v3
// frame.
func EncodeResultBatch(w io.Writer, results []CellResult) error {
	if len(results) == 0 || len(results) > maxBatchCells {
		return fmt.Errorf("%w: result batch of %d", ErrBadFrame, len(results))
	}
	buf := make([]byte, 0, 128*len(results))
	buf = append(buf, batchVersion, byte(trace.NumApps))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(results)))
	var err error
	for _, res := range results {
		if buf, err = appendCellResult(buf, res); err != nil {
			return err
		}
	}
	return writeFrame(w, kindResultBatch, buf)
}

func decodeResultBatch(payload []byte) ([]CellResult, error) {
	r := wire.NewReader(payload, ErrBadFrame)
	n := readBatchHeader(r)
	results := make([]CellResult, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		results = append(results, readCellResult(r))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return results, nil
}

// --- compressed trace preloads -----------------------------------------------

// EncodeTraceCompressed frames a trace payload with the binary trace
// codec flate-compressed — the v3 preload path. Synthetic-looking
// 40-byte packet records compress severalfold, which matters because
// a captured preload is the largest transfer a fleet makes.
func EncodeTraceCompressed(w io.Writer, p TracePayload) error {
	var buf bytes.Buffer
	buf.WriteByte(byte(p.App))
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return err
	}
	if err := trace.WriteBinary(zw, p.Trace); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return writeFrame(w, kindTraceZ, buf.Bytes())
}

// decodeTraceZ parses a kindTraceZ payload. The decompressed stream is
// hard-bounded at maxTraceZBytes before the trace decoder sees it, so
// a tiny frame cannot inflate into unbounded allocation or work (the
// trace decoder's own packet-count bound then applies on top; a
// truncated-at-the-bound stream fails its record parse).
func decodeTraceZ(payload []byte) (TracePayload, error) {
	if len(payload) < 1 {
		return TracePayload{}, fmt.Errorf("%w: empty trace-z payload", ErrBadFrame)
	}
	zr := flate.NewReader(bytes.NewReader(payload[1:]))
	defer zr.Close()
	tr, err := trace.ReadBinary(io.LimitReader(zr, maxTraceZBytes))
	if err != nil {
		return TracePayload{}, fmt.Errorf("%w: trace-z: %v", ErrBadFrame, err)
	}
	return TracePayload{App: trace.App(payload[0]), Trace: tr}, nil
}
