package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
)

// RecordKind discriminates what a WAL record logs: an expert assertion
// (the original record type) or one of the topology mutations a live
// session accepts — schema arrival, candidate arrival, candidate
// retirement.
type RecordKind uint8

const (
	KindAssert RecordKind = iota
	KindAddSchema
	KindAddCandidates
	KindRetire
)

// CandRecord is one appended candidate correspondence inside a
// KindAddCandidates record, in attribute full-name form.
type CandRecord struct {
	From string
	To   string
	Conf float64
}

// Record is one durably logged session operation. Candidates are
// referenced by attribute full names (as in saved sessions), so a WAL
// survives candidate reordering across versions; Seq is the record's
// position in the session's history, from 1 — a session's log holds
// its whole history, so recovery can tell a sequence gap (records that
// were never acknowledged durable) from the consecutive prefix.
//
// Field use by kind: KindAssert sets From/To (the asserted pair),
// Approved, and optionally Annotator. KindAddSchema sets Schema and
// Attrs. KindAddCandidates sets Cands. KindRetire sets From/To (the
// retired pair). Unused fields are zero.
type Record struct {
	Seq       uint64
	Kind      RecordKind
	Annotator string
	From      string
	To        string
	Approved  bool
	Schema    string       // KindAddSchema
	Attrs     []string     // KindAddSchema
	Cands     []CandRecord // KindAddCandidates
}

// SyncPolicy says when an Append call fsyncs the log.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per Append call, after all its records —
	// a committed batch is durable, records inside it ride together.
	// This is the default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every individual record, even within a
	// batch. Maximum durability, one fsync per assertion.
	SyncAlways
	// SyncNone never fsyncs on append; records become durable at the
	// operating system's discretion, or at the next Sync, Rewrite, or
	// Close. A crash may lose a suffix of acknowledged records (never
	// a middle slice — the log is strictly append-ordered).
	SyncNone
)

// ParsePolicy resolves the configuration strings "always", "batch"
// (or ""), and "none".
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want \"always\", \"batch\", or \"none\")", s)
	}
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// On-disk format. The file is a 7-byte magic header followed by
// frames; each frame is a 4-byte little-endian payload length, a
// 4-byte little-endian CRC32C (Castagnoli) of the payload, and the
// payload itself:
//
//	seq       uint64 LE
//	flags     uint8            (bits 1–2 = record kind; bit 0 = approved,
//	                            valid only for kind 0; other bits reserved)
//	annotator uvarint len + bytes
//	from      uvarint len + bytes
//	to        uvarint len + bytes
//	          ... kind-specific section:
//	kind 0 (assert):          nothing further
//	kind 1 (add-schema):      schema uvarint len + bytes,
//	                          uvarint attr count, each attr len + bytes
//	kind 2 (add-candidates):  uvarint candidate count, each candidate as
//	                          from len + bytes, to len + bytes,
//	                          conf float64 bits uint64 LE
//	kind 3 (retire):          nothing further (from/to name the pair)
//
// A record is valid only if the length is sane, the CRC matches, the
// payload decodes consuming every byte, no reserved flag bit is set,
// the approved bit is clear on non-assert kinds, and its seq strictly
// exceeds the previous record's — so a torn or corrupted tail is
// always detected and recovery returns exactly the longest valid
// record prefix.
const (
	headerLen    = 7
	frameLen     = 8 // length + crc
	maxRecordLen = 1 << 20
)

var magic = [headerLen]byte{'S', 'N', 'W', 'A', 'L', '1', '\n'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendPayload encodes r's payload (everything inside the frame).
func appendPayload(buf []byte, r Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	flags := byte(r.Kind) << 1
	if r.Approved {
		flags |= 1
	}
	buf = append(buf, flags)
	appendString := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	appendString(r.Annotator)
	appendString(r.From)
	appendString(r.To)
	switch r.Kind {
	case KindAddSchema:
		appendString(r.Schema)
		buf = binary.AppendUvarint(buf, uint64(len(r.Attrs)))
		for _, a := range r.Attrs {
			appendString(a)
		}
	case KindAddCandidates:
		buf = binary.AppendUvarint(buf, uint64(len(r.Cands)))
		for _, c := range r.Cands {
			appendString(c.From)
			appendString(c.To)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Conf))
		}
	}
	return buf
}

// AppendRecord appends r's full frame to buf.
func AppendRecord(buf []byte, r Record) []byte {
	payload := appendPayload(nil, r)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// EncodeLog renders a complete log file: header plus one frame per
// record. Recover(EncodeLog(recs)) returns recs with a clean tail.
func EncodeLog(recs []Record) []byte {
	buf := append([]byte(nil), magic[:]...)
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	return buf
}

// decodePayload decodes one frame payload; ok is false unless the
// payload is well-formed and fully consumed.
func decodePayload(p []byte) (r Record, ok bool) {
	if len(p) < 9 {
		return r, false
	}
	r.Seq = binary.LittleEndian.Uint64(p)
	flags := p[8]
	if flags&^0b111 != 0 {
		return r, false
	}
	r.Kind = RecordKind(flags >> 1)
	r.Approved = flags&1 != 0
	if r.Approved && r.Kind != KindAssert {
		return r, false
	}
	p = p[9:]
	// Reject non-canonical (padded) varints too: a valid payload must
	// round-trip to the exact bytes it was parsed from, so recovery's
	// "longest valid prefix" is also re-encodable.
	takeUvarint := func() (uint64, bool) {
		n, sz := binary.Uvarint(p)
		if sz <= 0 || sz != uvarintLen(n) {
			return 0, false
		}
		p = p[sz:]
		return n, true
	}
	takeString := func(dst *string) bool {
		n, ok := takeUvarint()
		if !ok || n > uint64(len(p)) {
			return false
		}
		*dst = string(p[:n])
		p = p[n:]
		return true
	}
	if !takeString(&r.Annotator) || !takeString(&r.From) || !takeString(&r.To) {
		return r, false
	}
	switch r.Kind {
	case KindAssert, KindRetire:
		// No kind-specific section.
	case KindAddSchema:
		if !takeString(&r.Schema) {
			return r, false
		}
		n, ok := takeUvarint()
		if !ok || n > uint64(len(p)) { // each attr needs ≥ 1 byte
			return r, false
		}
		r.Attrs = make([]string, n)
		for i := range r.Attrs {
			if !takeString(&r.Attrs[i]) {
				return r, false
			}
		}
	case KindAddCandidates:
		n, ok := takeUvarint()
		if !ok || n > uint64(len(p))/10 { // each candidate needs ≥ 10 bytes
			return r, false
		}
		r.Cands = make([]CandRecord, n)
		for i := range r.Cands {
			if !takeString(&r.Cands[i].From) || !takeString(&r.Cands[i].To) {
				return r, false
			}
			if len(p) < 8 {
				return r, false
			}
			r.Cands[i].Conf = math.Float64frombits(binary.LittleEndian.Uint64(p))
			p = p[8:]
		}
	default:
		return r, false
	}
	return r, len(p) == 0
}

// uvarintLen returns the canonical encoded size of n.
func uvarintLen(n uint64) int {
	sz := 1
	for n >= 0x80 {
		n >>= 7
		sz++
	}
	return sz
}

// RecoverResult describes what Recover found.
type RecoverResult struct {
	// ValidLen is the byte length of the longest valid prefix: the
	// header plus every fully intact record. 0 when the header itself
	// is missing or corrupt.
	ValidLen int
	// Tail is non-nil when bytes beyond ValidLen were dropped — a torn
	// or corrupt tail, expected after a crash mid-append. It describes
	// the first defect; everything after it is untrusted.
	Tail error
}

// Clean reports whether the whole input was valid.
func (r RecoverResult) Clean() bool { return r.Tail == nil }

// Recover scans a log image and returns every record of its longest
// valid prefix. It never fails: a truncated or corrupt tail — the
// expected shape after a crash mid-append — is dropped and described
// in the result's Tail, for the caller to log. Pure function; Open
// wraps it with the file handling.
func Recover(data []byte) ([]Record, RecoverResult) {
	drop := func(pos int, format string, args ...any) RecoverResult {
		return RecoverResult{
			ValidLen: pos,
			Tail: fmt.Errorf("wal: dropping %d byte(s) at offset %d: %s",
				len(data)-pos, pos, fmt.Sprintf(format, args...)),
		}
	}
	if len(data) < headerLen || [headerLen]byte(data[:headerLen]) != magic {
		if len(data) == 0 {
			return nil, RecoverResult{}
		}
		return nil, drop(0, "missing or corrupt header")
	}
	var recs []Record
	pos := headerLen
	lastSeq := uint64(0)
	for pos < len(data) {
		rest := data[pos:]
		if len(rest) < frameLen {
			return recs, drop(pos, "torn frame header")
		}
		length := int(binary.LittleEndian.Uint32(rest))
		if length > maxRecordLen {
			return recs, drop(pos, "implausible record length %d", length)
		}
		if len(rest) < frameLen+length {
			return recs, drop(pos, "torn record payload (%d of %d bytes)", len(rest)-frameLen, length)
		}
		payload := rest[frameLen : frameLen+length]
		if crc := crc32.Checksum(payload, castagnoli); crc != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, drop(pos, "checksum mismatch")
		}
		r, ok := decodePayload(payload)
		if !ok {
			return recs, drop(pos, "malformed record payload")
		}
		if r.Seq <= lastSeq { // covers Seq == 0: sequence numbers start at 1
			return recs, drop(pos, "sequence regression (%d after %d)", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		recs = append(recs, r)
		pos += frameLen + length
	}
	return recs, RecoverResult{ValidLen: pos}
}

// Log is an open append handle on one session's WAL file.
type Log struct {
	fs      FS
	dir     string // containing directory, for SyncDir
	path    string
	policy  SyncPolicy
	f       File
	lastSeq uint64
	closed  bool
}

// Open recovers the WAL at path (creating an empty one if missing) and
// returns an append handle positioned after the last valid record,
// together with the recovered records and the recovery result (log
// result.Tail if non-nil). A torn or corrupt tail is physically
// truncated — atomically, via rewrite-and-rename — before the handle
// is returned, so subsequent appends extend the valid prefix rather
// than burying garbage inside the file.
func Open(fsys FS, dir, path string, policy SyncPolicy) (*Log, []Record, RecoverResult, error) {
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, RecoverResult{}, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	recs, res := Recover(data)
	if os.IsNotExist(err) || !res.Clean() || res.ValidLen == 0 {
		// Fresh log, or a defective one: atomically rewrite the valid
		// prefix (just the header when there is none).
		valid := EncodeLog(recs)
		if res.ValidLen >= headerLen {
			valid = data[:res.ValidLen]
		}
		if werr := AtomicWriteFile(fsys, dir, path, valid); werr != nil {
			return nil, nil, res, fmt.Errorf("wal: truncating %s to valid prefix: %w", path, werr)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, res, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	l := &Log{fs: fsys, dir: dir, path: path, policy: policy, f: f}
	if n := len(recs); n > 0 {
		l.lastSeq = recs[n-1].Seq
	}
	return l, recs, res, nil
}

// LastSeq returns the highest sequence number the log has seen —
// recovered, appended, or rewritten.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Append writes the records to the log and syncs per the policy. Every
// record's Seq must strictly exceed the previous one's; violating that
// fails before anything is written. On return with a nil error under
// SyncAlways or SyncBatch, the records are durable.
func (l *Log) Append(recs ...Record) error {
	if l.closed {
		return fmt.Errorf("wal: %s: append on closed log", l.path)
	}
	seq := l.lastSeq
	for _, r := range recs {
		if r.Seq <= seq {
			return fmt.Errorf("wal: %s: non-monotonic sequence %d after %d", l.path, r.Seq, seq)
		}
		seq = r.Seq
	}
	if l.policy == SyncAlways {
		for _, r := range recs {
			if err := l.write(AppendRecord(nil, r)); err != nil {
				return err
			}
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: %s: sync: %w", l.path, err)
			}
			l.lastSeq = r.Seq
		}
		return nil
	}
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	if err := l.write(buf); err != nil {
		return err
	}
	l.lastSeq = seq
	if l.policy == SyncBatch {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %s: sync: %w", l.path, err)
		}
	}
	return nil
}

func (l *Log) write(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: %s: append: %w", l.path, err)
	}
	return nil
}

// Sync forces the log to disk regardless of policy.
func (l *Log) Sync() error {
	if l.closed {
		return fmt.Errorf("wal: %s: sync on closed log", l.path)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %s: sync: %w", l.path, err)
	}
	return nil
}

// Rewrite atomically replaces the log with exactly recs — the session
// store's heal after a failed append, and its one-time migration of a
// legacy snapshot into the log — and sets the sequence cursor to the
// last rewritten seq (0 when recs is empty), so later appends continue
// the rewritten numbering. recs must be in strictly increasing seq
// order, as Recover requires; a violation fails before anything is
// touched. Rewrite also repairs a log whose handle was lost to an
// earlier failure (it reopens from scratch). On failure the Log stays
// closed; a later Rewrite may still succeed.
func (l *Log) Rewrite(recs []Record) error {
	seq := uint64(0)
	for _, r := range recs {
		if r.Seq <= seq {
			return fmt.Errorf("wal: %s: rewrite with non-monotonic sequence %d after %d", l.path, r.Seq, seq)
		}
		seq = r.Seq
	}
	if !l.closed {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %s: closing before rewrite: %w", l.path, err)
		}
		l.closed = true
	}
	if err := AtomicWriteFile(l.fs, l.dir, l.path, EncodeLog(recs)); err != nil {
		return fmt.Errorf("wal: rewriting %s: %w", l.path, err)
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("wal: reopening %s after rewrite: %w", l.path, err)
	}
	l.f = f
	l.closed = false
	l.lastSeq = seq
	return nil
}

// Close syncs and closes the log. Closing a closed log is a no-op.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: closing %s: %w", l.path, err)
	}
	return nil
}

// AtomicWriteFile durably replaces path with data: write to a
// sibling .tmp, fsync it, rename over path, fsync the directory. A
// crash at any point leaves either the old file or the new one —
// never a mixture, never a missing file (when one existed).
func AtomicWriteFile(fsys FS, dir, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
