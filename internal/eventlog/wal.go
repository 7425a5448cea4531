package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gremlin/internal/pattern"
)

// FsyncPolicy selects how aggressively a shard's write-ahead log is
// synced to stable storage. Every append is written to the kernel with a
// single write() before it is acknowledged regardless of policy, so a
// SIGKILL'd store never loses acknowledged records; the policy only
// governs what survives a whole-machine crash (power loss).
type FsyncPolicy string

// Fsync policies.
const (
	// FsyncAlways fsyncs after every append batch: maximum durability,
	// one disk flush per shipped batch.
	FsyncAlways FsyncPolicy = "always"

	// FsyncInterval fsyncs dirty segments from a background loop on the
	// store's FsyncInterval cadence (default 100ms): bounded data loss on
	// power failure, near-zero append-path cost. The default.
	FsyncInterval FsyncPolicy = "interval"

	// FsyncNever leaves flushing to the OS entirely.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string (as passed to
// `gremlin-logstore -fsync`).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch p := FsyncPolicy(s); p {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return p, nil
	case "":
		return FsyncInterval, nil
	}
	return "", fmt.Errorf("eventlog: bad fsync policy %q (want always, interval, or never)", s)
}

// walLine is one decoded WAL line: either a record (the Record fields) or
// a tombstone ({"clear":"<pattern>"} — "*" clears everything, which is
// also how a compacted snapshot segment begins).
type walLine struct {
	Clear *string `json:"clear,omitempty"`
	Record
}

// unmarshalWALLine decodes the lines the record codec leaves alone:
// tombstones, and records in any form but the canonical one. It is its
// own function so that replay allocates a walLine only for those.
func unmarshalWALLine(line []byte) (walLine, error) {
	var wl walLine
	err := json.Unmarshal(line, &wl)
	return wl, err
}

// clearLine encodes a tombstone for idPattern.
func clearLine(idPattern string) ([]byte, error) {
	b, err := json.Marshal(struct {
		Clear string `json:"clear"`
	}{idPattern})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// clearAllLine encodes the tombstone that clears everything, which is also
// the marker a compacted snapshot opens with. It carries the log's
// high-water seq hi: replay may drop the segments before it, and with
// them the last lines that held hi.
func clearAllLine(hi uint64) []byte {
	line := []byte(`{"clear":"*"`)
	if hi > 0 {
		line = strconv.AppendUint(append(line, `,"seq":`...), hi, 10)
	}
	return append(line, "}\n"...)
}

// seqKey opens every record line that carries a seq, and clearKey every
// tombstone the store writes.
var seqKey, clearKey = []byte(`{"seq":`), []byte(`{"clear":`)

// leadingSeq returns the seq a line opens with — seqKey, then a decimal
// without leading zeros, then a comma — or ok=false.
func leadingSeq(line []byte) (seq uint64, ok bool) {
	digits, found := bytes.CutPrefix(line, seqKey)
	if !found || len(digits) == 0 || digits[0] == '0' {
		return 0, false
	}
	for _, c := range digits {
		if c == ',' {
			return seq, true
		}
		if c < '0' || c > '9' || seq > (math.MaxUint64-9)/10 {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return 0, false
}

// appendJournal appends, as the WAL line of the record decoded from line
// in canonical form, that line under seq: seqKey, seq and a comma, then
// the line past its '{' and past the seq it may carry. It decodes to the
// record with seq as its seq, and for a line AppendRecord wrote it is what
// AppendRecord writes for that record. A canonical seq is plain digits,
// and the record has a timestamp, so a comma ends the seq the line carries.
func appendJournal(dst []byte, seq uint64, line []byte) []byte {
	rest := line[1:]
	if bytes.HasPrefix(line, seqKey) {
		rest = line[bytes.IndexByte(line, ',')+1:]
	}
	dst = strconv.AppendUint(append(dst, seqKey...), seq, 10)
	return append(append(dst, ','), rest...)
}

// segIO is a pooled pair of segment buffers: replay reads a segment
// through r, and compaction reads the old segments through r and writes
// the snapshot through w.
type segIO struct {
	r *bufio.Reader
	w *bufio.Writer
}

var segIOPool = sync.Pool{New: func() any {
	return &segIO{r: bufio.NewReaderSize(nil, 256<<10), w: bufio.NewWriterSize(nil, 256<<10)}
}}

func getSegIO() *segIO { return segIOPool.Get().(*segIO) }

// put returns the buffers to the pool, letting go of their files.
func (sio *segIO) put() {
	sio.r.Reset(nil)
	sio.w.Reset(nil)
	segIOPool.Put(sio)
}

// wal is one shard's write-ahead log: append-only JSONL segment files
// (`00000001.wal`, `00000002.wal`, ...) in a directory, size-rotated, with
// compaction rewriting the live set behind a `{"clear":"*","seq":N}`
// marker so replay of the segment sequence always reproduces the exact
// pre-crash state. Record lines use the store's ordinary Record JSON, so
// segments double as plain JSONL dumps readable by standard log tooling.
//
// Every record line the store writes opens with its seq, and within a
// shard seqs rise, so compaction finds each live record's line by its seq
// and copies it; see compact.
type wal struct {
	dir    string
	policy FsyncPolicy
	maxSeg int64

	mu       sync.Mutex
	f        *os.File
	seg      int   // current (open) segment index
	segBytes int64 // bytes in the current segment
	segCount int   // segment files on disk, including the open one
	allBytes int64 // bytes across all segments
	closed   bool

	dirty       bool // unsynced writes under FsyncInterval
	replayed    int  // records recovered at open
	garbage     int  // record lines on disk that are no longer live
	compactions uint64
	copies      uint64 // compactions that copied the live lines

	// hiSeq is the highest seq the log has held, on a record line or a
	// clear-all tombstone, cleared records' included. opaque reports a
	// replayed record line not known to open with the seq it decodes to
	// — one without a seq, or one only encoding/json decodes — whose
	// record compaction cannot find by seq, so the next snapshot is
	// encoded. The shard's gate guards both.
	hiSeq  uint64
	opaque bool
}

func segName(idx int) string { return fmt.Sprintf("%08d.wal", idx) }

// openWAL opens (creating if needed) the shard WAL in dir and replays it,
// returning the recovered records in append order with their original
// sequence numbers. A torn trailing line — the tail of a write cut short
// by a crash — is truncated away, never fatal; it can only hold a record
// that was not yet acknowledged.
func openWAL(dir string, policy FsyncPolicy, maxSeg int64) (*wal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("eventlog: wal: %w", err)
	}
	w := &wal{dir: dir, policy: policy, maxSeg: maxSeg}

	segs, err := w.listSegments()
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	lastClearAll := -1
	lines := make([]int, len(segs)) // record lines per segment
	for i, idx := range segs {
		recs, lines[i], err = w.replaySegment(idx, recs, &lastClearAll)
		if err != nil {
			return nil, nil, err
		}
	}
	// Segments wholly before the last clear-all marker can never affect
	// replay again — a crash between a compaction's rename and its
	// deletes leaves exactly these behind. The record lines of the
	// segments that stay and are not live are the log's garbage.
	for i, idx := range segs {
		if idx < lastClearAll {
			_ = os.Remove(filepath.Join(dir, segName(idx)))
		} else {
			w.garbage += lines[i]
		}
	}
	w.garbage -= len(recs)

	// Append into the newest segment (or a fresh first one), rotating
	// immediately if it is already over the size bound.
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1]
	}
	if err := w.openSegment(next); err != nil {
		return nil, nil, err
	}
	if err := w.recount(); err != nil {
		return nil, nil, err
	}
	if w.segBytes >= w.maxSeg {
		if err := w.rotateLocked(); err != nil {
			return nil, nil, err
		}
	}
	w.replayed = len(recs)
	return w, recs, nil
}

// listSegments returns the on-disk segment indices in ascending order.
func (w *wal) listSegments() ([]int, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: wal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(name, ".wal"))
		if err != nil || idx < 1 {
			continue
		}
		segs = append(segs, idx)
	}
	sort.Ints(segs)
	return segs, nil
}

// replaySegment applies one segment's lines to recs and counts its record
// lines. lastClearAll is updated to this segment's index whenever a
// clear-all tombstone is seen.
func (w *wal) replaySegment(idx int, recs []Record, lastClearAll *int) (_ []Record, lines int, _ error) {
	path := filepath.Join(w.dir, segName(idx))
	f, err := os.Open(path)
	if err != nil {
		return recs, 0, fmt.Errorf("eventlog: wal: %w", err)
	}
	defer f.Close()

	sio := getSegIO()
	defer sio.put()
	br := sio.r
	br.Reset(f)
	var (
		d      recordDecoder
		long   []byte
		offset int64
	)
	for {
		line, err := readLine(br, &long)
		if err != nil && !errors.Is(err, io.EOF) {
			return recs, lines, fmt.Errorf("eventlog: wal: read %s: %w", path, err)
		}
		torn := err != nil // EOF before the terminating newline
		if len(line) > 0 && !torn {
			var rec Record
			if d.line(line, &rec) {
				recs = append(recs, rec)
				lines++
				w.noteReplayed(rec.Seq, bytes.HasPrefix(line, seqKey))
			} else if wl, derr := unmarshalWALLine(line); derr != nil {
				// A malformed line mid-file means the segment itself is
				// corrupt; a malformed final line is a torn write.
				if _, perr := br.Peek(1); perr == nil {
					return recs, lines, fmt.Errorf("eventlog: wal: %s offset %d: %w", path, offset, derr)
				}
				torn = true
			} else if wl.Clear != nil {
				w.hiSeq = max(w.hiSeq, wl.Seq)
				if *wl.Clear == "" || *wl.Clear == "*" {
					recs = recs[:0]
					*lastClearAll = idx
				} else {
					pat, perr := pattern.Compile(*wl.Clear)
					if perr != nil {
						return recs, lines, fmt.Errorf("eventlog: wal: %s offset %d: %w", path, offset, perr)
					}
					kept := recs[:0]
					for _, r := range recs {
						if !pat.Match(r.RequestID) {
							kept = append(kept, r)
						}
					}
					recs = kept
				}
			} else {
				recs = append(recs, wl.Record)
				lines++
				w.noteReplayed(wl.Seq, false)
			}
		}
		if torn && len(line) > 0 {
			// Truncate the torn tail so the next append starts on a clean
			// line boundary.
			if terr := os.Truncate(path, offset); terr != nil {
				return recs, lines, fmt.Errorf("eventlog: wal: truncate torn line in %s: %w", path, terr)
			}
			break
		}
		offset += int64(len(line))
		if err != nil {
			break
		}
	}
	return recs, lines, nil
}

// noteReplayed notes a replayed record line that decoded to seq and, when
// opensWithSeq, is known to open with it.
func (w *wal) noteReplayed(seq uint64, opensWithSeq bool) {
	w.hiSeq = max(w.hiSeq, seq)
	if !opensWithSeq {
		w.opaque = true
	}
}

// readLine returns br's next line with its newline, valid until the next
// read; at the end of input it returns what is left with io.EOF. A line
// br's buffer cannot hold is assembled in *long.
func readLine(br *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	*long = append((*long)[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = br.ReadSlice('\n')
		*long = append(*long, line...)
	}
	return *long, err
}

// openSegment opens segment idx for appending, creating it if absent.
func (w *wal) openSegment(idx int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(idx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("eventlog: wal: %w", err)
	}
	w.f, w.seg, w.segBytes = f, idx, st.Size()
	return nil
}

// recount refreshes the on-disk totals (segment count and bytes).
func (w *wal) recount() error {
	segs, err := w.listSegments()
	if err != nil {
		return err
	}
	w.segCount = len(segs)
	w.allBytes = 0
	for _, idx := range segs {
		if st, err := os.Stat(filepath.Join(w.dir, segName(idx))); err == nil {
			w.allBytes += st.Size()
		}
	}
	return nil
}

// append writes one batch of records as JSONL with a single write(),
// rotating and fsyncing per policy. A non-zero base stamps each line as
// stamp does record i with seq base+i, on a copy, so the batch is left as
// it came; base 0 writes the records with the seqs they carry. Record i,
// for i < len(lines), was decoded from lines[i] in canonical form; unless
// that is nil or the record has no timestamp, which stamping changes, its
// WAL line is that line under its seq (appendJournal), not encoded again.
func (w *wal) append(recs []Record, lines [][]byte, base uint64, now time.Time) error {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	b := (*bp)[:0]
	for i := range recs {
		r := &recs[i]
		seq := r.Seq
		if base > 0 {
			seq = base + uint64(i)
		}
		if i < len(lines) && lines[i] != nil && !r.Timestamp.IsZero() {
			b = appendJournal(b, seq, lines[i])
		} else {
			if base > 0 {
				stamped := *r
				stamp(&stamped, seq, now)
				r = &stamped
			}
			var err error
			if b, err = AppendRecord(b, r); err != nil {
				return fmt.Errorf("eventlog: wal: encode: %w", err)
			}
		}
		b = append(b, '\n')
		w.hiSeq = max(w.hiSeq, seq)
	}
	*bp = b
	return w.write(b)
}

// appendClear writes a tombstone for idPattern.
func (w *wal) appendClear(idPattern string) error {
	if idPattern == "" || idPattern == "*" {
		return w.write(clearAllLine(w.hiSeq))
	}
	line, err := clearLine(idPattern)
	if err != nil {
		return fmt.Errorf("eventlog: wal: encode tombstone: %w", err)
	}
	return w.write(line)
}

func (w *wal) write(b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("eventlog: wal: closed")
	}
	n, err := w.f.Write(b)
	w.segBytes += int64(n)
	w.allBytes += int64(n)
	if err != nil {
		return fmt.Errorf("eventlog: wal: %w", err)
	}
	if w.policy == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("eventlog: wal: sync: %w", err)
		}
	} else {
		w.dirty = true
	}
	if w.segBytes >= w.maxSeg {
		return w.rotateLocked()
	}
	return nil
}

// rotateLocked seals the current segment and opens the next. Caller holds
// w.mu (or has exclusive access during open).
func (w *wal) rotateLocked() error {
	if w.policy != FsyncNever {
		_ = w.f.Sync()
		w.dirty = false
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("eventlog: wal: rotate: %w", err)
	}
	if err := w.openSegment(w.seg + 1); err != nil {
		return err
	}
	w.segCount++
	return nil
}

// sync flushes dirty writes to stable storage (the FsyncInterval loop and
// Close call it).
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || !w.dirty {
		return nil
	}
	w.dirty = false
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("eventlog: wal: sync: %w", err)
	}
	return nil
}

// compact rewrites the log as a single snapshot segment: a clear-all
// marker followed by the live records, written to a temp file, fsynced,
// renamed into place as the next segment index, after which all older
// segments are deleted. Replay order makes this crash-safe at every step —
// if the process dies before the deletes, replay drops the stale prefix at
// the marker and open removes the leftover files.
//
// The live records' lines are already in the log, in order: compaction
// copies them (copyLive) and encodes the snapshot only where it cannot
// vouch for a copy.
//
// The caller must have quiesced appends to this shard (ShardedStore holds
// the shard's append gate), so the snapshot is exactly the log's tail
// state.
func (w *wal) compact(snapshot []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("eventlog: wal: closed")
	}
	old, err := w.listSegments()
	if err != nil {
		return err
	}
	if w.policy != FsyncNever {
		_ = w.f.Sync()
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("eventlog: wal: compact: %w", err)
	}

	snapIdx := w.seg + 1
	snapPath := filepath.Join(w.dir, segName(snapIdx))
	tmp, err := os.CreateTemp(w.dir, ".compact-*")
	if err != nil {
		return fmt.Errorf("eventlog: wal: compact: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("eventlog: wal: compact: %w", err)
	}
	sio := getSegIO()
	defer sio.put()
	bw := sio.w
	bw.Reset(tmp)
	marker := clearAllLine(w.hiSeq)
	_, err = bw.Write(marker)
	copied := err == nil && !w.opaque && w.copyLive(old, snapshot, sio.r, bw)
	if !copied {
		// Start the snapshot over, encoding its records.
		if _, err := tmp.Seek(0, io.SeekStart); err != nil {
			return fail(err)
		}
		if err := tmp.Truncate(0); err != nil {
			return fail(err)
		}
		bw.Reset(tmp)
		if _, err := bw.Write(marker); err != nil {
			return fail(err)
		}
		if _, err := writeLines(bw, snapshot); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, snapPath); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("eventlog: wal: compact: %w", err)
	}
	// The snapshot is durable; the old segments are now dead weight.
	for _, idx := range old {
		_ = os.Remove(filepath.Join(w.dir, segName(idx)))
	}
	if err := w.openSegment(snapIdx + 1); err != nil {
		return err
	}
	w.dirty = false
	w.garbage = 0
	w.opaque = false // every line left opens with its seq, or with no seq
	w.compactions++
	if copied {
		w.copies++
	}
	return w.recount()
}

// copyLive streams the segments old through br and copies to bw the line
// of each snapshot record, found by the seq it opens with, and reports
// whether the lines copied are the whole snapshot. It gives up, leaving
// the caller to encode the snapshot, on a line that neither is a
// tombstone nor opens with a seq, on seqs that do not rise strictly
// through the log, and on any read or write error; a snapshot record
// whose line it does not meet leaves the copy short.
//
// Each seq then names one line, and a live record's line is one that
// opens with its seq: the store writes every record line so, and replay
// flags (w.opaque) a log that holds another kind.
func (w *wal) copyLive(old []int, snapshot []Record, br *bufio.Reader, bw *bufio.Writer) bool {
	var (
		long []byte
		last uint64
		j    int
	)
	copySegment := func(idx int) bool {
		f, err := os.Open(filepath.Join(w.dir, segName(idx)))
		if err != nil {
			return false
		}
		defer f.Close()
		br.Reset(f)
		for {
			line, err := readLine(br, &long)
			if err == io.EOF && len(line) == 0 {
				return true
			}
			if err != nil {
				return false // a read error, or a last line without its newline
			}
			if bytes.HasPrefix(line, clearKey) {
				continue
			}
			seq, ok := leadingSeq(line)
			if !ok || seq <= last {
				return false
			}
			last = seq
			if j < len(snapshot) && seq == snapshot[j].Seq {
				if _, err := bw.Write(line); err != nil {
					return false
				}
				j++
			}
		}
	}
	for _, idx := range old {
		if !copySegment(idx) {
			return false
		}
	}
	return j == len(snapshot)
}

// close seals the log.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.policy != FsyncNever {
		_ = w.f.Sync()
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("eventlog: wal: close: %w", err)
	}
	return nil
}

// addGarbage counts n more record lines as no longer live and returns the
// log's garbage.
func (w *wal) addGarbage(n int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.garbage += n
	return w.garbage
}

// stats fills st's write-ahead-log counters.
func (w *wal) stats(st *ShardStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	st.WALSegments, st.WALBytes, st.WALReplayed = w.segCount, w.allBytes, w.replayed
	st.WALGarbage, st.WALCompactions = w.garbage, w.compactions
}
