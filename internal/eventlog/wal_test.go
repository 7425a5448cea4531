package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"gremlin/internal/pattern"
)

func logN(t *testing.T, s Sink, n int, ns string) {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
			RequestID: fmt.Sprintf("%s-%d", ns, i),
			Src:       "a", Dst: "b", Kind: KindRequest,
		}
	}
	if err := s.Log(recs...); err != nil {
		t.Fatal(err)
	}
}

func selectAll(t *testing.T, src Source) []Record {
	t.Helper()
	recs, err := src.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy should reject unknown policies")
	}
}

// TestWALReplayExact writes, closes, reopens, and demands byte-exact state:
// same records, same seqs, same timestamps.
func TestWALReplayExact(t *testing.T) {
	dir := t.TempDir()
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			sub := filepath.Join(dir, fmt.Sprint(policy))
			ss, err := NewShardedStore(StoreOptions{Shards: 4, DataDir: sub, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			logN(t, ss, 500, "test")
			logN(t, ss, 300, "camp-run1")
			want := selectAll(t, ss)
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := NewShardedStore(StoreOptions{Shards: 4, DataDir: sub, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			got := selectAll(t, re)
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d differs after replay:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			if re.Replayed() != len(want) {
				t.Errorf("Replayed()=%d, want %d", re.Replayed(), len(want))
			}
			// New appends must continue the sequence, not collide with it.
			if err := re.Log(Record{RequestID: "test-new", Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
				t.Fatal(err)
			}
			recs, err := re.Select(Query{IDPattern: "test-new"})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].Seq <= want[len(want)-1].Seq {
				t.Fatalf("post-replay Seq=%d not after replayed max %d", recs[0].Seq, want[len(want)-1].Seq)
			}
		})
	}
}

// TestWALCrashReplay reopens the WAL directory WITHOUT closing the first
// store — the in-process stand-in for kill -9. Every acknowledged append
// must survive.
func TestWALCrashReplay(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{Shards: 4, DataDir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 1000, "test")
	want := selectAll(t, ss)
	// No Close: the OS has the bytes (write() returned before each ack),
	// the process just vanishes.
	ss.closeWALs() // release file handles only, as the kernel would

	re, err := NewShardedStore(StoreOptions{Shards: 4, DataDir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := selectAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after crash replay", i)
		}
	}
}

// TestWALTornTrailingLine truncates the last segment mid-line: replay must
// keep every whole record and truncate the torn tail, not fail.
func TestWALTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 100, "test")
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "shard-0", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record: drop its trailing newline plus a dozen bytes.
	if err := os.WriteFile(last, b[:len(b)-13], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("torn trailing line must not fail open: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != 99 {
		t.Fatalf("recovered %d records, want 99 (all but the torn one)", got)
	}
	// The torn bytes must be gone from disk so the next append starts a
	// clean line.
	if err := re.Log(Record{RequestID: "test-after", Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.Len(); got != 100 {
		t.Fatalf("after post-truncation append: %d records, want 100", got)
	}
}

// TestWALMidFileCorruption: garbage in the middle of a segment is real
// corruption and must fail loudly, not be skipped.
func TestWALMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 10, "test")
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	seg := segs[0]
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	lines[3] = "{garbage!!\n"
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncAlways}); err == nil {
		t.Fatal("mid-file corruption must fail the open")
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{
		Shards: 1, DataDir: dir, Fsync: FsyncNever, MaxSegmentBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 500, "test")
	stats := ss.ShardStats()
	if stats[0].WALSegments < 2 {
		t.Fatalf("WALSegments=%d, want rotation past 1", stats[0].WALSegments)
	}
	want := selectAll(t, ss)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncNever, MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != len(want) {
		t.Fatalf("multi-segment replay: %d records, want %d", got, len(want))
	}
}

// TestWALCompactionReclaims: clearing a namespace then compacting must
// shrink the on-disk WAL and still replay to the surviving records.
func TestWALCompactionReclaims(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{
		Shards: 1, DataDir: dir, Fsync: FsyncNever,
		MaxSegmentBytes: 16 * 1024, CompactAfter: -1, // manual compaction
	})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 2000, "camp-run1")
	logN(t, ss, 50, "test")
	before := ss.ShardStats()[0].WALBytes

	if _, err := ss.ClearMatching("camp-run1-*"); err != nil {
		t.Fatal(err)
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	st := ss.ShardStats()[0]
	if st.WALBytes >= before/4 {
		t.Fatalf("WALBytes=%d after compaction, want well under %d", st.WALBytes, before)
	}
	if st.WALCompactions != 1 {
		t.Fatalf("WALCompactions=%d, want 1", st.WALCompactions)
	}
	want := selectAll(t, ss)
	if len(want) != 50 {
		t.Fatalf("%d records survive, want 50", len(want))
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewShardedStore(StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := selectAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("post-compaction replay: %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after compaction replay", i)
		}
	}
}

// TestWALAutoCompaction: crossing CompactAfter garbage records triggers
// compaction without an explicit call.
func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{
		Shards: 1, DataDir: dir, Fsync: FsyncNever, CompactAfter: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	logN(t, ss, 200, "camp-run1")
	if _, err := ss.ClearMatching("camp-run1-*"); err != nil {
		t.Fatal(err)
	}
	if got := ss.ShardStats()[0].WALCompactions; got != 1 {
		t.Fatalf("WALCompactions=%d after threshold clear, want 1", got)
	}
}

// walBytes sums the store's write-ahead-log bytes over its shards.
func walBytes(s *Store) int64 {
	var n int64
	for _, st := range s.ShardStats() {
		n += st.WALBytes
	}
	return n
}

// maxLine is the longest WAL line among recs.
func maxLine(t *testing.T, recs []Record) int64 {
	t.Helper()
	longest := 0
	for i := range recs {
		line, err := AppendRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		longest = max(longest, len(line)+1)
	}
	return int64(longest)
}

// TestWALCompactionAmortized: a shard whose live set dwarfs CompactAfter
// compacts once per live set's worth of cleared records, not once per
// CompactAfter of them, and its log stays within twice its live records
// plus CompactAfter (and the tombstones in between).
func TestWALCompactionAmortized(t *testing.T) {
	const compactAfter = 64
	const live = 4 * compactAfter
	ss := newSharded(t, StoreOptions{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: compactAfter})
	logN(t, ss, live, "keep")
	lineBytes := maxLine(t, selectAll(t, ss))
	tomb, err := clearLine("camp-r000-*")
	if err != nil {
		t.Fatal(err)
	}
	cleared, sinceCompaction := 0, 0
	for round := 1; round <= 40; round++ {
		ns := fmt.Sprintf("camp-r%03d", round)
		logN(t, ss, compactAfter/4, ns)
		lineBytes = max(lineBytes, maxLine(t, selectAll(t, ss)))
		n, err := ss.ClearMatching(ns + "-*")
		if err != nil || n != compactAfter/4 {
			t.Fatalf("round %d: cleared %d, %v; want %d", round, n, err, compactAfter/4)
		}
		cleared += n
		sinceCompaction++
		st := ss.ShardStats()[0]
		if limit := (cleared + live - 1) / live; int(st.WALCompactions) > limit {
			t.Fatalf("round %d: %d compactions after %d cleared records, want at most %d", round, st.WALCompactions, cleared, limit)
		}
		if st.WALGarbage != cleared-int(st.WALCompactions)*live {
			t.Fatalf("round %d: WALGarbage = %d after %d cleared and %d compactions", round, st.WALGarbage, cleared, st.WALCompactions)
		}
		if st.WALGarbage == 0 {
			sinceCompaction = 0
		}
		if bound := (2*live+compactAfter)*lineBytes + int64(sinceCompaction*len(tomb)); st.WALBytes > bound {
			t.Fatalf("round %d: WALBytes = %d, want at most %d (2 × %d live + %d records of %d bytes)", round, st.WALBytes, bound, live, compactAfter, lineBytes)
		}
	}
	if got := ss.ShardStats()[0].WALCompactions; got != uint64(cleared/live) {
		t.Fatalf("%d compactions after %d cleared records, want %d", got, cleared, cleared/live)
	}
}

// TestWALCompactionDebtSurvivesReopen: a reopened shard counts the cleared
// records its log still holds, so compaction fires when the records
// cleared since the last compaction — before and after the restart —
// reach the threshold.
func TestWALCompactionDebtSurvivesReopen(t *testing.T) {
	const c = 64
	opts := StoreOptions{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: c}
	ss, err := NewShardedStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 2*c, "keep")
	for r := 1; r <= 4; r++ {
		logN(t, ss, c, fmt.Sprintf("camp-r%d", r))
	}
	clearNS := func(s *Store, ns string) ShardStats {
		t.Helper()
		if n, err := s.ClearMatching(ns + "-*"); err != nil || n != c {
			t.Fatalf("ClearMatching(%s) = %d, %v; want %d", ns, n, err, c)
		}
		return s.ShardStats()[0]
	}
	clearNS(ss, "camp-r1")
	if st := clearNS(ss, "camp-r2"); st.WALCompactions != 0 || st.WALGarbage != 2*c {
		t.Fatalf("2c of 6c cleared: %d compactions, garbage %d; want 0 and %d", st.WALCompactions, st.WALGarbage, 2*c)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	re := newSharded(t, opts)
	if st := re.ShardStats()[0]; st.WALGarbage != 2*c || st.Records != 4*c {
		t.Fatalf("reopened: garbage %d, %d records; want %d and %d", st.WALGarbage, st.Records, 2*c, 4*c)
	}
	// 3c cleared against 3c live: the threshold.
	if st := clearNS(re, "camp-r3"); st.WALCompactions != 1 || st.WALGarbage != 0 {
		t.Fatalf("3c cleared, 3c live: %d compactions, garbage %d; want 1 and 0", st.WALCompactions, st.WALGarbage)
	}
	if st := clearNS(re, "camp-r4"); st.WALCompactions != 1 || st.WALGarbage != c {
		t.Fatalf("c cleared since, 2c live: %d compactions, garbage %d; want 1 and %d", st.WALCompactions, st.WALGarbage, c)
	}
	want := selectAll(t, re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again := newSharded(t, opts)
	if got := selectAll(t, again); !sameRecords(got, want) || len(got) != 2*c {
		t.Fatalf("second reopen: %d records, want the %d kept", len(got), len(want))
	}
	if st := again.ShardStats()[0]; st.WALGarbage != c {
		t.Fatalf("second reopen: garbage %d, want %d", st.WALGarbage, c)
	}
}

// TestWALNoOpClearWritesNothing: a clear that matches no record — of a
// namespace already cleared, of an empty store — leaves the log as it is.
func TestWALNoOpClearWritesNothing(t *testing.T) {
	opts := StoreOptions{Shards: 2, DataDir: t.TempDir(), Fsync: FsyncNever}
	ss, err := NewShardedStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if n, err := ss.ClearMatching("camp-ghost-*"); err != nil || n != 0 {
			t.Fatalf("pinned clear of an empty store = %d, %v", n, err)
		}
		if n := ss.Clear(); n != 0 {
			t.Fatalf("Clear of an empty store = %d", n)
		}
	}
	if got := walBytes(ss); got != 0 {
		t.Fatalf("no-op clears grew an empty store's WAL to %d bytes", got)
	}

	logN(t, ss, 100, "test")
	logN(t, ss, 100, "camp-run1")
	if _, err := ss.ClearMatching("camp-run1-*"); err != nil {
		t.Fatal(err)
	}
	start := walBytes(ss)
	for i := 0; i < 1000; i++ {
		for _, p := range []string{"camp-run1-*", "camp-ghost-*", "test-x*", "re:^nobody-"} {
			if n, err := ss.ClearMatching(p); err != nil || n != 0 {
				t.Fatalf("ClearMatching(%q) = %d, %v; want 0", p, n, err)
			}
		}
	}
	if got := walBytes(ss); got != start {
		t.Fatalf("no-op clears grew the WAL from %d to %d bytes", start, got)
	}
	want := selectAll(t, ss)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if got := selectAll(t, newSharded(t, opts)); !sameRecords(got, want) {
		t.Fatalf("reopened store holds %d records, want %d", len(got), len(want))
	}
}

// TestWALClearTombstoneWithoutCompaction: a clear whose garbage stays under
// the threshold must still replay correctly (tombstone honored).
func TestWALClearTombstoneWithoutCompaction(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{Shards: 2, DataDir: dir, Fsync: FsyncNever, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 100, "camp-run1")
	logN(t, ss, 100, "test")
	if _, err := ss.ClearMatching("camp-run1-*"); err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 10, "camp-run1") // post-clear records in the cleared namespace
	want := selectAll(t, ss)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewShardedStore(StoreOptions{Shards: 2, DataDir: dir, Fsync: FsyncNever, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := selectAll(t, re)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (tombstone must clear only pre-clear records)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs after tombstone replay", i)
		}
	}
}

func TestWALShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{Shards: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	logN(t, ss, 100, "test")
	logN(t, ss, 100, "prod")
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening with a different shard count must be rejected: routing
	// depends on the count, so replayed records would otherwise strand on
	// shards the new hash never reads.
	if _, err := NewShardedStore(StoreOptions{Shards: 8, DataDir: dir}); err == nil {
		t.Fatal("reopen with a different shard count must fail")
	}
	re, err := NewShardedStore(StoreOptions{Shards: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 200 {
		t.Fatalf("matching reopen replayed %d records, want 200", got)
	}
}

// openFixtureWAL copies the checked-in segment — written by the commit
// before the record codec, with encoding/json — into a fresh directory,
// applies edit to its bytes, and replays it.
func openFixtureWAL(t *testing.T, edit func([]byte) []byte) (recs []Record, seg string, err error) {
	t.Helper()
	b, rerr := os.ReadFile(filepath.Join("testdata", "wal-parent", "00000001.wal"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	dir := t.TempDir()
	seg = filepath.Join(dir, "00000001.wal")
	if werr := os.WriteFile(seg, edit(b), 0o644); werr != nil {
		t.Fatal(werr)
	}
	w, recs, err := openWAL(dir, FsyncNever, 64<<20)
	if err == nil {
		t.Cleanup(func() { _ = w.close() })
	}
	return recs, seg, err
}

// TestWALReplaysParentSegment: a segment the previous encoder wrote
// replays to the records encoding/json reads from it, re-encodes to the
// same bytes, and keeps the torn-tail / mid-file-corruption distinction.
func TestWALReplaysParentSegment(t *testing.T) {
	same := func(b []byte) []byte { return b }
	recs, seg, err := openFixtureWAL(t, same)
	if err != nil {
		t.Fatal(err)
	}
	// The reference replay: encoding/json line by line, the one tombstone
	// ("drop-*") applied by hand.
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	var wantLines [][]byte
	for _, line := range bytes.SplitAfter(raw, []byte{'\n'}) {
		var wl walLine
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &wl); err != nil {
			t.Fatal(err)
		}
		if wl.Clear == nil && !strings.HasPrefix(wl.RequestID, "drop-") {
			want = append(want, wl.Record)
			wantLines = append(wantLines, line)
		}
	}
	if len(want) != 10 || !sameRecords(recs, want) {
		t.Fatalf("replayed %d records, want the fixture's 10:\n got %+v\nwant %+v", len(recs), recs, want)
	}
	for i := range recs {
		// The one byte that was not UTF-8 came back as U+FFFD, which no
		// encoder escapes; every other line is reproduced exactly.
		if bytes.Contains(wantLines[i], []byte(`\ufffd`)) {
			continue
		}
		line, err := AppendRecord(nil, &recs[i])
		if err != nil || !bytes.Equal(append(line, '\n'), wantLines[i]) {
			t.Fatalf("record %d re-encodes to %s (%v), the segment holds %s", i, line, err, wantLines[i])
		}
	}

	// A line the codec gives up on halfway — a canonical record with an
	// impossible timestamp — in the middle of the file is corruption.
	corrupt := func(b []byte) []byte {
		return bytes.Replace(b, []byte(`"ts":"2026-07-04T12:00:00.125456789Z"`), []byte(`"ts":"2026-13-04T12:00:00.125456789Z"`), 1)
	}
	if _, _, err := openFixtureWAL(t, corrupt); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("mid-file corruption must fail the open with its offset, got %v", err)
	}

	// The same damage on the last line, and a last line cut short, are torn
	// writes: dropped and truncated away.
	lastLine := raw[bytes.LastIndexByte(raw[:len(raw)-1], '\n')+1:]
	for name, tear := range map[string]func([]byte) []byte{
		"cut short":      func(b []byte) []byte { return b[:len(b)-9] },
		"whole but bad":  func(b []byte) []byte { return bytes.Replace(b, []byte(`"conn-close"`), []byte(`"conn-close`), 1) },
		"no newline yet": func(b []byte) []byte { return b[:len(b)-1] },
	} {
		recs, seg, err := openFixtureWAL(t, tear)
		if err != nil || !sameRecords(recs, want[:9]) {
			t.Fatalf("%s: replayed %d records, %v; want the 9 before the torn one", name, len(recs), err)
		}
		left, err := os.ReadFile(seg)
		if err != nil || !bytes.Equal(left, raw[:len(raw)-len(lastLine)]) {
			t.Fatalf("%s: torn tail not truncated (%v): segment ends %q", name, err, left[max(0, len(left)-40):])
		}
	}
}

// replayReference replays one segment as the WAL format defines it, with
// encoding/json line by line. corrupt reports a line that does not decode
// with more bytes after it, or a tombstone whose pattern does not
// compile; a bad or unterminated last line is a torn write and ends the
// replay.
func replayReference(data []byte) (recs []Record, corrupt bool) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return recs, false
		}
		line, rest := data[:i+1], data[i+1:]
		var wl walLine
		if err := json.Unmarshal(line, &wl); err != nil {
			return recs, len(rest) > 0
		}
		switch {
		case wl.Clear == nil:
			recs = append(recs, wl.Record)
		case *wl.Clear == "" || *wl.Clear == "*":
			recs = recs[:0]
		default:
			pat, err := pattern.Compile(*wl.Clear)
			if err != nil {
				return nil, true
			}
			kept := recs[:0]
			for _, r := range recs {
				if !pat.Match(r.RequestID) {
					kept = append(kept, r)
				}
			}
			recs = kept
		}
		data = rest
	}
	return recs, false
}

// FuzzWALReplay: whatever bytes a shard's one segment holds, opening it
// never panics. It fails with the corruption error, naming an offset,
// exactly when the reference replay finds corruption; otherwise it
// replays the reference's records, truncates a torn last line away, and
// a second open replays the same records from what is left.
func FuzzWALReplay(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "wal-parent", "00000001.wal"))
	if err != nil {
		f.Fatal(err)
	}
	mid := len(fixture)/2 + bytes.IndexByte(fixture[len(fixture)/2:], '\n') + 1
	f.Add(fixture)
	f.Add(fixture[:len(fixture)-9])                                                                // torn tail
	f.Add(append(append(append([]byte(nil), fixture[:mid]...), "garbage\n"...), fixture[mid:]...)) // mid-file garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, corrupt := replayReference(data)
		w, recs, err := openWAL(dir, FsyncNever, 64<<20)
		if corrupt {
			if err == nil || !strings.Contains(err.Error(), "offset") {
				t.Fatalf("open of a corrupt segment = %v, want the corruption error", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want) || len(want) > 0 && !sameRecords(recs, want) {
			t.Fatalf("replayed %d records, the reference %d:\n got %+v\nwant %+v", len(recs), len(want), recs, want)
		}
		left, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, left) || len(left) > 0 && left[len(left)-1] != '\n' {
			t.Fatalf("open left %q of %q: want a prefix ending on a line boundary", left, data)
		}
		w, again, err := openWAL(dir, FsyncNever, 64<<20)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer w.close()
		if len(again) != len(recs) || len(recs) > 0 && !sameRecords(again, recs) {
			t.Fatalf("second open replayed %d records, the first %d", len(again), len(recs))
		}
	})
}

// TestCompactShardAllocBudget: compaction writes the shard's own records.
// Copying them out first cost a 25k-record shard 6.8 MB; what is left is
// the snapshot's write buffer and file bookkeeping.
func TestCompactShardAllocBudget(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: -1})
	if err := ss.Log(hopBatch(25_000)...); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := ss.CompactShard(0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("compacting %d records allocated %d bytes, want under 1 MiB", ss.Len(), d)
	}
	if got := ss.ShardStats()[0].WALCompactions; got != 1 {
		t.Fatalf("WALCompactions = %d, want 1", got)
	}
}

// minAllocBytes reports the fewest bytes any of runs calls of f
// allocated; between calls it runs reset, unmeasured. The minimum filters
// out the sync.Pool misses the race detector provokes on purpose.
func minAllocBytes(runs int, f, reset func()) uint64 {
	var least uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i == 0 || d < least {
			least = d
		}
		reset()
	}
	return least
}

// warmedWALStore is a one-shard WAL-backed store whose record slice has
// room for several batches of hopBatch(256), so that appending one
// allocates only what the append itself needs.
func warmedWALStore(t *testing.T) *Store {
	t.Helper()
	ss := newSharded(t, StoreOptions{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: -1})
	for i := 0; i < 4; i++ {
		if err := ss.Log(hopBatch(256)...); err != nil {
			t.Fatal(err)
		}
	}
	clearHops(t, ss)
	return ss
}

// clearHops clears hopBatch's namespace, keeping the shard's capacity.
func clearHops(t *testing.T, s *Store) {
	t.Helper()
	if _, err := s.ClearMatching("camp-r1-*"); err != nil {
		t.Fatal(err)
	}
}

// TestDurableLogAllocBudget: logging a batch into a WAL-backed store
// stamps each record as it encodes it into a pooled buffer and as it
// copies it into memory, so it allocates less than one batch of records —
// what copying the batch to stamp it would cost on its own.
func TestDurableLogAllocBudget(t *testing.T) {
	ss := warmedWALStore(t)
	batch := hopBatch(256)
	budget := uint64(len(batch)) * uint64(unsafe.Sizeof(Record{}))
	got := minAllocBytes(8, func() {
		if err := ss.Log(batch...); err != nil {
			t.Fatal(err)
		}
	}, func() { clearHops(t, ss) })
	if got >= budget {
		t.Fatalf("logging %d records into a WAL-backed store allocated %d bytes, want under %d (one batch of records)", len(batch), got, budget)
	}
}

// TestCompactUnorderedShardReplays: a snapshot of shards whose records are
// out of (timestamp, seq) order is written in append order, so the
// reopened store holds the same records in the same order, with the same
// sorted prefix, and answers every query identically.
func TestCompactUnorderedShardReplays(t *testing.T) {
	opts := StoreOptions{Shards: 2, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: -1}
	ss, err := NewShardedStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 40; b++ {
		batch := make([]Record, 25)
		for i := range batch {
			batch[i] = Record{
				Timestamp: t0.Add(time.Duration(rng.Intn(500)) * time.Millisecond),
				RequestID: oracleID(rng),
				Src:       oracleEnds[rng.Intn(len(oracleEnds))],
				Dst:       oracleEnds[rng.Intn(len(oracleEnds))],
				Kind:      []Kind{KindRequest, KindReply}[rng.Intn(2)],
			}
		}
		if err := ss.Log(batch...); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"camp-r1-*", "*-3"} {
		if _, err := ss.ClearMatching(p); err != nil {
			t.Fatal(err)
		}
	}
	var held [][]Record
	var sorted []int
	for si, sh := range ss.shards {
		if sh.sorted == len(sh.recs) {
			t.Fatalf("shard %d is in order; the test needs it out of order", si)
		}
		held = append(held, append([]Record(nil), sh.recs...))
		sorted = append(sorted, sh.sorted)
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	queries := []Query{{}}
	for i := 0; i < 200; i++ {
		queries = append(queries, oracleQuery(rng, 500))
	}
	want := make([][]Record, len(queries))
	for i, q := range queries {
		if want[i], err = ss.Select(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	re := newSharded(t, opts)
	for si, sh := range re.shards {
		if !sameRecords(sh.recs, held[si]) || sh.sorted != sorted[si] {
			t.Fatalf("shard %d replays %d records (sorted prefix %d), held %d (%d) or in another order",
				si, len(sh.recs), sh.sorted, len(held[si]), sorted[si])
		}
	}
	for i, q := range queries {
		got, err := re.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[i]) || len(got) > 0 && !sameRecords(got, want[i]) {
			t.Fatalf("Select(%+v) after reopen: %d records, before %d", q, len(got), len(want[i]))
		}
		if n, err := re.Count(q); err != nil || n != len(want[i]) {
			t.Fatalf("Count(%+v) after reopen = %d, %v; want %d", q, n, err, len(want[i]))
		}
	}
}
