package eventlog

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// walFiles returns the concatenated segments of shard si under dir, in
// segment order.
func walFiles(t *testing.T, dir string, si int) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%d", si), "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var all []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// heldRecords copies every shard's records out, in append order.
func heldRecords(s *Store) [][]Record {
	held := make([][]Record, len(s.shards))
	for si, sh := range s.shards {
		sh.mu.RLock()
		held[si] = append([]Record(nil), sh.recs...)
		sh.mu.RUnlock()
	}
	return held
}

// sameHeld reports whether two stores' shards hold the same records in the
// same order.
func sameHeld(a, b [][]Record) bool {
	if len(a) != len(b) {
		return false
	}
	for si := range a {
		if len(a[si]) != len(b[si]) || len(a[si]) > 0 && !sameRecords(a[si], b[si]) {
			return false
		}
	}
	return true
}

// postRecords sends body to the ingest handler and returns the status.
func postRecords(srv *Server, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.handleRecords(w, httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body)))
	return w
}

// TestSeqsDoNotRepeatAfterReopen: a reopened store issues seqs past every
// seq its log ever held — cleared records' too, after a compaction dropped
// their lines, and after a clear-all whose earlier segments replay
// deleted — so Record.Seq never repeats.
func TestSeqsDoNotRepeatAfterReopen(t *testing.T) {
	for name, tc := range map[string]struct {
		clear       string
		compact     bool
		maxSegBytes int64
	}{
		"clear":                   {clear: "b-*"},
		"clear, compact":          {clear: "b-*", compact: true},
		"clear all":               {clear: "*"},
		"clear all, one-line seg": {clear: "*", maxSegBytes: 1},
	} {
		t.Run(name, func(t *testing.T) {
			opts := StoreOptions{Shards: 1, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: -1, MaxSegmentBytes: tc.maxSegBytes}
			ss, err := NewShardedStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			var recs []Record
			for _, id := range []string{"a-1", "a-2", "a-3", "b-1", "b-2"} {
				recs = append(recs, Record{Timestamp: t0, RequestID: id, Src: "x", Dst: "y", Kind: KindRequest})
			}
			if err := ss.Log(recs...); err != nil {
				t.Fatal(err)
			}
			if _, err := ss.ClearMatching(tc.clear); err != nil {
				t.Fatal(err)
			}
			if tc.compact {
				if err := ss.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			// Reopen twice, logging one record each time: the second open
			// replays a log whose first open may have deleted segments.
			for i, want := range []uint64{6, 7} {
				re, err := NewShardedStore(opts)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("c-%d", i)
				if err := re.Log(Record{Timestamp: t0, RequestID: id, Src: "x", Dst: "y", Kind: KindRequest}); err != nil {
					t.Fatal(err)
				}
				got, err := re.Select(Query{IDPattern: id})
				if err != nil || len(got) != 1 {
					t.Fatalf("reopen %d: Select(%s) = %d records, %v", i+1, id, len(got), err)
				}
				if got[0].Seq != want {
					t.Fatalf("reopen %d: the record logged got seq %d, want %d: a seq the log held before was issued again", i+1, got[0].Seq, want)
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// journalBatch is a batch of records in the shapes a store ingests: most
// canonical, one carrying a seq (a re-imported dump), one without a
// timestamp for the store to stamp, non-ASCII names, namespaces over
// several shards, and last a URI the encoder escapes, which the decoder
// hands to encoding/json.
func journalBatch(n int) []Record {
	batch := hopBatch(n)
	for i := range batch {
		batch[i].RequestID = fmt.Sprintf("ns%d-%d", i%5, i/2)
	}
	batch[3].Seq = 999
	batch[5].Timestamp = time.Time{}
	batch[9].Src, batch[9].Agent = "日本", "é-agent"
	batch[n-1].URI = "/q?x=1&y=<2>"
	return batch
}

// TestIngestJournalsWhatEncodingWrites: a batch shipped by eventlog.Client,
// and the same batch posted whole to a sharded store, lands in each
// shard's WAL as exactly the bytes encoding the stored records writes —
// what the store wrote for it when it encoded every record — although
// the store journals the canonical lines as they arrived.
func TestIngestJournalsWhatEncodingWrites(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			dir := t.TempDir()
			ss := newSharded(t, StoreOptions{Shards: shards, DataDir: dir, Fsync: FsyncNever, CompactAfter: -1})
			srv, err := NewServer("127.0.0.1:0", ss)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if err := NewClient(srv.URL(), nil).LogBatch(journalBatch(64)); err != nil {
				t.Fatal(err)
			}
			body, err := appendLines(nil, journalBatch(40))
			if err != nil {
				t.Fatal(err)
			}
			if w := postRecords(&Server{store: ss}, body); w.Code != http.StatusAccepted {
				t.Fatalf("POST /v1/records = %d: %s", w.Code, w.Body)
			}
			if ss.Len() != 104 {
				t.Fatalf("store holds %d records, want 104", ss.Len())
			}
			for si, held := range heldRecords(ss) {
				want, err := appendLines(nil, held)
				if err != nil {
					t.Fatal(err)
				}
				if got := walFiles(t, dir, si); !bytes.Equal(got, want) {
					t.Fatalf("shard %d WAL:\n%s\nencoding its records writes:\n%s", si, got, want)
				}
			}
		})
	}
}

// TestCompactCopiesLiveLines: compacting a log the store wrote copies the
// live records' lines, which are byte for byte what encoding them writes,
// behind a marker carrying the high-water seq, and replays unchanged.
func TestCompactCopiesLiveLines(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncNever, CompactAfter: -1, MaxSegmentBytes: 4 << 10}
	ss, err := NewShardedStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{store: ss}
	for i := 0; i < 6; i++ {
		body, err := appendLines(nil, journalBatch(30))
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.ReplaceAll(body, []byte(`"ns`), []byte(fmt.Sprintf(`"b%d-ns`, i)))
		if w := postRecords(srv, body); w.Code != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, w.Code, w.Body)
		}
		logN(t, ss, 7, fmt.Sprintf("log%d", i))
	}
	for _, p := range []string{"b1-*", "log3-*", "re:-[12]$", "b5-ns4-*"} {
		if _, err := ss.ClearMatching(p); err != nil {
			t.Fatal(err)
		}
	}
	held := heldRecords(ss)
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	if w := ss.shards[0].wal; w.copies != 1 || w.compactions != 1 {
		t.Fatalf("%d of %d compactions copied the live lines, want 1 of 1", w.copies, w.compactions)
	}
	want, err := appendLines(clearAllLine(6*37), held[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := walFiles(t, dir, 0); !bytes.Equal(got, want) {
		t.Fatalf("compacted WAL:\n%s\nwant:\n%s", got, want)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re := newSharded(t, opts)
	if !sameHeld(heldRecords(re), held) {
		t.Fatal("the compacted log replays other records than the store held")
	}
}

// TestCompactEncodesWhatItCannotCopy: logs compaction cannot copy by seq —
// the parent's fixture, whose escaped lines replay through encoding/json;
// a log that repeats a seq, as a store reopened before seqs survived a
// clear could write; a line whose second seq key, matched without regard
// to case, overrides the one it opens with — compact by encoding their
// records and replay unchanged; the snapshot they leave is one the next
// compaction copies.
func TestCompactEncodesWhatItCannotCopy(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "wal-parent", "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	line := func(seq int, id string) string {
		return fmt.Sprintf(`{"seq":%d,"ts":"2026-07-04T12:00:00Z","requestId":%q,"src":"x","dst":"y","kind":"request"}`+"\n", seq, id)
	}
	repeated := line(1, "a-1") + line(2, "b-1") + `{"clear":"b-*"}` + "\n" + line(2, "a-2") + line(3, "a-3")
	overridden := strings.Replace(line(1, "a-1"), `}`, `,"Seq":3}`, 1) + line(3, "b-1") + `{"clear":"b-*"}` + "\n"
	for name, seg := range map[string][]byte{
		"fixture":      fixture,
		"repeated seq": []byte(repeated),
		"second seq":   []byte(overridden),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, "shard-0"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "shard-0", segName(1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := StoreOptions{Shards: 1, DataDir: dir, Fsync: FsyncNever, CompactAfter: -1}
			ss, err := NewShardedStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			held := heldRecords(ss)
			w := ss.shards[0].wal
			for round := uint64(1); round <= 2; round++ {
				if err := ss.Compact(); err != nil {
					t.Fatal(err)
				}
				if w.compactions != round || w.copies != round-1 {
					t.Fatalf("after %d compactions, %d copied; want %d", w.compactions, w.copies, round-1)
				}
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			if re := newSharded(t, opts); !sameHeld(heldRecords(re), held) {
				t.Fatalf("replay after compaction holds %+v, the store held %+v", heldRecords(re), held)
			}
		})
	}
}

// FuzzIngestReplay: whatever body POST /v1/records accepts, a durable store
// holds the same records in memory, after a reopen, and after a
// compaction and a reopen — the lines it journalled as they came and the
// records it encoded alike.
func FuzzIngestReplay(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, batch := range [][]Record{hopBatch(6), journalBatch(12)} {
		body, err := appendLines(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(bytes.Replace(body, []byte(`{"ts"`), []byte(`{"seq":77,"ts"`), 2))
		f.Add(bytes.Replace(body, []byte(`"ts":"2026`), []byte(`"ts":"0001`), 1))
		f.Add(bytes.Replace(body, []byte(`"uri":"/item"`), []byte(`"uri":"/q?a=1\u0026b=2"`), 1))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		opts := StoreOptions{Shards: 2, DataDir: t.TempDir(), Fsync: FsyncNever, CompactAfter: -1}
		ss, err := NewShardedStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		if w := postRecords(&Server{store: ss}, body); w.Code != http.StatusAccepted {
			ss.Close()
			return
		}
		held := heldRecords(ss)
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		for _, compacted := range []bool{false, true} {
			re, err := NewShardedStore(opts)
			if err != nil {
				t.Fatalf("reopen (compacted %v): %v", compacted, err)
			}
			if got := heldRecords(re); !sameHeld(got, held) {
				t.Fatalf("reopened (compacted %v), the store holds\n%+v\nbefore\n%+v", compacted, got, held)
			}
			if !compacted {
				if err := re.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
