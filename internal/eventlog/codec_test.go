package eventlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sameRecord compares two decoded records field for field, timestamps by
// instant and by zone offset.
func sameRecord(a, b Record) bool {
	_, ao := a.Timestamp.Zone()
	_, bo := b.Timestamp.Zone()
	if !a.Timestamp.Equal(b.Timestamp) || ao != bo {
		return false
	}
	a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
	return a == b
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !sameRecord(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkEncode holds AppendRecord to json.Marshal: same bytes, an error in
// the same cases, and output the decoder takes without its fallback.
func checkEncode(t *testing.T, rec *Record) {
	t.Helper()
	want, werr := json.Marshal(rec)
	got, gerr := AppendRecord([]byte("prefix "), rec)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("AppendRecord error %v, json.Marshal error %v, for %+v", gerr, werr, *rec)
	}
	if werr != nil {
		if string(got) != "prefix " {
			t.Fatalf("AppendRecord left %q behind its error", got)
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("AppendRecord error %q, json.Marshal error %q", gerr, werr)
		}
		return
	}
	got = got[len("prefix "):]
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendRecord differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	var ref Record
	if err := json.Unmarshal(want, &ref); err != nil {
		return // a timestamp RFC 3339 can write but its parser rejects
	}
	var d recordDecoder
	var back Record
	fast := d.line(want, &back)
	if fast != canonical(rec, want) {
		t.Fatalf("fast path taken=%v on %s", fast, want)
	}
	if fast && !sameRecord(back, ref) {
		t.Fatalf("fast decode of %s:\n got %+v\nwant %+v", want, back, ref)
	}
}

// canonical reports whether enc, the encoding of rec, is in the form the
// decoder's fast path is for: no escapes, integers of at most 18 digits.
func canonical(rec *Record, enc []byte) bool {
	const lim = 1e18
	small := func(v int64) bool { return -lim < v && v < lim }
	return !bytes.ContainsRune(enc, '\\') && rec.Seq < lim &&
		small(int64(rec.Status)) && small(rec.BytesUp) && small(rec.BytesDown)
}

// checkDecode holds every decoding entry point to what encoding/json
// makes of the same bytes.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var d recordDecoder
	var got, want Record
	gerr, werr := d.unmarshal(data, &got), json.Unmarshal(data, &want)
	if (gerr != nil) != (werr != nil) || !sameRecord(got, want) {
		t.Fatalf("unmarshal(%q):\n got %+v, %v\nwant %+v, %v", data, got, gerr, want, werr)
	}

	// decodeLines is a json.Decoder that refuses unknown fields, read
	// value by value to the end of the body.
	gotLines, gerr := decodeLines(nil, data, nil)
	wantLines, werr := jsonLines(data)
	if (gerr != nil) != (werr != nil) || (werr == nil && !sameRecords(gotLines, wantLines)) {
		t.Fatalf("decodeLines(%q):\n got %+v, %v\nwant %+v, %v", data, gotLines, gerr, wantLines, werr)
	}
	checkLines(t, data)
}

// checkLines holds the lines decodeLines reports to the records they come
// with: record i, for every line i that is not nil, is what the canonical
// path decodes from that line.
func checkLines(t *testing.T, data []byte) {
	t.Helper()
	var lines [][]byte
	recs, err := decodeLines(nil, data, &lines)
	if err != nil {
		return
	}
	if len(lines) > len(recs) {
		t.Fatalf("decodeLines(%q): %d lines for %d records", data, len(lines), len(recs))
	}
	var d recordDecoder
	for i, line := range lines {
		var rec Record
		if line != nil && (!d.line(line, &rec) || !sameRecord(rec, recs[i])) {
			t.Fatalf("decodeLines(%q): line %d %q is not record %+v", data, i, line, recs[i])
		}
	}
}

// recordFrom carves an arbitrary Record out of fuzz input: strings of any
// bytes, floats of any bit pattern, instants over some 17 000 years in any
// zone.
func recordFrom(data []byte) Record {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	u64 := func() uint64 {
		var b [8]byte
		copy(b[:], take(8))
		return binary.LittleEndian.Uint64(b[:])
	}
	str := func() string {
		n := take(1)
		if len(n) == 0 {
			return ""
		}
		return string(take(int(n[0]) % 40))
	}
	ts := time.Unix(int64(u64())%(1<<38), int64(u64()%1e9))
	if off := int(int32(u64())) % (30 * 3600); off != 0 {
		ts = ts.In(time.FixedZone("", off))
	} else {
		ts = ts.UTC()
	}
	return Record{
		Seq: u64(), Timestamp: ts,
		RequestID: str(), SpanID: str(), ParentSpanID: str(), EI: str(),
		Src: str(), Dst: str(), Kind: Kind(str()), Method: str(), URI: str(),
		Status:        int(int32(u64())),
		LatencyMillis: math.Float64frombits(u64()),
		FaultAction:   str(), FaultRuleID: str(),
		InjectedDelayMillis: math.Float64frombits(u64()),
		GremlinGenerated:    u64()%2 == 1,
		Agent:               str(),
		BytesUp:             int64(u64()), BytesDown: int64(u64()),
	}
}

func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	// Every example in the repository, as arbitrary bytes.
	err := filepath.WalkDir("../../examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		seeds = append(seeds, b)
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	// A segment the parent commit's encoder wrote: records from before
	// spans, before execution indexes, L4 pairs, escapes, a tombstone.
	wal, err := os.ReadFile("testdata/wal-parent/00000001.wal")
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, wal)
	seeds = append(seeds, bytes.SplitAfter(wal, []byte{'\n'})...)
	lines := bytes.Split(bytes.TrimSpace(wal), []byte{'\n'})
	seeds = append(seeds, append(append([]byte{'['}, bytes.Join(lines[:4], []byte{','})...), ']', '\n'))

	for _, s := range []string{
		`{}`, `[]`, `[{}]`, `null`, `[null]`, ``, "\n", `{"clear":"camp-1-*"}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"request"}`,
		`{"ts":"10000-01-01T00:00:00Z","src":"a","dst":"b","kind":"request"}`,
		`{"ts":"2026-07-04T12:00:00+24:00","src":"a","dst":"b","kind":"request"}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"reply","latencyMillis":1e21,"injectedDelayMillis":1e-7}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"reply","latencyMillis":1e999}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"reply","status":2e2}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"reply","status":01}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"reply","status":9223372036854775808}`,
		`{"seq":18446744073709551615,"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"reply","bytesUp":-0}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","src":"dup","dst":"b","kind":"request"}`,
		`{"src":"a","ts":"2026-07-04T12:00:00Z","dst":"b","kind":"request"}`,
		`{"TS":"2026-07-04T12:00:00Z","Src":"a","DST":"b","kind":"request"}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"request","extra":1}`,
		`{"ts":null,"src":null,"dst":"b","kind":"request","gremlinGenerated":null}`,
		`{ "ts" : "2026-07-04T12:00:00Z", "src":"a","dst":"b","kind":"request" }`,
		`{"ts":"2026-07-04T12:00:00Z","src":"日本","dst":"é","kind":"request","uri":"\u003c\"\\\n"}`,
		"{\"ts\":\"2026-07-04T12:00:00Z\",\"src\":\"bad\xffutf8\",\"dst\":\"ctl\x01\",\"kind\":\"request\"}",
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"request","gremlinGenerated":false}`,
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"requ`, // torn
		`{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"request"}{"ts":"2026-07-04T12:00:01Z","src":"a","dst":"b","kind":"reply"}`,
		`[{"ts":"2026-07-04T12:00:00Z","src":"a","dst":"b","kind":"request"},{"ts":"2026-07-04T12:00:01Z","src":"x},{y","dst":"b","kind":"reply"}] trailing`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzRecordCodec: for arbitrary Records AppendRecord is json.Marshal, and
// for arbitrary bytes every decoder is encoding/json's.
func FuzzRecordCodec(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		rec := recordFrom(data)
		checkEncode(t, &rec)
		// What came in as JSON goes out as the same JSON either way.
		if json.Unmarshal(data, &rec) == nil {
			checkEncode(t, &rec)
		}
	})
}

// TestAppendRecordRejects pins the two things a Record can hold that its
// wire format cannot.
func TestAppendRecordRejects(t *testing.T) {
	ok := Record{Timestamp: t0, Src: "a", Dst: "b", Kind: KindReply}
	for name, rec := range map[string]Record{
		"year 10000":  {Timestamp: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		"year -1":     {Timestamp: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		"zone +24:00": {Timestamp: t0.In(time.FixedZone("", 24*3600))},
		"NaN":         {Timestamp: t0, LatencyMillis: math.NaN()},
		"+Inf":        {Timestamp: t0, InjectedDelayMillis: math.Inf(1)},
	} {
		t.Run(name, func(t *testing.T) {
			checkEncode(t, &rec)
			if _, err := AppendRecord(nil, &rec); err == nil {
				t.Fatal("AppendRecord accepted it")
			}
			// One bad record fails its batch.
			if _, err := appendLines(nil, []Record{ok, rec}); err == nil {
				t.Fatal("appendLines accepted it")
			}
		})
	}
}

// hopBatch is a flush as agents produce it: request and reply records in
// pairs that share request ID, span, parent span and execution index,
// over a handful of edges.
func hopBatch(n int) []Record {
	edges := [][2]string{{"gw", "cart"}, {"cart", "stock"}, {"cart", "pay"}, {"pay", "bank"}}
	recs := make([]Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		e := edges[i%len(edges)]
		req := Record{
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
			RequestID: fmt.Sprintf("camp-r1-%d", i), SpanID: fmt.Sprintf("span-%d", i), ParentSpanID: fmt.Sprintf("span-%d", i/2),
			EI:  fmt.Sprintf("gw:1/%s:%d", e[1], i),
			Src: e[0], Dst: e[1], Kind: KindRequest, Method: "GET", URI: "/item", Agent: e[0] + "-agent",
		}
		reply := req
		reply.Kind, reply.Status, reply.LatencyMillis = KindReply, 200, 0.25
		recs = append(recs, req, reply)
	}
	return recs
}

// TestDecodeLinesResumesAfterEscape: a string with an escape, which
// AppendRecord writes for any URI with a query string, sends only its own
// line through encoding/json; the canonical path takes the lines after it.
func TestDecodeLinesResumesAfterEscape(t *testing.T) {
	recs := hopBatch(256)
	recs[0].URI = "/q?a=1&b=2"
	body, err := appendLines(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`\u0026`)) {
		t.Fatalf("body carries no escape: %.200s", body)
	}
	var lines [][]byte
	got, err := decodeLines(nil, body, &lines)
	if err != nil {
		t.Fatal(err)
	}
	want, err := jsonLines(body)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, want) {
		t.Fatal("decoded batch differs from encoding/json's")
	}
	if len(lines) != len(recs) {
		t.Fatalf("got %d lines for %d records", len(lines), len(recs))
	}
	canonical := 0
	for _, l := range lines {
		if l != nil {
			canonical++
		}
	}
	if lines[0] != nil || canonical != len(recs)-1 {
		t.Fatalf("first line %q, %d canonical; want nil, %d", lines[0], canonical, len(recs)-1)
	}
	checkLines(t, body)

	// That line costs what encoding/json spends on one record, not on the
	// rest of the batch.
	plain, err := appendLines(nil, hopBatch(256))
	if err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(10, func() { _, _ = decodeLines(nil, plain, nil) })
	if allocs := testing.AllocsPerRun(10, func() { _, _ = decodeLines(nil, body, nil) }); allocs > base+40 {
		t.Errorf("decoding with one escaped line made %.0f allocations, without it %.0f", allocs, base)
	}

	// A value that spans lines still hands the rest of the body to
	// encoding/json, and an array after it is still refused.
	split := append([]byte("{\"uri\":\n\"/a\"}\n"), body...)
	if got, err := decodeLines(nil, split, &lines); err != nil || len(got) != len(recs)+1 {
		t.Fatalf("split value: %d records, %v", len(got), err)
	}
	if _, err := decodeLines(nil, append(body, "[{}]\n"...), nil); !errors.Is(err, errNotLines) {
		t.Fatalf("array after an escaped line: %v, want errNotLines", err)
	}
}

// jsonLines is encoding/json's reading of a JSON Lines body.
func jsonLines(body []byte) ([]Record, error) {
	out := []Record{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	for {
		var rec Record
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// TestRecordCodecAllocBudget: encoding allocates nothing per record into a
// warmed buffer (encoding/json: one, the timestamp), and decoding a
// hop-shaped batch at most two per record (encoding/json: eleven) — the
// strings a pair does not share with its neighbour and the slice, but no
// record of its own.
func TestRecordCodecAllocBudget(t *testing.T) {
	recs := hopBatch(256)
	body, err := appendLines(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { body, _ = appendLines(body[:0], recs) }); allocs != 0 {
		t.Errorf("encoding %d records made %.0f allocations, want 0", len(recs), allocs)
	}

	var got []Record
	allocs := testing.AllocsPerRun(20, func() { got, err = decodeLines(nil, body, nil) })
	if err != nil || !sameRecords(got, recs) {
		t.Fatalf("decoded batch differs from the one encoded (%v)", err)
	}
	if per := allocs / float64(len(recs)); per > 2 {
		t.Errorf("decoding made %.1f allocations per record, want at most 2", per)
	}
}
