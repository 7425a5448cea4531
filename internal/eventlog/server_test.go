package eventlog

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", NewStore())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return srv, NewClient(srv.URL(), nil)
}

func TestServerIngestAndQuery(t *testing.T) {
	_, c := newTestServer(t)

	recs := []Record{
		{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "test-1", Timestamp: t0},
		{Src: "a", Dst: "b", Kind: KindReply, RequestID: "test-1", Status: 200, LatencyMillis: 12.5, Timestamp: t0.Add(time.Millisecond)},
		{Src: "a", Dst: "c", Kind: KindRequest, RequestID: "test-2", Timestamp: t0.Add(2 * time.Millisecond)},
	}
	if err := c.Log(recs...); err != nil {
		t.Fatal(err)
	}

	got, err := c.Select(Query{Src: "a", Dst: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if got[1].Status != 200 || got[1].LatencyMillis != 12.5 {
		t.Fatalf("reply record = %+v", got[1])
	}
	if !got[0].Timestamp.Equal(t0) {
		t.Fatalf("timestamp round trip = %v, want %v", got[0].Timestamp, t0)
	}

	n, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Stats = %d, want 3", n)
	}
}

func TestServerClear(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	dropped, err := c.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("Clear = %d, want 1", dropped)
	}
	n, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Stats after clear = %d", n)
	}
}

func TestServerHealthz(t *testing.T) {
	_, c := newTestServer(t)
	if !c.Healthy() {
		t.Fatal("server should be healthy")
	}
	down := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if down.Healthy() {
		t.Fatal("unreachable server should be unhealthy")
	}
}

func TestServerRejectsBadQuery(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Select(Query{IDPattern: "re:["}); err == nil {
		t.Fatal("want error for bad pattern")
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/query"},
		{http.MethodPut, "/v1/records"},
		{http.MethodPost, "/v1/stats"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL()+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
	}
}

func TestServerRejectsMalformedBody(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL()+"/v1/records", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestClientErrorsAgainstDownServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if err := c.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err == nil {
		t.Fatal("Log should fail")
	}
	if _, err := c.Select(Query{}); err == nil {
		t.Fatal("Select should fail")
	}
	if _, err := c.Clear(); err == nil {
		t.Fatal("Clear should fail")
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("Stats should fail")
	}
}

func TestClientLogEmptyIsNoop(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if err := c.Log(); err != nil {
		t.Fatalf("empty Log should not touch the network: %v", err)
	}
}

// BufferedSink tests live in buffer_test.go.

func TestServerClearMatchingPattern(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Log(
		Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "camp-x-1-1"},
		Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "camp-y-1-1"},
	); err != nil {
		t.Fatal(err)
	}
	dropped, err := c.ClearMatching("camp-x-*")
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("ClearMatching = %d, want 1", dropped)
	}
	left, err := c.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].RequestID != "camp-y-1-1" {
		t.Fatalf("survivors = %+v", left)
	}
	if _, err := c.ClearMatching("re:["); err == nil {
		t.Fatal("want error for bad pattern")
	}
}

func newShardedTestServer(t *testing.T, shards int) (*ShardedStore, *Client) {
	t.Helper()
	ss, err := NewShardedStore(StoreOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
		ss.Close()
	})
	return ss, NewClient(srv.URL(), nil)
}

func TestClientLogBatchShardAware(t *testing.T) {
	ss, c := newShardedTestServer(t, 4)

	var recs []Record
	for i := 0; i < 120; i++ {
		recs = append(recs, Record{
			Src: "a", Dst: "b", Kind: KindRequest,
			RequestID: fmt.Sprintf("ns%d-%d", i%9, i),
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	if err := c.LogBatch(recs); err != nil {
		t.Fatal(err)
	}
	if got := ss.Len(); got != 120 {
		t.Fatalf("server holds %d records, want 120", got)
	}
	// Every record must be findable by its namespace pattern (i.e. it
	// landed on the shard the pattern pins).
	for ns := 0; ns < 9; ns++ {
		got, err := c.Select(Query{IDPattern: fmt.Sprintf("ns%d-*", ns)})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < 120; i++ {
			if i%9 == ns {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("ns%d: %d records via client, want %d", ns, len(got), want)
		}
	}
}

func TestClientCount(t *testing.T) {
	_, c := newShardedTestServer(t, 4)
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, Record{
			Src: "a", Dst: "b", Kind: KindRequest,
			RequestID: fmt.Sprintf("test-%d", i),
			Timestamp: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	if err := c.LogBatch(recs); err != nil {
		t.Fatal(err)
	}
	n, err := c.Count(Query{IDPattern: "test-*"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("Count=%d, want 50", n)
	}
	n, err = c.Count(Query{IDPattern: "other-*"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Count=%d, want 0", n)
	}
}

func TestServerNDJSONIngest(t *testing.T) {
	srv, c := newTestServer(t)
	body := `{"requestId":"test-1","src":"a","dst":"b","kind":"request"}
{"requestId":"test-2","src":"a","dst":"b","kind":"request"}
`
	resp, err := http.Post(srv.URL()+"/v1/records", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	n, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("stats=%d, want 2", n)
	}
}

// TestIngestRejectsUnknownFields: one ingest policy, whatever the body
// looks like. A record with a field Record does not have fails its whole
// body, and a body framed as a JSON array is refused as not JSON Lines;
// the Content-Type header changes neither.
func TestIngestRejectsUnknownFields(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, tc := range []struct{ name, contentType, body, reason string }{
		{"unknown field", "application/x-ndjson",
			`{"requestId":"test-1","src":"a","dst":"b","kind":"request"}` + "\n" +
				`{"requestId":"test-2","src":"a","dst":"b","kind":"request","colour":"red"}` + "\n",
			"unknown field"},
		{"array", "application/json",
			`[{"requestId":"test-1","src":"a","dst":"b","kind":"request"}]`,
			"must be JSON Lines"},
	} {
		resp, err := http.Post(srv.URL()+"/v1/records", tc.contentType, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.reason) {
			t.Fatalf("%s: %d %s; want 400 saying %s", tc.name, resp.StatusCode, msg, tc.reason)
		}
		if n := srv.store.Len(); n != 0 {
			t.Fatalf("%s: store took %d records from a refused body", tc.name, n)
		}
	}
}

// TestJSONLRoundTrip: a /v1/query reply is a dump, JSON Lines with one
// record a line, and ReadJSONL reads it back to the records the store
// holds.
func TestJSONLRoundTrip(t *testing.T) {
	srv, c := newTestServer(t)
	if err := c.Log(
		Record{Timestamp: t0, RequestID: "test-1", Src: "a", Dst: "b",
			Kind: KindRequest, Method: "GET", URI: "/x"},
		Record{Timestamp: t0.Add(time.Millisecond), RequestID: "test-1", Src: "a", Dst: "b",
			Kind: KindReply, Status: 503, LatencyMillis: 1.5,
			FaultAction: "abort", FaultRuleID: "r1", GremlinGenerated: true},
	); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL()+"/v1/query", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("query reply Content-Type %q", ct)
	}
	if lines := bytes.Count(dump, []byte{'\n'}); lines != 2 {
		t.Fatalf("dump has %d lines, want 2:\n%s", lines, dump)
	}
	got, err := ReadJSONL(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.store.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, want) {
		t.Fatalf("dump read back as\n%+v\nwant\n%+v", got, want)
	}
}

// TestReadJSONLMalformed: a dump is read like an ingest body, whole or
// not at all.
func TestReadJSONLMalformed(t *testing.T) {
	recs, err := ReadJSONL(strings.NewReader("{\"src\":\"a\"}\nnot json\n"))
	if err == nil || recs != nil {
		t.Fatalf("got (%v, %v), want a decode error and no records", recs, err)
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	recs, err := ReadJSONL(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("got (%v, %v)", recs, err)
	}
}

func TestServerInfoVolatileStore(t *testing.T) {
	_, c := newTestServer(t)
	if err := c.Log(Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "test-1", Timestamp: t0}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 1 || info.Shards != 1 || info.Persistent {
		t.Fatalf("info = %+v", info)
	}
	if info.Fsync != "" || info.DataDir != "" || info.FsyncIntervalMillis != 0 {
		t.Fatalf("volatile store leaked durability fields: %+v", info)
	}
}

func TestServerInfoShardedWAL(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewShardedStore(StoreOptions{
		Shards:        4,
		DataDir:       dir,
		Fsync:         FsyncInterval,
		FsyncInterval: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", ss)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
		if err := ss.Close(); err != nil {
			t.Errorf("close store: %v", err)
		}
	})
	c := NewClient(srv.URL(), nil)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != 4 || !info.Persistent || info.Fsync != string(FsyncInterval) ||
		info.FsyncIntervalMillis != 250 || info.DataDir != dir {
		t.Fatalf("info = %+v", info)
	}
}

func TestServerInfoMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL()+"/v1/info", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestIngestAllocBudget: one POST of a 256-record batch to a WAL-backed
// store decodes into a pooled slice and is logged without a stamped copy,
// so what it allocates — the records' strings, the store's index growth —
// stays under two batches of records, what the decode and a stamped copy
// would cost on their own.
func TestIngestAllocBudget(t *testing.T) {
	ss := warmedWALStore(t)
	srv := &Server{store: ss}
	batch := hopBatch(256)
	body, err := appendLines(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	budget := 2 * uint64(len(batch)) * uint64(unsafe.Sizeof(Record{}))
	var req *http.Request
	var w *httptest.ResponseRecorder
	reset := func() {
		clearHops(t, ss)
		req = httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body))
		w = httptest.NewRecorder()
	}
	reset()
	got := minAllocBytes(8, func() {
		srv.handleRecords(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST /v1/records = %d: %s", w.Code, w.Body)
		}
	}, reset)
	if got >= budget {
		t.Fatalf("ingesting %d records allocated %d bytes, want under %d (two batches of records)", len(batch), got, budget)
	}
}

// TestIngestReusesNoRecord: ingest bodies are decoded into pooled slices,
// which is safe only because Store.Log keeps copies. Overwriting the
// logged slice, and ingesting more bodies through the pool, leaves what
// the store holds as it was logged.
func TestIngestReusesNoRecord(t *testing.T) {
	for name, st := range map[string]*Store{
		"volatile": NewStore(),
		"wal":      newSharded(t, StoreOptions{Shards: 2, DataDir: t.TempDir(), Fsync: FsyncNever}),
	} {
		batch := hopBatch(64)
		want := append([]Record(nil), batch...)
		if err := st.Log(batch...); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			batch[i] = Record{RequestID: "camp-r1-overwritten", Src: "x", Dst: "y"}
		}
		got := selectAll(t, st)
		for i := range got {
			got[i].Seq = 0
		}
		if !sameRecords(got, want) {
			t.Fatalf("%s: Select after the logged slice was overwritten returns %+v", name, got[:1])
		}

		srv := &Server{store: st}
		for i := 0; i < 3; i++ {
			body, err := appendLines(nil, hopBatch(64+2*i))
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.ReplaceAll(body, []byte("camp-r1-"), []byte(fmt.Sprintf("camp-post%d-", i)))
			w := httptest.NewRecorder()
			srv.handleRecords(w, httptest.NewRequest(http.MethodPost, "/v1/records", bytes.NewReader(body)))
			if w.Code != http.StatusAccepted {
				t.Fatalf("%s: POST %d = %d: %s", name, i, w.Code, w.Body)
			}
		}
		for i := 0; i < 3; i++ {
			recs, err := st.Select(Query{IDPattern: fmt.Sprintf("camp-post%d-*", i)})
			if err != nil || len(recs) != 64+2*i {
				t.Fatalf("%s: body %d: %d records, %v; want %d", name, i, len(recs), err, 64+2*i)
			}
			for _, r := range recs {
				if !strings.HasPrefix(r.RequestID, fmt.Sprintf("camp-post%d-", i)) {
					t.Fatalf("%s: body %d holds %q", name, i, r.RequestID)
				}
			}
		}
	}
}
