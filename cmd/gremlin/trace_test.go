package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"

	"gremlin/internal/rules"
	"gremlin/internal/topology"
	"gremlin/internal/trace"
)

// TestTraceCLIEndToEnd is the tracing plane's acceptance path: run the
// quickstart app with an injected 100ms delay, dump the event log, and
// assert the CLI's waterfall shows a critical path through the delayed
// edge with the latency inflation attributed to the firing rule.
func TestTraceCLIEndToEnd(t *testing.T) {
	spec := topology.TwoServices(0, 0)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	if err := app.Agent("serviceA").InstallRules(rules.Rule{
		ID: "delay-ab", Src: "serviceA", Dst: "serviceB",
		Action: rules.ActionDelay, DelayMillis: 100, Pattern: "test-*",
	}); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, app.EntryURL()+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The dump is the store's /v1/query reply, saved as it came.
	srv, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dump := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(dump, queryDump(t, srv.URL()), 0o600); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runTrace([]string{"-file", dump, "-pattern", "test-*"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"trace test-trace-1",
		"serviceA -> serviceB",
		"critical path: user -> serviceA -> serviceB",
		"attribution: rule delay-ab on serviceA -> serviceB",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The injected delay dominates the end-to-end latency split.
	if !strings.Contains(got, "injected 100.") {
		t.Fatalf("injected delay not attributed:\n%s", got)
	}

	// JSON and DOT formats render from the same dump.
	var jsonOut strings.Builder
	if err := runTrace([]string{"-file", dump, "-format", "json"}, &jsonOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut.String(), `"requestId": "test-trace-1"`) {
		t.Fatalf("json output:\n%s", jsonOut.String())
	}
	var dotOut strings.Builder
	if err := runTrace([]string{"-file", dump, "-format", "dot", "-obs-graph"}, &dotOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dotOut.String(), "digraph traces") ||
		!strings.Contains(dotOut.String(), "digraph app") {
		t.Fatalf("dot output:\n%s", dotOut.String())
	}
}

func TestTraceCLIFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := runTrace(nil, &out); err == nil {
		t.Fatal("no source should error")
	}
	if err := runTrace([]string{"-file", "x", "-store", "http://y"}, &out); err == nil {
		t.Fatal("both sources should error")
	}
	dump := filepath.Join(t.TempDir(), "missing.jsonl")
	if err := runTrace([]string{"-file", dump}, &out); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestTraceMissingFile: a -file that does not exist is an error naming
// it, not an empty dump.
func TestTraceMissingFile(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "typo.jsonl")
	err := runTrace([]string{"-file", dump}, io.Discard)
	if !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), dump) {
		t.Fatalf("got %v; want an error naming %s that wraps os.ErrNotExist", err, dump)
	}
}

// queryDump returns the store's /v1/query reply for every record: its
// dump.
func queryDump(t *testing.T, storeURL string) []byte {
	t.Helper()
	resp, err := http.Post(storeURL+"/v1/query", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dump, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d, %v", resp.StatusCode, err)
	}
	return dump
}

// hopRecords is two hops per request, gateway -> cart -> stock, with
// spans, for requests in several namespaces.
func hopRecords() []eventlog.Record {
	var recs []eventlog.Record
	at := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	for i, ns := range []string{"test", "camp-r1", "camp-r2", "prod"} {
		id := fmt.Sprintf("%s-%d", ns, i)
		for j, e := range [][2]string{{"gateway", "cart"}, {"cart", "stock"}} {
			req := eventlog.Record{
				Timestamp: at.Add(time.Duration(10*i+j) * time.Millisecond),
				RequestID: id, SpanID: fmt.Sprintf("%s-s%d", id, j),
				Src: e[0], Dst: e[1], Kind: eventlog.KindRequest, Method: "GET", URI: "/item",
			}
			if j > 0 {
				req.ParentSpanID = fmt.Sprintf("%s-s%d", id, j-1)
			}
			lat := time.Duration(8-4*j) * time.Millisecond
			reply := req
			reply.Timestamp, reply.Kind, reply.Status, reply.LatencyMillis = req.Timestamp.Add(lat), eventlog.KindReply, 200, float64(lat.Milliseconds())
			recs = append(recs, req, reply)
		}
	}
	return recs
}

// TestExportIsImport: a store's /v1/query reply is its dump. POSTed to a
// fresh store's /v1/records it imports the same records, and gremlin
// trace renders the same waterfalls from it saved to a file as from the
// live store.
func TestExportIsImport(t *testing.T) {
	a, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	srvA, err := eventlog.NewServer("127.0.0.1:0", a)
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	b := eventlog.NewStore()
	srvB, err := eventlog.NewServer("127.0.0.1:0", b)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	if err := eventlog.NewClient(srvA.URL(), nil).Log(hopRecords()...); err != nil {
		t.Fatal(err)
	}
	for _, st := range a.ShardStats() {
		if st.Records == 0 {
			t.Fatalf("shard %d holds no records; the dump must gather both", st.Shard)
		}
	}
	dump := queryDump(t, srvA.URL())
	resp, err := http.Post(srvB.URL()+"/v1/records", "application/x-ndjson", bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("import: status %d", resp.StatusCode)
	}
	want, err := a.Select(eventlog.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Select(eventlog.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) != len(hopRecords()) {
		t.Fatalf("imported %d records, exported %d, logged %d", len(got), len(want), len(hopRecords()))
	}
	for i := range want {
		// Seq is store-local; compare everything else.
		want[i].Seq, got[i].Seq = 0, 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: imported %+v, exported %+v", i, got[i], want[i])
		}
	}

	file := filepath.Join(t.TempDir(), "dump.jsonl")
	if err := os.WriteFile(file, dump, 0o600); err != nil {
		t.Fatal(err)
	}
	var fromFile, fromStore strings.Builder
	if err := runTrace([]string{"-file", file}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := runTrace([]string{"-store", srvA.URL()}, &fromStore); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromStore.String() || !strings.Contains(fromFile.String(), "gateway -> cart") {
		t.Fatalf("trace -file rendered\n%s\ntrace -store rendered\n%s", fromFile.String(), fromStore.String())
	}
}
