package tracing

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

var t0 = time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)

// hop builds the request+reply record pair for one proxied hop.
func hop(reqID, spanID, parentID, src, dst string, start time.Time, latency time.Duration, status int) []eventlog.Record {
	return []eventlog.Record{
		{Timestamp: start, RequestID: reqID, SpanID: spanID, ParentSpanID: parentID,
			Src: src, Dst: dst, Kind: eventlog.KindRequest, Method: "GET", URI: "/x"},
		{Timestamp: start.Add(latency), RequestID: reqID, SpanID: spanID, ParentSpanID: parentID,
			Src: src, Dst: dst, Kind: eventlog.KindReply, Status: status,
			LatencyMillis: float64(latency) / float64(time.Millisecond)},
	}
}

// chain builds a three-hop sequential chain a->b->c->d for reqID.
func chain(reqID string) []eventlog.Record {
	var recs []eventlog.Record
	recs = append(recs, hop(reqID, "sp-a-1", "", "a", "b", t0, 100*time.Millisecond, 200)...)
	recs = append(recs, hop(reqID, "sp-b-1", "sp-a-1", "b", "c", t0.Add(10*time.Millisecond), 60*time.Millisecond, 200)...)
	recs = append(recs, hop(reqID, "sp-c-1", "sp-b-1", "c", "d", t0.Add(20*time.Millisecond), 30*time.Millisecond, 200)...)
	return recs
}

func TestAssembleChain(t *testing.T) {
	traces := Assemble(chain("test-1"))
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.RequestID != "test-1" || tr.Legacy {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Roots) != 1 || len(tr.Spans) != 3 {
		t.Fatalf("roots=%d spans=%d, want 1/3", len(tr.Roots), len(tr.Spans))
	}
	root := tr.Root()
	if root.Src != "a" || root.Dst != "b" || root.Status != 200 {
		t.Fatalf("root = %+v", root)
	}
	if root.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", root.Depth())
	}
	if len(root.Children) != 1 || root.Children[0].Dst != "c" {
		t.Fatalf("children = %+v", root.Children)
	}
	if got := tr.Duration(); got != 100*time.Millisecond {
		t.Fatalf("duration = %s", got)
	}
	if tr.Failed() {
		t.Fatal("healthy trace reported failed")
	}
}

func TestAssembleLegacyFallback(t *testing.T) {
	// Same chain with span fields stripped: assembly must recover the same
	// tree from timestamps alone.
	recs := chain("test-legacy")
	for i := range recs {
		recs[i].SpanID, recs[i].ParentSpanID = "", ""
	}
	traces := Assemble(recs)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tr := traces[0]
	if !tr.Legacy {
		t.Fatal("fallback trace not marked Legacy")
	}
	if len(tr.Roots) != 1 || len(tr.Spans) != 3 {
		t.Fatalf("roots=%d spans=%d, want 1/3", len(tr.Roots), len(tr.Spans))
	}
	if tr.Root().Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Root().Depth())
	}
	if tr.Root().Children[0].Src != "b" || tr.Root().Children[0].Dst != "c" {
		t.Fatalf("nesting wrong: %+v", tr.Root().Children[0])
	}
}

func TestAssembleMixedLegacyAndSpanful(t *testing.T) {
	// One hop lost its span fields (mid-rollout agent); the others carry
	// them. The legacy hop still lands in the same trace.
	recs := chain("test-mixed")
	recs[4].SpanID, recs[4].ParentSpanID = "", "" // c->d request
	recs[5].SpanID, recs[5].ParentSpanID = "", "" // c->d reply
	tr := Assemble(recs)[0]
	if tr.Legacy {
		t.Fatal("mixed trace should not be marked Legacy")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(tr.Spans))
	}
	// The legacy hop nests under b->c by timestamp containment.
	if tr.Root().Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tr.Root().Depth())
	}
}

func TestAssembleOrphanReply(t *testing.T) {
	recs := chain("test-orphan")
	recs = append(recs, eventlog.Record{
		Timestamp: t0.Add(50 * time.Millisecond), RequestID: "test-orphan",
		SpanID: "sp-lost-9", Src: "b", Dst: "x", Kind: eventlog.KindReply, Status: 200,
	})
	tr := Assemble(recs)[0]
	if len(tr.Orphans) != 1 || tr.Orphans[0].SpanID != "sp-lost-9" {
		t.Fatalf("orphans = %+v", tr.Orphans)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("orphan reply should not create a span: %d", len(tr.Spans))
	}
}

func TestAssembleMissingRoot(t *testing.T) {
	// Drop the root hop's records: the b->c subtree must surface as a root
	// rather than vanish.
	recs := chain("test-noroot")[2:]
	tr := Assemble(recs)[0]
	if len(tr.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tr.Roots))
	}
	if tr.Root().Src != "b" || tr.Root().ParentID != "sp-a-1" {
		t.Fatalf("promoted root = %+v", tr.Root())
	}
	if tr.Root().Depth() != 2 {
		t.Fatalf("depth = %d, want 2", tr.Root().Depth())
	}
}

func TestAssembleIncompleteSpan(t *testing.T) {
	// Request without reply: still in flight when observation stopped.
	recs := chain("test-inflight")[:5] // drop c->d reply
	tr := Assemble(recs)[0]
	var leaf *Span
	for _, s := range tr.Spans {
		if s.Dst == "d" {
			leaf = s
		}
	}
	if leaf == nil || !leaf.Incomplete {
		t.Fatalf("leaf = %+v, want Incomplete", leaf)
	}
}

func TestAssembleSeveredReply(t *testing.T) {
	recs := hop("test-sev", "sp-1", "", "a", "b", t0, 5*time.Millisecond, 0)
	recs[1].GremlinGenerated = true
	recs[1].FaultAction = "abort"
	recs[1].FaultRuleID = "r-sever"
	tr := Assemble(recs)[0]
	s := tr.Root()
	if !s.Severed || !s.Synthesized || s.FaultRuleID != "r-sever" {
		t.Fatalf("span = %+v", s)
	}
	if !tr.Failed() {
		t.Fatal("severed root should fail the trace")
	}
}

func TestAssembleDuplicateSpanIDs(t *testing.T) {
	recs := chain("test-dup")
	// A second request record reusing sp-b-1.
	recs = append(recs, eventlog.Record{
		Timestamp: t0.Add(40 * time.Millisecond), RequestID: "test-dup",
		SpanID: "sp-b-1", ParentSpanID: "sp-a-1",
		Src: "b", Dst: "e", Kind: eventlog.KindRequest,
	})
	tr := Assemble(recs)[0]
	if len(tr.DuplicateSpanIDs) != 1 || tr.DuplicateSpanIDs[0] != "sp-b-1" {
		t.Fatalf("duplicates = %v", tr.DuplicateSpanIDs)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("spans = %d, want 4 (duplicate kept as its own span)", len(tr.Spans))
	}
}

func TestAssembleParentCycleTerminates(t *testing.T) {
	// Malformed: two spans name each other as parents. Assembly must not
	// loop and must expose the component via a root.
	var recs []eventlog.Record
	recs = append(recs, hop("test-cycle", "sp-x", "sp-y", "a", "b", t0, time.Millisecond, 200)...)
	recs = append(recs, hop("test-cycle", "sp-y", "sp-x", "b", "a", t0.Add(time.Millisecond), time.Millisecond, 200)...)
	tr := Assemble(recs)[0]
	if len(tr.Roots) == 0 {
		t.Fatal("cyclic component produced no root")
	}
	n := 0
	for _, r := range tr.Roots {
		r.Walk(func(*Span) { n++ })
	}
	if n != 2 {
		t.Fatalf("walk visited %d spans, want 2", n)
	}
}

func TestAssembleCampaignNamespacesNeverMerge(t *testing.T) {
	// Two concurrent campaign runs interleave records in the store; their
	// camp-<runID>-* namespaces must assemble into distinct traces.
	r1 := chain("camp-1-aaaaaa-1")
	r2 := chain("camp-2-aaaaaa-1")
	var interleaved []eventlog.Record
	for i := range r1 {
		interleaved = append(interleaved, r1[i], r2[i])
	}
	// Plus records with no request ID at all: never part of any trace.
	interleaved = append(interleaved, eventlog.Record{
		Timestamp: t0, Src: "a", Dst: "b", Kind: eventlog.KindRequest, SpanID: "sp-bg-1",
	})
	traces := Assemble(interleaved)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Spans) != 3 {
			t.Fatalf("trace %s has %d spans, want 3", tr.RequestID, len(tr.Spans))
		}
		for _, s := range tr.Spans {
			if !strings.HasPrefix(tr.RequestID, "camp-1-") && !strings.HasPrefix(tr.RequestID, "camp-2-") {
				t.Fatalf("unexpected trace %q", tr.RequestID)
			}
			_ = s
		}
	}
}

func TestFromSource(t *testing.T) {
	store := eventlog.NewStore()
	if err := store.Log(chain("test-src")...); err != nil {
		t.Fatal(err)
	}
	traces, err := FromSource(store, eventlog.Query{IDPattern: "test-*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || len(traces[0].Spans) != 3 {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestRoundTripThroughJSONL(t *testing.T) {
	// Spanful and legacy records survive a JSONL dump (a store's
	// /v1/query reply) and its reload, and assemble identically — the
	// backward-compatibility contract.
	store := eventlog.NewStore()
	legacy := chain("test-old")
	for i := range legacy {
		legacy[i].SpanID, legacy[i].ParentSpanID = "", ""
	}
	if err := store.Log(append(chain("test-new"), legacy...)...); err != nil {
		t.Fatal(err)
	}
	srv, err := eventlog.NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post(srv.URL()+"/v1/query", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), `"spanId":"sp-a-1"`) {
		t.Fatal("span fields not persisted")
	}
	recs, err := eventlog.ReadJSONL(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	reloaded := eventlog.NewStore()
	if err := reloaded.Log(recs...); err != nil {
		t.Fatal(err)
	}
	traces, err := FromSource(reloaded, eventlog.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Spans) != 3 || tr.Root().Depth() != 3 {
			t.Fatalf("trace %s: spans=%d depth=%d", tr.RequestID, len(tr.Spans), tr.Root().Depth())
		}
		if tr.RequestID == "test-old" && !tr.Legacy {
			t.Fatal("reloaded legacy trace not marked Legacy")
		}
	}
}
