// Plane-compatibility tests: the checker (batch and live) and tracing must
// behave identically whether they read a *Store or a *ShardedStore. They
// live in an external test package so eventlog itself never imports the
// planes built on top of it.
package eventlog_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/eventlog"
	"gremlin/internal/tracing"
)

var base = time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

// seedFlows logs nFlows request/reply pairs per namespace into sink.
func seedFlows(t *testing.T, sink eventlog.Sink, namespaces []string, nFlows int) {
	t.Helper()
	var recs []eventlog.Record
	at := base
	for _, ns := range namespaces {
		for i := 0; i < nFlows; i++ {
			id := fmt.Sprintf("%s-%d", ns, i)
			span := fmt.Sprintf("%s-span-%d", ns, i)
			recs = append(recs,
				eventlog.Record{
					Timestamp: at, RequestID: id, Src: "gateway", Dst: "backend",
					Kind: eventlog.KindRequest, SpanID: span,
				},
				eventlog.Record{
					Timestamp: at.Add(5 * time.Millisecond), RequestID: id, Src: "gateway", Dst: "backend",
					Kind: eventlog.KindReply, SpanID: span, Status: 200,
				},
			)
			at = at.Add(10 * time.Millisecond)
		}
	}
	if err := sink.Log(recs...); err != nil {
		t.Fatal(err)
	}
}

func shardedStore(t *testing.T, shards int) *eventlog.ShardedStore {
	t.Helper()
	ss, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: shards, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return ss
}

func TestCheckerOverShardedStore(t *testing.T) {
	ss := shardedStore(t, 4)
	seedFlows(t, ss, []string{"test", "camp-run1", "camp-run2"}, 20)

	c := checker.New(ss)
	reqs, err := c.GetRequests("gateway", "backend", "camp-run1-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 20 {
		t.Fatalf("checker saw %d campaign requests, want 20", len(reqs))
	}
	n, err := c.CountRequests("gateway", "backend", "*", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("CountRequests=%d, want 60", n)
	}
}

func TestTracingOverShardedStore(t *testing.T) {
	ss := shardedStore(t, 4)
	seedFlows(t, ss, []string{"test", "camp-run1"}, 10)

	traces, err := tracing.FromSource(ss, eventlog.Query{IDPattern: "camp-run1-*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 10 {
		t.Fatalf("assembled %d traces, want 10", len(traces))
	}
}

func TestObserveOverShardedStore(t *testing.T) {
	ss := shardedStore(t, 4)

	a, err := checker.Build(checker.Spec{
		Type: "numRequests", Src: "gateway", Dst: "backend", Pattern: "camp-run1-*",
		WindowMillis: 60000, Max: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := checker.NewMonitor([]*checker.Bound{a}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- checker.Watch(ctx, checker.StoreFeed(ss), "camp-run1-*", m, true)
	}()

	// Give the subscription a moment to attach, then exceed the budget.
	time.Sleep(20 * time.Millisecond)
	seedFlows(t, ss, []string{"camp-run1"}, 10)

	if err := <-done; err != nil {
		t.Fatalf("watch: %v", err)
	}
	if !m.Violated() {
		t.Fatal("monitor should have seen the rate violation through the sharded feed")
	}
}
