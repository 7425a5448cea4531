package checker

import (
	"fmt"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

// The paper's Table 3 operations (queries, base assertions and pattern
// checks) over a store holding 1000 request/reply pairs on one edge.

// populateStore fills a store with n request/reply pairs from a to b, every
// fourth reply a 503.
func populateStore(b *testing.B, n int) *eventlog.Store {
	b.Helper()
	store := eventlog.NewStore()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		status := 200
		if i%4 == 0 {
			status = 503
		}
		err := store.Log(
			eventlog.Record{Timestamp: at, RequestID: fmt.Sprintf("test-%d", i),
				Src: "a", Dst: "b", Kind: eventlog.KindRequest, Method: "GET", URI: "/x"},
			eventlog.Record{Timestamp: at.Add(time.Millisecond), RequestID: fmt.Sprintf("test-%d", i),
				Src: "a", Dst: "b", Kind: eventlog.KindReply, Status: status, LatencyMillis: 1},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
	return store
}

func BenchmarkTable3GetRequests(b *testing.B) {
	c := New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetRequests("a", "b", "test-*"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ReplyLatency(b *testing.B) {
	c := New(populateStore(b, 1000))
	rl, err := c.GetReplies("a", "b", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReplyLatency(rl, true)
	}
}

func BenchmarkTable3Combine(b *testing.B) {
	c := New(populateStore(b, 1000))
	rl, err := c.GetReplies("a", "b", "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Combine(rl,
			StatusSeen{Status: 503, NumMatch: 5, WithRule: true},
			AtMost{Tdelta: time.Minute, WithRule: true, Num: 1000},
		)
	}
}

func BenchmarkTable3HasBoundedRetries(b *testing.B) {
	c := New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HasBoundedRetries("a", "b", 1000, "", BoundedRetriesOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3HasCircuitBreaker(b *testing.B) {
	c := New(populateStore(b, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HasCircuitBreaker("a", "b", 5, time.Millisecond, "", CircuitBreakerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
