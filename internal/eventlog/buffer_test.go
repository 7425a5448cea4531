package eventlog

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBufferedSinkFlushesOnSize(t *testing.T) {
	store := NewStore()
	// A huge interval isolates the size trigger.
	b := NewBufferedSinkOpts(store, BufferOptions{Size: 3, Interval: time.Hour})
	defer b.Close()

	if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	// Below the threshold nothing ships (the interval is an hour away).
	time.Sleep(10 * time.Millisecond)
	if store.Len() != 0 {
		t.Fatalf("premature flush: %d", store.Len())
	}
	if err := b.Log(
		Record{Src: "a", Dst: "b", Kind: KindRequest},
		Record{Src: "a", Dst: "b", Kind: KindRequest},
	); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "size-triggered flush", func() bool { return store.Len() == 3 })

	if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 4 {
		t.Fatalf("after flush: %d", store.Len())
	}

	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Log(Record{}); err == nil {
		t.Fatal("Log after Close should fail")
	}
}

func TestBufferedSinkFlushesOnInterval(t *testing.T) {
	store := NewStore()
	// A huge size threshold isolates the interval trigger.
	b := NewBufferedSinkOpts(store, BufferOptions{Size: 1 << 20, Interval: 5 * time.Millisecond})
	defer b.Close()
	if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "interval-triggered flush", func() bool { return store.Len() == 1 })
}

func TestBufferedSinkDefaultSize(t *testing.T) {
	store := NewStore()
	b := NewBufferedSinkOpts(store, BufferOptions{Interval: time.Hour})
	defer b.Close()
	for i := 0; i < 127; i++ {
		if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if store.Len() != 0 {
		t.Fatalf("store should still be empty, has %d", store.Len())
	}
	if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "default-size flush at 128", func() bool { return store.Len() == 128 })
}

// TestBufferedSinkEmptyFlushAllocBudget: flushing a drained sink
// allocates nothing. Every flush barrier (POST /v1/flush) and every idle
// interval tick lands here, most of them with nothing buffered.
func TestBufferedSinkEmptyFlushAllocBudget(t *testing.T) {
	b := NewBufferedSinkOpts(NewStore(), BufferOptions{Interval: time.Hour})
	defer b.Close()
	if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = b.Flush() }); got != 0 {
		t.Errorf("Flush of an empty sink = %.0f allocs, want 0", got)
	}
}

// slowSink delays every shipment, emulating a distant or overloaded store.
type slowSink struct {
	delay time.Duration
	inner *Store
}

func (s *slowSink) Log(recs ...Record) error {
	time.Sleep(s.delay)
	return s.inner.Log(recs...)
}

// TestBufferedSinkLogNeverBlocksOnSlowStore is the overhaul's contract: a
// logger (a live proxied request) must never wait out a store round trip,
// even when every record crosses the flush threshold.
func TestBufferedSinkLogNeverBlocksOnSlowStore(t *testing.T) {
	slow := &slowSink{delay: 200 * time.Millisecond, inner: NewStore()}
	b := NewBufferedSinkOpts(slow, BufferOptions{Size: 1, Max: 1000, Interval: 10 * time.Millisecond})
	defer b.Close()

	const n = 100
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// The old synchronous sink would take n × delay = 20 s here (every Log
	// crosses the size-1 threshold). One round trip's worth of slack is
	// already generous for 100 buffered appends.
	if elapsed >= slow.delay {
		t.Fatalf("%d Log calls took %v; data path blocked on the store", n, elapsed)
	}
	// All records still arrive (batches coalesce while the store is slow).
	waitFor(t, "all records shipped", func() bool { return slow.inner.Len() == n })
	if b.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", b.Dropped())
	}
}

// flakySink fails until healed, then records everything.
type flakySink struct {
	mu     sync.Mutex
	broken bool
	inner  *Store
	fails  int
}

func (f *flakySink) Log(recs ...Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken {
		f.fails++
		return errors.New("store down")
	}
	return f.inner.Log(recs...)
}

func (f *flakySink) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.broken = false
}

func TestBufferedSinkRetriesFailedFlush(t *testing.T) {
	flaky := &flakySink{broken: true, inner: NewStore()}
	b := NewBufferedSinkOpts(flaky, BufferOptions{Size: 2, Interval: time.Hour})
	defer b.Close()

	if err := b.Log(
		Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "test-1"},
		Record{Src: "a", Dst: "b", Kind: KindRequest, RequestID: "test-2"},
	); err != nil {
		t.Fatal(err)
	}
	// The store is down: a synchronous flush reports the failure but must
	// keep the records for retry instead of silently dropping them.
	if err := b.Flush(); err == nil {
		t.Fatal("Flush against a broken store should fail")
	}
	if flaky.inner.Len() != 0 {
		t.Fatal("no records should have landed")
	}

	flaky.heal()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := flaky.inner.Select(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].RequestID != "test-1" || recs[1].RequestID != "test-2" {
		t.Fatalf("retried records = %+v, want both originals in order", recs)
	}
	if b.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 (bound never hit)", b.Dropped())
	}
}

func TestBufferedSinkBoundsBufferAndCountsDrops(t *testing.T) {
	flaky := &flakySink{broken: true, inner: NewStore()}
	b := NewBufferedSinkOpts(flaky, BufferOptions{Size: 4, Max: 8, Interval: time.Hour})
	defer b.Close()

	for i := 0; i < 20; i++ {
		if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
		_ = b.Flush() // fails; records bounce back into the buffer
	}
	if d := b.Dropped(); d != 12 {
		t.Fatalf("Dropped = %d, want 12 (20 logged, bound 8)", d)
	}

	flaky.heal()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if flaky.inner.Len() != 8 {
		t.Fatalf("store has %d records, want the 8 retained", flaky.inner.Len())
	}
}

// TestBufferedSinkCountsFlushesAndRetries pins the shipping-health counters
// that proxy.Agent.Stats surfaces: successful shipments bump Flushes,
// failed ones bump Retries (the batch bounces back into the buffer).
func TestBufferedSinkCountsFlushesAndRetries(t *testing.T) {
	flaky := &flakySink{broken: true, inner: NewStore()}
	b := NewBufferedSinkOpts(flaky, BufferOptions{Size: 1 << 20, Interval: time.Hour})
	defer b.Close()

	if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err == nil {
		t.Fatal("Flush against a broken store should fail")
	}
	if f, r := b.Flushes(), b.Retries(); f != 0 || r != 1 {
		t.Fatalf("after failed flush: Flushes = %d, Retries = %d, want 0, 1", f, r)
	}

	flaky.heal()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if f, r := b.Flushes(), b.Retries(); f != 1 || r != 1 {
		t.Fatalf("after recovery: Flushes = %d, Retries = %d, want 1, 1", f, r)
	}

	// Flushing an empty buffer ships nothing and counts nothing.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if f := b.Flushes(); f != 1 {
		t.Fatalf("empty flush bumped Flushes to %d", f)
	}
}

// countingSink keeps each Log call's records as one shipment.
type countingSink struct {
	mu      sync.Mutex
	batches [][]Record
}

func (c *countingSink) Log(recs ...Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batches = append(c.batches, recs)
	return nil
}

func (c *countingSink) stats() (batches, recs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.batches {
		recs += len(b)
	}
	return len(c.batches), recs
}

// TestBufferedSinkUsesBatchPath: a flush ships everything it took in one
// Log call on the underlying sink, never record by record.
func TestBufferedSinkUsesBatchPath(t *testing.T) {
	sink := &countingSink{}
	b := NewBufferedSinkOpts(sink, BufferOptions{Size: 4, Interval: time.Hour})
	defer b.Close()

	for i := 0; i < 10; i++ {
		if err := b.Log(Record{Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	// Flush waits out any background flush, so every shipment is done.
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	batches, recs := sink.stats()
	if recs != 10 {
		t.Fatalf("sink took %d records, want 10", recs)
	}
	if batches == 0 || int64(batches) != b.Flushes() {
		t.Fatalf("%d Log calls for %d flushes; want one per flush", batches, b.Flushes())
	}
	if got := b.BatchRecords(); got != 10 {
		t.Fatalf("BatchRecords=%d, want 10", got)
	}
	if got := b.MaxBatch(); got < 4 || got > 10 {
		t.Fatalf("MaxBatch=%d, want within [4,10]", got)
	}
}

// One shard group of a flush failing must not ship the groups the server
// already took a second time: records at the store == records logged.
func TestBufferedSinkRequeuesOnlyUnshippedShardGroups(t *testing.T) {
	store, err := NewShardedStore(StoreOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// In front of the store: a proxy that refuses shard 1's group once.
	target, err := url.Parse(srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var refused atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Query().Get("shard") == "1" && refused.CompareAndSwap(false, true) {
			http.Error(w, "shard 1 unavailable", http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer front.Close()

	// Flushed by hand only: the batch stays below Size, the interval is far.
	sink := NewBufferedSinkOpts(NewClient(front.URL, nil), BufferOptions{Size: 1024, Interval: time.Hour})
	defer sink.Close()
	const n = 64
	perShard := make([]int, 4)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ns%d-1", i)
		perShard[shardOf(id, 4)]++
		if err := sink.Log(Record{RequestID: id, Src: "a", Dst: "b", Kind: KindRequest}); err != nil {
			t.Fatal(err)
		}
	}
	if perShard[0] == 0 || perShard[1] == 0 {
		t.Fatalf("batch must span shards 0 and 1, got %v", perShard)
	}

	err = sink.Flush()
	var partial *PartialBatchError
	if !errors.As(err, &partial) || len(partial.Unshipped) != n-perShard[0] {
		t.Fatalf("first flush: %v; want a PartialBatchError holding the %d records past shard 0", err, n-perShard[0])
	}
	if got := store.Len(); got != perShard[0] {
		t.Fatalf("store holds %d records after the refused group, want shard 0's %d", got, perShard[0])
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := store.Len(); got != n {
		t.Fatalf("store holds %d records, logged %d", got, n)
	}
	if sink.Dropped() != 0 || sink.Retries() != 1 {
		t.Fatalf("Dropped = %d, Retries = %d; want 0 and 1", sink.Dropped(), sink.Retries())
	}
}
