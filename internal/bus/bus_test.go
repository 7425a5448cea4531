package bus

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/trace"
)

func newBus(t *testing.T, cfg Config) *Bus {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	t.Cleanup(func() {
		if err := b.Close(); err != nil {
			t.Errorf("close bus: %v", err)
		}
	})
	return b
}

// collector receives deliveries and records their bodies and IDs.
type collector struct {
	mu     sync.Mutex
	bodies []string
	ids    []string
	status atomic.Int32
	hits   atomic.Int64
	srv    *httptest.Server
}

func newCollector(t *testing.T) *collector {
	t.Helper()
	c := &collector{}
	c.status.Store(200)
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		st := int(c.status.Load())
		if st >= 400 {
			w.WriteHeader(st)
			return
		}
		c.mu.Lock()
		c.bodies = append(c.bodies, string(body))
		c.ids = append(c.ids, trace.FromRequest(r))
		c.mu.Unlock()
		w.WriteHeader(st)
	}))
	t.Cleanup(c.srv.Close)
	return c
}

func (c *collector) received() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.bodies...)
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timeout waiting for: " + msg)
}

func TestPublishDeliver(t *testing.T) {
	b := newBus(t, Config{})
	col := newCollector(t)
	if err := b.Subscribe("metrics", "cassandra", col.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("metrics", "test-1", []byte("datapoint")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(col.received()) == 1 }, "delivery")
	if got := col.received()[0]; got != "datapoint" {
		t.Fatalf("delivered body = %q", got)
	}
	col.mu.Lock()
	id := col.ids[0]
	col.mu.Unlock()
	if id != "test-1" {
		t.Fatalf("request id not propagated: %q", id)
	}
	// The collector records the body before it replies, and the bus
	// counts the delivery only after the reply.
	waitFor(t, func() bool { return b.Stats().Delivered == 1 }, "delivery counted")
	st := b.Stats()
	if st.Published != 1 || st.Delivered != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublishFansOutToAllSubscribers(t *testing.T) {
	b := newBus(t, Config{})
	c1, c2 := newCollector(t), newCollector(t)
	if err := b.Subscribe("ev", "s1", c1.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe("ev", "s2", c2.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("ev", "test-1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(c1.received()) == 1 && len(c2.received()) == 1 }, "fan-out")
}

func TestPublishNoSubscribers(t *testing.T) {
	b := newBus(t, Config{})
	if err := b.Publish("ghost", "test-1", []byte("x")); err == nil {
		t.Fatal("want error")
	}
}

func TestSubscribeValidation(t *testing.T) {
	b := newBus(t, Config{})
	if err := b.Subscribe("", "n", "u"); err == nil {
		t.Fatal("want error for empty topic")
	}
	if err := b.Subscribe("t", "n", "http://x"); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe("t", "n", "http://y"); err == nil {
		t.Fatal("want error for duplicate subscriber")
	}
}

func TestDeadSubscriberFillsQueueAndBlocksPublishers(t *testing.T) {
	// The Table 1 mechanic: the subscriber fails, the delivery worker
	// retries the head message forever, the bounded queue fills, and
	// publishers start getting backpressure errors.
	b := newBus(t, Config{QueueDepth: 4, RetryBackoff: time.Millisecond})
	col := newCollector(t)
	col.status.Store(503) // subscriber down
	if err := b.Subscribe("metrics", "cassandra", col.srv.URL); err != nil {
		t.Fatal(err)
	}

	// The queue holds QueueDepth messages (one more may be in flight with
	// the delivery worker); publishes beyond that are rejected.
	var rejected error
	for i := 0; i < 20 && rejected == nil; i++ {
		rejected = b.Publish("metrics", "test-1", []byte("m"))
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(rejected, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull backpressure, got %v", rejected)
	}
	// A retry is counted once the first attempt has failed, which can
	// take longer than filling the queue does.
	waitFor(t, func() bool { return b.Stats().Redelivered > 0 }, "redelivery counted")
	if st := b.Stats(); st.Rejected == 0 || st.Redelivered == 0 {
		t.Fatalf("stats = %+v, want rejections and redeliveries", st)
	}

	// Subscriber recovers: the queue drains and publishing resumes.
	col.status.Store(200)
	waitFor(t, func() bool {
		return b.Stats().QueueDepths["metrics/cassandra"] == 0
	}, "queue drain after recovery")
	waitFor(t, func() bool {
		return b.Publish("metrics", "test-2", []byte("m")) == nil
	}, "publish accepted after recovery")
}

func TestHTTPAPIEndToEnd(t *testing.T) {
	b := newBus(t, Config{})
	col := newCollector(t)

	// Subscribe over HTTP.
	subBody, err := json.Marshal(subscribeBody{Name: "worker", URL: col.srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(b.URL()+"/v1/topics/logs/subscribe", "application/json", bytes.NewReader(subBody))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status = %d", resp.StatusCode)
	}

	// Publish over HTTP with a request ID.
	req, err := http.NewRequest(http.MethodPost, b.URL()+"/v1/topics/logs/publish", strings.NewReader("hello"))
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-9")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("publish status = %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return len(col.received()) == 1 }, "HTTP delivery")

	// Stats over HTTP.
	resp, err = http.Get(b.URL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if st.Published != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHTTPPublishToUnknownTopic(t *testing.T) {
	b := newBus(t, Config{})
	resp, err := http.Post(b.URL()+"/v1/topics/none/publish", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPSubscribeValidation(t *testing.T) {
	b := newBus(t, Config{})
	resp, err := http.Post(b.URL()+"/v1/topics/t/subscribe", "application/json", strings.NewReader(`{"name":""}`))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestCloseStopsDeliveryWorkers(t *testing.T) {
	b, err := New(Config{QueueDepth: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	col := newCollector(t)
	col.status.Store(503) // stuck worker retrying
	if err := b.Subscribe("t", "s", col.srv.URL); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("t", "test-1", []byte("m")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a retrying delivery worker")
	}
	if err := b.Subscribe("t", "late", col.srv.URL); err == nil {
		t.Fatal("Subscribe after Close should fail")
	}
}
