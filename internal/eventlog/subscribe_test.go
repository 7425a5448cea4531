package eventlog

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/metrics"
	"gremlin/internal/pattern"
)

func TestSubscribeDeliversMatchingRecords(t *testing.T) {
	s := NewStore()
	sub, err := s.Subscribe("req-*")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := s.Log(
		Record{RequestID: "req-1", Src: "a", Dst: "b", Kind: KindRequest},
		Record{RequestID: "other", Src: "a", Dst: "b", Kind: KindRequest},
		Record{RequestID: "req-2", Src: "b", Dst: "a", Kind: KindReply},
	); err != nil {
		t.Fatal(err)
	}

	var got []string
	for len(got) < 2 {
		select {
		case r := <-sub.C():
			got = append(got, r.RequestID)
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out; got %v", got)
		}
	}
	if got[0] != "req-1" || got[1] != "req-2" {
		t.Fatalf("delivered %v, want [req-1 req-2]", got)
	}
	select {
	case r := <-sub.C():
		t.Fatalf("unexpected extra record %q", r.RequestID)
	default:
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", sub.Dropped())
	}
	if s.Published() != 2 {
		t.Fatalf("published = %d, want 2", s.Published())
	}
}

func TestSubscribeBadPattern(t *testing.T) {
	s := NewStore()
	if _, err := s.Subscribe("re:["); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if s.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after failed subscribe", s.Subscribers())
	}
}

// TestSubscribeSlowConsumerDrops pins the bounded-buffer contract: a
// consumer that never reads loses everything beyond its buffer, the losses
// are counted, and the append path is never blocked.
func TestSubscribeSlowConsumerDrops(t *testing.T) {
	s := NewStore()
	const buffer = 4
	sub, err := s.SubscribeBuffer("", buffer)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			_ = s.Log(Record{RequestID: fmt.Sprintf("r-%03d", i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("append path blocked by a stuck subscriber")
	}

	if got := sub.Dropped(); got != n-buffer {
		t.Fatalf("dropped = %d, want %d", got, n-buffer)
	}
	if got := s.SubscriberDropped(); got != n-buffer {
		t.Fatalf("store dropped = %d, want %d", got, n-buffer)
	}
	// The survivors are the first `buffer` records, in order.
	for i := 0; i < buffer; i++ {
		r := <-sub.C()
		if want := fmt.Sprintf("r-%03d", i); r.RequestID != want {
			t.Fatalf("record %d = %q, want %q", i, r.RequestID, want)
		}
	}
}

func TestSubscriptionCloseIdempotentAndConcurrentWithLog(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Log(Record{RequestID: "x"})
			}
		}
	}()

	for i := 0; i < 50; i++ {
		sub, err := s.SubscribeBuffer("", 2)
		if err != nil {
			t.Fatal(err)
		}
		// Drain a little, then close while the logger is mid-flight; a
		// second Close must be a no-op.
		select {
		case <-sub.C():
		default:
		}
		sub.Close()
		sub.Close()
		// C is closed after Close: drain to the closed signal.
		for range sub.C() {
		}
	}
	close(stop)
	wg.Wait()
	if s.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after all closed", s.Subscribers())
	}
}

func TestStoreLogSkipsPublishWithoutSubscribers(t *testing.T) {
	s := NewStore()
	if err := s.Log(Record{RequestID: "a"}); err != nil {
		t.Fatal(err)
	}
	if s.Published() != 0 || s.SubscriberDropped() != 0 {
		t.Fatalf("published=%d dropped=%d with no subscribers", s.Published(), s.SubscriberDropped())
	}
	if s.Appended() != 1 {
		t.Fatalf("appended = %d, want 1", s.Appended())
	}
}

func TestServerStreamEndToEnd(t *testing.T) {
	old := streamHeartbeat
	streamHeartbeat = 50 * time.Millisecond
	defer func() { streamHeartbeat = old }()

	store := NewStore()
	srv, err := NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	recs := make(chan Record, 16)
	errc := make(chan error, 1)
	go func() {
		errc <- c.Stream(ctx, "live-*", func(r Record) error {
			recs <- r
			if r.RequestID == "live-done" {
				return ErrStreamStopped
			}
			return nil
		})
	}()

	// Wait for the subscription to register before logging, so the stream
	// doesn't miss the records.
	deadline := time.Now().Add(5 * time.Second)
	for store.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := c.Log(
		Record{RequestID: "live-1", Src: "a", Dst: "b", Status: 503},
		Record{RequestID: "ignored", Src: "a", Dst: "b"},
		Record{RequestID: "live-done", Src: "a", Dst: "b"},
	); err != nil {
		t.Fatal(err)
	}

	var got []string
	for len(got) < 2 {
		select {
		case r := <-recs:
			got = append(got, r.RequestID)
		case <-ctx.Done():
			t.Fatalf("timed out; got %v", got)
		}
	}
	if got[0] != "live-1" || got[1] != "live-done" {
		t.Fatalf("streamed %v, want [live-1 live-done]", got)
	}
	if err := <-errc; err != nil {
		t.Fatalf("stream returned %v, want nil after ErrStreamStopped", err)
	}

	// The server-side subscription is torn down once the client goes away.
	deadline = time.Now().Add(5 * time.Second)
	for store.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d after stream end", store.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerStreamCancelledByContext(t *testing.T) {
	store := NewStore()
	srv, err := NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.Stream(ctx, "", func(Record) error { return nil }) }()

	deadline := time.Now().Add(5 * time.Second)
	for store.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("stream err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not stop on cancel")
	}
}

func TestServerStreamRejectsBadRequests(t *testing.T) {
	store := NewStore()
	srv, err := NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Stream(ctx, "re:[", func(Record) error { return nil }); err == nil {
		t.Fatal("bad pattern accepted")
	}
	resp, err := http.Get(srv.URL() + "/v1/stream?buffer=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad buffer returned %d, want 400", resp.StatusCode)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	store := NewStore()
	srv, err := NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL(), nil)
	if err := c.Log(Record{RequestID: "m-1"}, Record{RequestID: "m-2"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if err := metrics.Lint(resp.Body); err != nil {
		t.Fatalf("metrics output fails lint: %v", err)
	}

	resp2, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"gremlin_store_records 2",
		"gremlin_store_appended_total 2",
		"gremlin_store_subscribers 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// waitUntil polls cond for up to five seconds and reports whether it held.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// checkNoGoroutinesLeft fails unless the goroutine count settles back
// within two of base.
func checkNoGoroutinesLeft(t *testing.T, base int) {
	t.Helper()
	if !waitUntil(func() bool { return runtime.NumGoroutine() <= base+2 }) {
		t.Fatalf("%d goroutines left behind (%d at start)", runtime.NumGoroutine()-base, base)
	}
}

// TestSubscriptionCloseLeaksNoGoroutines: closing an unpinned feed on a
// multi-shard store while its buffer is full, without reading it, leaves
// nothing running.
func TestSubscriptionCloseLeaksNoGoroutines(t *testing.T) {
	ss := newSharded(t, StoreOptions{Shards: 4})
	batch := make([]Record, 64)
	for i := range batch {
		batch[i] = Record{RequestID: fmt.Sprintf("ns%d-%d", i%8, i), Src: "a", Dst: "b", Kind: KindRequest}
	}
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 20; cycle++ {
		sub, err := ss.SubscribeBuffer("", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Log(batch...); err != nil {
			t.Fatal(err)
		}
		sub.Close()
	}
	checkNoGoroutinesLeft(t, base)
}

// TestSubscriptionServerDisconnectLeaksNoGoroutines: a /v1/stream client
// on a 4-shard server that stops reading until its feed overflows, then
// disconnects, leaves nothing running.
func TestSubscriptionServerDisconnectLeaksNoGoroutines(t *testing.T) {
	ss, c := newShardedTestServer(t, 4)
	base := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", strings.TrimPrefix(c.wire.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A small receive window, so the handler's writes block sooner.
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, "GET /v1/stream?buffer=2 HTTP/1.1\r\nHost: store\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(func() bool { return ss.Subscribers() > 0 }) {
		t.Fatal("stream never subscribed")
	}
	// Large records across namespaces until the feed drops: the handler is
	// then stuck writing to a client that does not read.
	uri := strings.Repeat("x", 64<<10)
	batch := make([]Record, 16)
	for i := range batch {
		batch[i] = Record{RequestID: fmt.Sprintf("ns%d-%d", i%8, i), Src: "a", Dst: "b", Kind: KindRequest, URI: uri}
	}
	for i := 0; ss.SubscriberDropped() == 0; i++ {
		if i == 1000 {
			t.Fatal("feed never overflowed")
		}
		if err := ss.Log(batch...); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	if !waitUntil(func() bool { return ss.Subscribers() == 0 }) {
		t.Fatal("subscription outlived its client")
	}
	checkNoGoroutinesLeft(t, base)
}

// TestServerStreamWireFrames pins the feed's frames byte for byte: an
// idle feed sends a keepalive comment, a record is one "data:" line of
// its JSON encoding, and a feed that lost records sends a "drop" event
// with the count.
func TestServerStreamWireFrames(t *testing.T) {
	old := streamHeartbeat
	streamHeartbeat = 20 * time.Millisecond
	defer func() { streamHeartbeat = old }()
	ss, c := newShardedTestServer(t, 1)
	// A small receive window, so the handler's writes block once the test
	// stops reading.
	hc := &http.Client{Transport: &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err == nil {
			err = conn.(*net.TCPConn).SetReadBuffer(4096)
		}
		return conn, err
	}}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(c.wire.BaseURL + "/v1/stream?buffer=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	frame := func() string {
		var b strings.Builder
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("read frame: %v", err)
			}
			b.WriteString(line)
			if line == "\n" {
				return b.String()
			}
		}
	}
	if got := frame(); got != ": keepalive\n\n" {
		t.Fatalf("idle frame = %q", got)
	}
	rec := Record{RequestID: "f-1", Src: "a", Dst: "b", Kind: KindRequest, Timestamp: time.Unix(1700000000, 5).UTC()}
	if err := ss.Log(rec); err != nil {
		t.Fatal(err)
	}
	rec.Seq = 1 // the store numbers what it appends
	enc, err := AppendRecord(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	got := frame()
	for got == ": keepalive\n\n" {
		got = frame()
	}
	if want := "data: " + string(enc) + "\n\n"; got != want {
		t.Fatalf("record frame = %q, want %q", got, want)
	}
	uri := strings.Repeat("x", 64<<10)
	for i := 0; ss.SubscriberDropped() == 0; i++ {
		if i == 1000 {
			t.Fatal("feed never overflowed")
		}
		if err := ss.Log(Record{RequestID: fmt.Sprintf("f-%d", i), Src: "a", Dst: "b", URI: uri}); err != nil {
			t.Fatal(err)
		}
	}
	drop := regexp.MustCompile("^event: drop\ndata: [1-9][0-9]*\n\n$")
	for got = frame(); !drop.MatchString(got); got = frame() {
		if !strings.HasPrefix(got, "data: {") && got != ": keepalive\n\n" {
			t.Fatalf("frame = %.80q, want a record, a keepalive or a drop event", got)
		}
	}
}

// TestSubscriptionConservation holds a feed to the records it was owed:
// on a single-shard and a 4-shard store, for a pinned and an unpinned
// pattern, with batches across namespaces logged concurrently, every
// matching record appended while it was open is delivered on C or counted
// in Dropped, a feed nobody reads holds at most its buffer, and each
// shard's records arrive in that shard's append order.
func TestSubscriptionConservation(t *testing.T) {
	const buffer = 16
	for _, shards := range []int{1, 4} {
		for _, pat := range []string{"camp-r1-*", "*"} {
			for _, reading := range []bool{true, false} {
				t.Run(fmt.Sprintf("shards=%d/%s/reading=%v", shards, pat, reading), func(t *testing.T) {
					s := newSharded(t, StoreOptions{Shards: shards})
					sub, err := s.SubscribeBuffer(pat, buffer)
					if err != nil {
						t.Fatal(err)
					}
					var delivered []Record
					done := make(chan struct{})
					if reading {
						go func() {
							defer close(done)
							for r := range sub.C() {
								delivered = append(delivered, r)
							}
						}()
					}
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							for b := 0; b < 50; b++ {
								batch := make([]Record, 8)
								for i := range batch {
									ns := []string{"camp-r1", "camp-r2", "test", "x"}[(w+b+i)%4]
									batch[i] = Record{RequestID: fmt.Sprintf("%s-%d-%d", ns, w, b), Src: "a", Dst: "b", Kind: KindRequest}
								}
								if err := s.Log(batch...); err != nil {
									t.Error(err)
									return
								}
							}
						}(w)
					}
					wg.Wait()
					sub.Close()
					if reading {
						<-done
					} else {
						for r := range sub.C() {
							delivered = append(delivered, r)
						}
						if len(delivered) > buffer {
							t.Errorf("an unread feed held %d records, buffer %d", len(delivered), buffer)
						}
					}

					want, err := s.Count(Query{IDPattern: pat})
					if err != nil {
						t.Fatal(err)
					}
					if got := int64(len(delivered)) + sub.Dropped(); got != int64(want) {
						t.Errorf("delivered %d + dropped %d = %d, appended %d matching", len(delivered), sub.Dropped(), got, want)
					}
					last := make([]uint64, shards)
					p := pattern.MustCompile(pat)
					for _, r := range delivered {
						if !p.Match(r.RequestID) {
							t.Fatalf("delivered %q, which %q does not match", r.RequestID, pat)
						}
						si := shardOf(r.RequestID, shards)
						if r.Seq <= last[si] {
							t.Fatalf("shard %d delivered seq %d after %d", si, r.Seq, last[si])
						}
						last[si] = r.Seq
					}
				})
			}
		}
	}
}
