package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// severedReply fetches the single reply record an agent logged for a
// severed connection.
func severedReply(t *testing.T, store *eventlog.Store) eventlog.Record {
	t.Helper()
	reps, err := store.Select(eventlog.Query{Kind: eventlog.KindReply})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("got %d reply records, want 1", len(reps))
	}
	return reps[0]
}

func TestSeverConnectionLogsReplyRequestSide(t *testing.T) {
	backend, hits := newEcho(t)
	store := eventlog.NewStore()
	a := newAgent(t, store, hostport(backend.URL))
	if err := a.InstallRules(rules.Rule{
		ID: "crash-req", Src: "client", Dst: "server",
		Action: rules.ActionAbort, Pattern: "test-*",
		ErrorCode: rules.AbortSeverConnection,
	}); err != nil {
		t.Fatal(err)
	}
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, u+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("want transport error for severed connection")
	}
	if hits.Load() != 0 {
		t.Fatal("request-side sever must not reach the backend")
	}
	rec := severedReply(t, store)
	if rec.Status != 0 || !rec.GremlinGenerated || rec.FaultAction != string(rules.ActionAbort) {
		t.Fatalf("severed reply record = %+v, want status 0, gremlin-generated, abort", rec)
	}
}

// TestSeverConnectionLogsReplyResponseSide pins the fix for a hole in the
// event log: a response-side sever used to cut the connection without
// logging any reply, leaving the checker blind to the fault it injected.
func TestSeverConnectionLogsReplyResponseSide(t *testing.T) {
	backend, hits := newEcho(t)
	store := eventlog.NewStore()
	a := newAgent(t, store, hostport(backend.URL))
	if err := a.InstallRules(rules.Rule{
		ID: "crash-resp", Src: "client", Dst: "server", On: rules.OnResponse,
		Action: rules.ActionAbort, Pattern: "test-*",
		ErrorCode: rules.AbortSeverConnection,
	}); err != nil {
		t.Fatal(err)
	}
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, u+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("want transport error for severed connection")
	}
	if hits.Load() != 1 {
		t.Fatal("response-side sever happens after the backend call")
	}
	rec := severedReply(t, store)
	if rec.Status != 0 || !rec.GremlinGenerated || rec.FaultAction != string(rules.ActionAbort) {
		t.Fatalf("severed reply record = %+v, want status 0, gremlin-generated, abort", rec)
	}
	if a.Stats().Severed != 1 {
		t.Fatalf("Severed = %d, want 1", a.Stats().Severed)
	}
}

func TestStreamingFastPathCountsAndForwards(t *testing.T) {
	// A reply body big enough that buffering it would be visible.
	big := strings.Repeat("x", 1<<20)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, big)
	}))
	t.Cleanup(backend.Close)
	store := eventlog.NewStore()
	a := newAgent(t, store, hostport(backend.URL))

	resp := routeGet(t, a, "/x", "test-1")
	if got := readBody(t, resp); got != big {
		t.Fatalf("streamed body: got %d bytes, want %d intact", len(got), len(big))
	}
	if st := a.Stats(); st.Streamed != 1 {
		t.Fatalf("Streamed = %d, want 1", st.Streamed)
	}

	// A response Modify rule forces the buffered slow path.
	if err := a.InstallRules(rules.Rule{
		ID: "m1", Src: "client", Dst: "server", On: rules.OnResponse,
		Action: rules.ActionModify, Pattern: "test-*",
		SearchBytes: "xxx", ReplaceBytes: "yyy",
	}); err != nil {
		t.Fatal(err)
	}
	resp = routeGet(t, a, "/x", "test-2")
	if got := readBody(t, resp); !strings.HasPrefix(got, "yyy") {
		t.Fatalf("modify path: body starts %q, want rewritten", got[:16])
	}
	if st := a.Stats(); st.Streamed != 1 {
		t.Fatalf("Streamed = %d after Modify exchange, want still 1", st.Streamed)
	}
}

func TestStreamingPreservesPostBody(t *testing.T) {
	backend, _ := newEcho(t)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("payload!", 4096)
	req, err := http.NewRequest(http.MethodPost, u+"/submit", bytes.NewReader([]byte(payload)))
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	want := "POST /submit body=" + payload
	if got := readBody(t, resp); got != want {
		t.Fatalf("echoed %d bytes, want %d with body intact", len(got), len(want))
	}
}

// TestStreamedReplyNotHeld: a streamed reply the client may read as it
// arrives reaches the client event by event. The upstream writes one
// event, flushes, and writes the second only once the client has read
// the first, so an agent that holds the reply until the upstream ends
// never delivers it. Both halves of the flush rule are covered: a reply
// of unknown length, and an event stream that declares its length.
func TestStreamedReplyNotHeld(t *testing.T) {
	const first, second = "data: one\n\n", "data: two\n\n"
	for _, tc := range []struct {
		name  string
		sized bool
	}{
		{"unknown-length", false},
		{"event-stream-sized", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/event-stream")
				if tc.sized {
					w.Header().Set("Content-Length", strconv.Itoa(len(first)+len(second)))
				}
				_, _ = io.WriteString(w, first)
				w.(http.Flusher).Flush()
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
				_, _ = io.WriteString(w, second)
			}))
			t.Cleanup(backend.Close)
			a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
			// Registered last, so it runs first: the upstream ends before
			// the agent closes, even when the test fails.
			releaseOnce := sync.OnceFunc(func() { close(release) })
			t.Cleanup(releaseOnce)
			u, err := a.RouteURL("server")
			if err != nil {
				t.Fatal(err)
			}

			// An agent that holds the reply may hold its headers too, so
			// the request itself runs inside the 2 s bound.
			events := make(chan string, 2)
			go func() {
				defer close(events)
				req, err := http.NewRequest(http.MethodGet, u+"/events", nil)
				if err != nil {
					return
				}
				trace.SetRequestID(req, "test-1")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				defer resp.Body.Close()
				for _, want := range []string{first, second} {
					ev := make([]byte, len(want))
					if _, err := io.ReadFull(resp.Body, ev); err != nil {
						return
					}
					events <- string(ev)
				}
			}()
			select {
			case ev := <-events:
				if ev != first {
					t.Fatalf("first event = %q, want %q", ev, first)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("first event not delivered within 2s: the agent holds the reply until the upstream ends")
			}
			releaseOnce()
			if ev := <-events; ev != second {
				t.Fatalf("second event = %q, want %q", ev, second)
			}
		})
	}
}

// TestStreamedBodyAllocBudget holds a streamed 1 MiB reply that declares
// its Content-Length to a byte budget, measured as what the agent adds
// to the same exchange sent straight to the backend. The relay copies
// through a buffer from a bounded store that keeps its buffers under the
// race detector too, so the agent's share is its per-exchange
// bookkeeping: 7.1 KiB (go1.24; 7.6 KiB under -race). A relay that lets
// the ResponseWriter's ReadFrom do the copy allocates a 32 KiB buffer
// per reply on top (41 KiB; 70 KiB under -race, where sync.Pool drops
// puts); the budget of 16 KiB fails that.
func TestStreamedBodyAllocBudget(t *testing.T) {
	const cycles = 40
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		_, _ = w.Write(payload)
	}))
	t.Cleanup(backend.Close)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	via, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	buf := make([]byte, 64<<10)
	bytesPerExchange := func(base string) float64 {
		req, err := http.NewRequest(http.MethodGet, base+"/blob", nil)
		if err != nil {
			t.Fatal(err)
		}
		trace.SetRequestID(req, "test-1")
		exchange := func() {
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			// Read through buf: io.Discard's ReadFrom pools its buffer,
			// and -race drops pooled buffers at random.
			total := 0
			for {
				n, err := resp.Body.Read(buf)
				total += n
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			_ = resp.Body.Close()
			if total != len(payload) {
				t.Fatalf("read %d bytes, want %d", total, len(payload))
			}
		}
		for i := 0; i < 3; i++ {
			exchange()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			exchange()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / cycles
	}
	direct := bytesPerExchange(backend.URL)
	proxied := bytesPerExchange(via)
	share, budget := proxied-direct, float64(16<<10)
	t.Logf("direct %.0f B/exchange, proxied %.0f, agent share %.0f (budget %.0f)", direct, proxied, share, budget)
	if share > budget {
		t.Errorf("the agent adds %.0f B to a 1 MiB exchange, budget %.0f", share, budget)
	}
}

// TestStreamedRelayBuffersBounded: a reply's declared length picks its
// relay buffer, and however many large replies are relayed at once, no
// more than largeBufsMax large buffers are ever made. The ones past the
// bound get a 32 KiB buffer, and every large one returns to the store
// without blocking.
func TestStreamedRelayBuffersBounded(t *testing.T) {
	for _, n := range []int64{-1, 0, 512, largeCopySize - 1} {
		b := relayBuffer(n)
		if len(*b) != copySize {
			t.Errorf("a reply of declared length %d relays through %d bytes, want %d", n, len(*b), copySize)
		}
		releaseBuffer(b)
	}

	const holders = 2 * largeBufsMax
	var wg sync.WaitGroup
	held := make(chan *[]byte, holders)
	for i := 0; i < holders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held <- relayBuffer(1 << 20)
		}()
	}
	wg.Wait()
	close(held)
	large := 0
	for b := range held {
		switch len(*b) {
		case largeCopySize:
			large++
		case copySize:
		default:
			t.Errorf("relay buffer of %d bytes", len(*b))
		}
		releaseBuffer(b)
	}
	if large == 0 || large > largeBufsMax {
		t.Errorf("%d replies held a large buffer at once, want 1 to %d", large, largeBufsMax)
	}
	// A handler of an earlier test may still hold one, so the store holds
	// at least those returned here, not necessarily every one made.
	if made, stored := int(largeMade.Load()), len(largeBufs); made > largeBufsMax || stored < large {
		t.Errorf("%d large buffers made (at most %d), %d back in the store after %d returned", made, largeBufsMax, stored, large)
	}
}

// slowStoreSink emulates a distant log store: every shipment costs a long
// round trip.
type slowStoreSink struct {
	delay time.Duration
	inner *eventlog.Store
}

func (s *slowStoreSink) Log(recs ...eventlog.Record) error {
	time.Sleep(s.delay)
	return s.inner.Log(recs...)
}

// TestProxyDataPathNotBlockedBySlowStore wires an agent to a buffered sink
// over an artificially slow store and checks that live requests never wait
// out a store round trip.
func TestProxyDataPathNotBlockedBySlowStore(t *testing.T) {
	backend, _ := newEcho(t)
	slow := &slowStoreSink{delay: 300 * time.Millisecond, inner: eventlog.NewStore()}
	buffered := eventlog.NewBufferedSinkOpts(slow, eventlog.BufferOptions{
		Size: 1, Max: 1 << 16, Interval: 10 * time.Millisecond,
	})
	t.Cleanup(func() {
		if err := buffered.Close(); err != nil {
			t.Error(err)
		}
	})

	a, err := New(Config{
		ServiceName: "client",
		Routes: []Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{hostport(backend.URL)},
		}},
		Sink: buffered,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Error(err)
		}
	})

	const n = 10 // each proxied call logs 2 records
	start := time.Now()
	for i := 0; i < n; i++ {
		resp := routeGet(t, a, "/x", fmt.Sprintf("test-%d", i))
		readBody(t, resp)
	}
	elapsed := time.Since(start)
	// Synchronous shipping would cost 2×n round trips (6 s); even one round
	// trip on the data path would push past the 300 ms delay.
	if elapsed >= slow.delay {
		t.Fatalf("%d proxied requests took %v; data path blocked on the store", n, elapsed)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && slow.inner.Len() < 2*n {
		time.Sleep(5 * time.Millisecond)
	}
	if got := slow.inner.Len(); got != 2*n {
		t.Fatalf("store has %d records, want %d", got, 2*n)
	}
}

// TestCutReplyReachesClient has the upstream write and flush part of a
// reply and then reset its connection. Read straight from the upstream,
// the client's read of the body fails; through the agent it must fail
// too, for a chunked reply as for a sized one. An agent that ends the
// reply normally closes a chunked body with its last chunk, and the
// client reads the short body as whole.
func TestCutReplyReachesClient(t *testing.T) {
	const part = "first part "
	for _, tc := range []struct {
		name  string
		sized bool
	}{
		{"chunked", false},
		{"sized", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if tc.sized {
					w.Header().Set("Content-Length", "100")
				}
				_, _ = io.WriteString(w, part)
				w.(http.Flusher).Flush()
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					return
				}
				if tcp, ok := conn.(*net.TCPConn); ok {
					_ = tcp.SetLinger(0) // close with a reset
				}
				_ = conn.Close()
			}))
			t.Cleanup(backend.Close)
			a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
			u, err := a.RouteURL("server")
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []struct{ name, url string }{
				{"direct", backend.URL},
				{"through the agent", u},
			} {
				req, err := http.NewRequest(http.MethodGet, target.url+"/cut", nil)
				if err != nil {
					t.Fatal(err)
				}
				trace.SetRequestID(req, "test-1")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					// The agent buffers a sized reply's start, so the
					// cut can come before the headers: also a cut.
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil {
					t.Errorf("%s: read %q with no error, want the cut to show", target.name, body)
				}
				if !strings.HasPrefix(part, string(body)) {
					t.Errorf("%s: read %q, want a prefix of %q", target.name, body, part)
				}
			}
		})
	}
}
