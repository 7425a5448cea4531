package proxy

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"gremlin/internal/eventlog"
	"gremlin/internal/trace"
)

// TestPoolCountsReplicaUntilBodyRelayed pins the in-flight accounting to
// the whole exchange: a replica still streaming a reply body must look
// busy to least-pending selection, so every later request goes to the
// other replica even when the round-robin cursor points at the busy one.
func TestPoolCountsReplicaUntilBodyRelayed(t *testing.T) {
	streaming, finish := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	served := map[string][]string{} // path -> backends that served it
	backend := func(name string) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			served[r.URL.Path] = append(served[r.URL.Path], name)
			mu.Unlock()
			if r.URL.Path == "/slow" {
				// Headers and the first chunk go out; the body stays open.
				fmt.Fprint(w, "head")
				w.(http.Flusher).Flush()
				close(streaming)
				<-finish
			}
			fmt.Fprint(w, "tail")
		}))
		t.Cleanup(srv.Close)
		return hostport(srv.URL)
	}
	a := newAgent(t, eventlog.NewStore(), backend("a"), backend("b"))

	slow := make(chan string, 1)
	go func() {
		defer close(slow)
		u, _ := a.RouteURL("server")
		resp, err := http.Get(u + "/slow")
		if err != nil {
			t.Error(err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		slow <- string(body)
	}()
	<-streaming
	for i := 0; i < 4; i++ {
		if got := readBody(t, routeGet(t, a, "/quick", "test-quick")); got != "tail" {
			t.Fatalf("quick reply %d = %q", i, got)
		}
	}
	close(finish)
	if got := <-slow; got != "headtail" {
		t.Fatalf("slow reply = %q", got)
	}
	mu.Lock()
	busy := served["/slow"][0]
	for _, name := range served["/quick"] {
		if name == busy {
			t.Fatalf("replica %q got a request while still streaming a reply: quick requests went to %v", busy, served["/quick"])
		}
	}
	mu.Unlock()
	for _, target := range a.routes["server"].pool.targets {
		if n := target.pending.Load(); n != 0 {
			t.Errorf("replica %s still has %d pending after every exchange completed", target.addr, n)
		}
	}
}

// TestHopAllocBudget holds one no-fault exchange through the agent to an
// allocation budget, measured as what it adds to the same exchange sent
// straight to the backend. The yardstick is that direct exchange itself:
// it is one net/http server pass and one client round trip, which is also
// what the agent cannot avoid, so the comparison holds across toolchains
// and under -race. The hop measures 21 allocations below it (go1.24, with
// and without -race: flow, span ID, execution index, reply header map, two
// Store records and one exchange on a pooled upstream connection cost less
// than the direct caller's Client.Do through http.Transport); the budget
// is direct-14, so the test fails when the hop regains more than seven.
func TestHopAllocBudget(t *testing.T) {
	backend, _ := newEcho(t)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	via, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	exchange := func(base string) func() {
		req, err := http.NewRequest(http.MethodGet, base+"/api/items?id=7", nil)
		if err != nil {
			t.Fatal(err)
		}
		trace.SetRequestID(req, "test-1")
		return func() {
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			_ = resp.Body.Close()
		}
	}
	direct := testing.AllocsPerRun(300, exchange(backend.URL))
	proxied := testing.AllocsPerRun(300, exchange(via))
	share, budget := proxied-direct, direct-14
	t.Logf("direct %.1f allocs/exchange, proxied %.1f, agent share %.1f (budget %.1f)", direct, proxied, share, budget)
	if share > budget {
		t.Errorf("the agent adds %.1f allocs to an exchange, budget %.1f: see `make alloc-profile`", share, budget)
	}
}

// TestSharedHeaderForwarding drives concurrent exchanges, half of them
// mirrored, through the path that hands the inbound header map to the
// outbound request. The live copy must keep multi-valued headers, lose
// Connection and carry exactly one of each span/EI header with this hop's
// values; the mirror copy must be the inbound headers untouched.
func TestSharedHeaderForwarding(t *testing.T) {
	var (
		mu           sync.Mutex
		live, shadow []http.Header
	)
	capture := func(into *[]http.Header) string {
		srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
			mu.Lock()
			*into = append(*into, r.Header.Clone())
			mu.Unlock()
		}))
		t.Cleanup(srv.Close)
		return hostport(srv.URL)
	}
	a, err := New(Config{
		ServiceName: "client",
		Routes: []Route{{
			Dst:           "server",
			ListenAddr:    "127.0.0.1:0",
			Targets:       []string{capture(&live)},
			MirrorTargets: []string{capture(&shadow)},
			MirrorPattern: "test-mirror-*",
		}},
		Sink: eventlog.NewStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	url, _ := a.RouteURL("server")

	const workers, each = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req, err := http.NewRequest(http.MethodPost, url+"/x", strings.NewReader("payload"))
				if err != nil {
					t.Error(err)
					return
				}
				id := fmt.Sprintf("test-plain-%d-%d", w, i)
				if i%2 == 0 {
					id = fmt.Sprintf("test-mirror-%d-%d", w, i)
				}
				trace.SetRequestID(req, id)
				req.Header["X-Multi"] = []string{"one", "two"}
				req.Header.Set("Connection", "X-Hop")
				// A parent span of its own makes this call ordinal 0.
				trace.SetSpan(req, "sp-in-"+id, "sp-stale")
				trace.SetEI(req, "up#0")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	// Close waits for the mirror goroutines, so both captures are complete.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	if len(live) != workers*each || len(shadow) != workers*each/2 {
		t.Fatalf("captured %d live and %d mirrored requests, want %d and %d",
			len(live), len(shadow), workers*each, workers*each/2)
	}
	check := func(kind string, h http.Header, key string, want ...string) {
		t.Helper()
		if !slices.Equal(h[key], want) {
			t.Errorf("%s copy: %s = %q, want %q", kind, key, h[key], want)
		}
	}
	spans := map[string]bool{}
	for _, h := range live {
		check("live", h, "X-Multi", "one", "two")
		check("live", h, "Connection")
		check("live", h, trace.HeaderParentSpan, "sp-in-"+trace.FromRequest(&http.Request{Header: h}))
		check("live", h, trace.HeaderEI, "up#0/server#0")
		span := h[trace.HeaderSpan]
		if len(span) != 1 || !strings.HasPrefix(span[0], "sp-client-agent-") || spans[span[0]] {
			t.Errorf("live copy: %s = %q, want one fresh span of this agent", trace.HeaderSpan, span)
			continue
		}
		spans[span[0]] = true
	}
	for _, h := range shadow {
		check("mirror", h, "X-Multi", "one", "two")
		check("mirror", h, "Connection")
		check("mirror", h, trace.HeaderSpan, "sp-in-"+trace.FromRequest(&http.Request{Header: h}))
		check("mirror", h, trace.HeaderParentSpan, "sp-stale")
		check("mirror", h, trace.HeaderEI, "up#0")
	}
}

// TestHTTP10KeepAliveSurvivesForward: an HTTP/1.0 caller asks for
// keep-alive in the Connection header, which forwarding deletes from the
// header map it shares with the server; the connection must stay open.
func TestHTTP10KeepAliveSurvivesForward(t *testing.T) {
	backend, _ := newEcho(t)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	addr, err := a.RouteAddr("server")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(conn, "GET /ka HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reply %d on the kept-alive connection: %v", i, err)
		}
		if got := readBody(t, resp); got != "GET /ka body=" {
			t.Fatalf("reply %d = %q", i, got)
		}
	}
}
