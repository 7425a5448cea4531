package proxy

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// rawUpstream is a backend that answers each request with the raw reply
// reply(req, nth), nth counting the requests on its connection from 0,
// and then keeps reading the connection, whatever the reply said, unless
// closeAfter is set. An empty reply closes the connection without one.
// It counts connections and requests, and records each request's method
// and body.
type rawUpstream struct {
	addr        string
	conns, reqs atomic.Int64
	mu          sync.Mutex
	bodies      []string
}

func newRawUpstream(t *testing.T, closeAfter bool, reply func(r *http.Request, nth int) string) *rawUpstream {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u := &rawUpstream{addr: ln.Addr().String()}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			u.conns.Add(1)
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for nth := 0; ; nth++ {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					body, _ := io.ReadAll(req.Body)
					u.reqs.Add(1)
					u.mu.Lock()
					u.bodies = append(u.bodies, req.Method+" "+string(body))
					u.mu.Unlock()
					out := reply(req, nth)
					if out == "" {
						return
					}
					if _, err := io.WriteString(conn, out); err != nil || closeAfter {
						return
					}
				}
			}()
		}
	}()
	return u
}

// via sends method path with body (nil for none) through the agent's
// route and returns the status and reply body.
func via(t *testing.T, a *Agent, method, path string, body io.Reader) (int, string) {
	t.Helper()
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, u+path, body)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readBody(t, resp)
}

// TestUpstreamReusesAfterBodilessReplies: a reply that has no body (to a
// HEAD, a 204, a 304) leaves its connection reusable at once, so a run of
// them and a GET after go over one upstream connection.
func TestUpstreamReusesAfterBodilessReplies(t *testing.T) {
	up := newRawUpstream(t, false, func(r *http.Request, _ int) string {
		switch {
		case r.Method == http.MethodHead:
			return "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"
		case r.URL.Path == "/204":
			return "HTTP/1.1 204 No Content\r\n\r\n"
		case r.URL.Path == "/304":
			return "HTTP/1.1 304 Not Modified\r\nEtag: \"v1\"\r\n\r\n"
		}
		return "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	})
	a := newAgent(t, eventlog.NewStore(), up.addr)
	for _, step := range []struct {
		method, path string
		status       int
	}{
		{http.MethodHead, "/head", 200}, {http.MethodGet, "/204", 204},
		{http.MethodGet, "/304", 304}, {http.MethodGet, "/ok", 200}, {http.MethodHead, "/head", 200},
	} {
		if status, _ := via(t, a, step.method, step.path, nil); status != step.status {
			t.Fatalf("%s %s: status %d, want %d", step.method, step.path, status, step.status)
		}
	}
	if status, body := via(t, a, http.MethodGet, "/ok", nil); status != 200 || body != "ok" {
		t.Fatalf("GET /ok: %d %q", status, body)
	}
	if n, c := up.reqs.Load(), up.conns.Load(); n != 6 || c != 1 {
		t.Errorf("%d requests over %d upstream connections, want 6 over 1", n, c)
	}
}

// TestUpstreamNoReuseAfterCloseOrHTTP10: a reply that says Connection:
// close, and any HTTP/1.0 reply, ends its connection's use even when the
// upstream keeps it open.
func TestUpstreamNoReuseAfterCloseOrHTTP10(t *testing.T) {
	for name, reply := range map[string]string{
		"connection-close": "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
		"http-1.0":         "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
	} {
		t.Run(name, func(t *testing.T) {
			up := newRawUpstream(t, false, func(*http.Request, int) string { return reply })
			a := newAgent(t, eventlog.NewStore(), up.addr)
			for i := 0; i < 3; i++ {
				if status, body := via(t, a, http.MethodGet, "/x", nil); status != 200 || body != "ok" {
					t.Fatalf("request %d: %d %q", i, status, body)
				}
			}
			if c := up.conns.Load(); c != 3 {
				t.Errorf("3 requests over %d upstream connections, want 3", c)
			}
		})
	}
}

// TestUpstreamStaleIdleConnection: the upstream closes each connection
// right after its reply, so the pooled one is stale when the next request
// comes. The probe of an idle connection finds that out before anything
// is written on it, so a GET and a POST with a streamed body, which cannot
// be sent twice, both go on a new connection. Each reaches the upstream
// exactly once, and neither is answered 502.
func TestUpstreamStaleIdleConnection(t *testing.T) {
	up := newRawUpstream(t, true, func(*http.Request, int) string {
		return "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	})
	a := newAgent(t, eventlog.NewStore(), up.addr)
	// stale waits for the upstream's close of the pooled connection to
	// reach the agent's socket.
	stale := func() { time.Sleep(50 * time.Millisecond) }
	if status, _ := via(t, a, http.MethodGet, "/first", nil); status != 200 {
		t.Fatalf("first GET: %d", status)
	}
	stale()
	if status, body := via(t, a, http.MethodGet, "/again", nil); status != 200 || body != "ok" {
		t.Fatalf("GET on a stale connection: %d %q", status, body)
	}
	stale()
	// A reader that is not a bytes or strings reader: the client sends it
	// chunked and the agent streams it.
	payload := strings.Repeat("streamed body ", 100)
	if status, body := via(t, a, http.MethodPost, "/post", io.MultiReader(strings.NewReader(payload))); status != 200 || body != "ok" {
		t.Fatalf("streamed POST on a stale connection: %d %q", status, body)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	want := []string{"GET ", "GET ", "POST " + payload}
	if fmt.Sprint(up.bodies) != fmt.Sprint(want) {
		t.Errorf("upstream saw %d requests %.60q, want the GETs and the POST once each", len(up.bodies), up.bodies)
	}
}

// TestUpstreamNoReplayAfterWrite: the upstream reads the second request
// on each connection and closes it without a reply, as one does that
// times an idle connection out just as a request arrives. The request was
// written, so the upstream may have acted on it, and only an idempotent
// one is sent again. A GET and a POST with an Idempotency-Key are retried
// on a new connection and answered. A POST whose body the agent buffered
// for a Modify rule, and so could send again, reaches the upstream once
// and is answered 502.
func TestUpstreamNoReplayAfterWrite(t *testing.T) {
	up := newRawUpstream(t, false, func(_ *http.Request, nth int) string {
		if nth > 0 {
			return ""
		}
		return "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	})
	a := newAgent(t, eventlog.NewStore(), up.addr)
	if err := a.InstallRules(rules.Rule{
		ID: "m1", Src: "client", Dst: "server",
		Action: rules.ActionModify, Pattern: "test-*",
		SearchBytes: "key", ReplaceBytes: "badkey",
	}); err != nil {
		t.Fatal(err)
	}
	if status, _ := via(t, a, http.MethodGet, "/a", nil); status != 200 {
		t.Fatalf("first GET: %d", status)
	}
	if status, _ := via(t, a, http.MethodPost, "/post", strings.NewReader("key=1")); status != http.StatusBadGateway {
		t.Fatalf("buffered POST dropped after it was written: %d, want 502", status)
	}
	if status, _ := via(t, a, http.MethodGet, "/b", nil); status != 200 {
		t.Fatalf("GET on a new connection: %d", status)
	}
	if status, body := via(t, a, http.MethodGet, "/c", nil); status != 200 || body != "ok" {
		t.Fatalf("GET dropped after it was written: %d %q, want it retried", status, body)
	}
	u, _ := a.RouteURL("server")
	req, err := http.NewRequest(http.MethodPost, u+"/idem", strings.NewReader("key=2"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "k2")
	trace.SetRequestID(req, "test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != 200 || body != "ok" {
		t.Fatalf("POST with an Idempotency-Key dropped after it was written: %d %q, want it retried", resp.StatusCode, body)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	want := []string{"GET ", "POST badkey=1", "GET ", "GET ", "GET ", "POST badkey=2", "POST badkey=2"}
	if fmt.Sprint(up.bodies) != fmt.Sprint(want) {
		t.Errorf("upstream saw %q, want %q", up.bodies, want)
	}
	if c := up.conns.Load(); c != 4 {
		t.Errorf("%d upstream connections, want 4", c)
	}
}

// TestUpstreamCanRetry holds canRetry to http.Transport's rule: a request none of
// whose bytes were written may go again if its body can; one that was
// written only if it is also idempotent.
func TestUpstreamCanRetry(t *testing.T) {
	body := func() io.Reader { return io.MultiReader(strings.NewReader("x")) } // no GetBody
	for _, tc := range []struct {
		method string
		body   func() io.Reader
		header string
		wrote  bool
		want   bool
	}{
		{http.MethodGet, nil, "", true, true},
		{http.MethodHead, nil, "", true, true},
		{http.MethodOptions, nil, "", true, true},
		{http.MethodTrace, nil, "", true, true},
		{http.MethodPost, nil, "", true, false},
		{http.MethodPost, nil, "", false, true},
		{http.MethodPost, func() io.Reader { return strings.NewReader("x") }, "", true, false},
		{http.MethodPost, func() io.Reader { return strings.NewReader("x") }, "", false, true},
		{http.MethodPost, func() io.Reader { return strings.NewReader("x") }, "Idempotency-Key", true, true},
		{http.MethodPatch, func() io.Reader { return strings.NewReader("x") }, "X-Idempotency-Key", true, true},
		{http.MethodPost, body, "", false, false},
		{http.MethodPut, body, "Idempotency-Key", true, false},
		{http.MethodGet, body, "", true, false},
	} {
		var b io.Reader
		if tc.body != nil {
			b = tc.body()
		}
		req, err := http.NewRequest(tc.method, "http://upstream/x", b)
		if err != nil {
			t.Fatal(err)
		}
		if tc.header != "" {
			req.Header.Set(tc.header, "k")
		}
		if got := canRetry(req, tc.wrote); got != tc.want {
			t.Errorf("%s (body %v, GetBody %v, header %q, wrote %v): canRetry %v, want %v",
				tc.method, req.Body != nil, req.GetBody != nil, tc.header, tc.wrote, got, tc.want)
		}
	}
}

// TestUpstreamIdle408: an upstream that times out an idle kept-alive
// connection may write a 408 on it before it closes it. That reply
// answers no request: the next GET must not take it for its own, but go
// on a new connection and get the upstream's answer.
func TestUpstreamIdle408(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		conns   []net.Conn
		strayed = make(chan struct{}, 1)
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				if _, err := io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"); err != nil {
					return
				}
				// Written once the agent has pooled the connection.
				time.Sleep(20 * time.Millisecond)
				if _, err := io.WriteString(conn, "HTTP/1.1 408 Request Timeout\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"); err != nil {
					return
				}
				select {
				case strayed <- struct{}{}:
				default:
				}
				_, _ = io.Copy(io.Discard, br)
			}()
		}
	}()
	a := newAgent(t, eventlog.NewStore(), ln.Addr().String())
	if status, body := via(t, a, http.MethodGet, "/a", nil); status != 200 || body != "ok" {
		t.Fatalf("first GET: %d %q", status, body)
	}
	<-strayed
	time.Sleep(50 * time.Millisecond) // for the 408 to reach the agent's socket
	if status, body := via(t, a, http.MethodGet, "/b", nil); status != 200 || body != "ok" {
		t.Fatalf("GET after a 408 on the idle connection: %d %q, want 200 \"ok\"", status, body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 2 {
		t.Errorf("%d upstream connections, want 2", len(conns))
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestUpstreamEarlyReplyToUpload: an upstream that answers a large upload
// with a 413 before reading its body, and then neither reads nor closes,
// is heard at once. The reply reaches the client while the body is still
// being written, the rest of the write is given up, and the agent's
// handler returns.
func TestUpstreamEarlyReplyToUpload(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "0")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		w.(http.Flusher).Flush()
		<-release
	}))
	t.Cleanup(backend.Close)
	// Registered last, so it runs first: the handler returns before the
	// backend closes.
	t.Cleanup(func() { close(release) })
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	u, _ := a.RouteURL("server")
	// More than the socket buffers on both sides of the upstream
	// connection hold, so a write of the whole body waits for a read.
	const size = 64 << 20
	req, err := http.NewRequest(http.MethodPost, u+"/upload", io.LimitReader(zeros{}, size))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = size
	trace.SetRequestID(req, "test-1")
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := client.Do(req)
		if err != nil {
			done <- result{err: err}
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		done <- result{status: resp.StatusCode}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.status != http.StatusRequestEntityTooLarge {
			t.Fatalf("upload answered %d, %v; want 413", r.status, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply 5s after the upstream answered the upload")
	}
	pendingZero(t, a)
}

// pendingZero waits for every replica of a's route to have no exchange in
// flight: each ServeHTTP has returned.
func pendingZero(t *testing.T, a *Agent) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for _, target := range a.routes["server"].pool.targets {
		for target.pending.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s still has %d exchanges in flight", target.addr, target.pending.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestUpstreamClientLeavesMidStream: a client that leaves in the middle
// of an endless event stream ends the upstream exchange. The agent closes
// the upstream connection rather than draining a body that never ends,
// and its handler returns.
func TestUpstreamClientLeavesMidStream(t *testing.T) {
	gone := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for {
			if _, err := io.WriteString(w, "data: tick\n\n"); err != nil {
				break
			}
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
				close(gone)
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		close(gone)
	}))
	t.Cleanup(backend.Close)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	u, _ := a.RouteURL("server")
	client := &http.Client{Transport: &http.Transport{}}
	req, _ := http.NewRequest(http.MethodGet, u+"/events", nil)
	trace.SetRequestID(req, "test-1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, len("data: tick\n\n"))); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	client.CloseIdleConnections()
	select {
	case <-gone:
	case <-time.After(2 * time.Second):
		t.Fatal("the upstream stream still runs 2s after the client left")
	}
	pendingZero(t, a)
}

// TestUpstreamEarlyCloseDoesNotDrain: a reply body closed before its end
// closes the connection at once, even with no context to end the
// exchange, and does not return it to the pool.
func TestUpstreamEarlyCloseDoesNotDrain(t *testing.T) {
	gone, stop := make(chan struct{}), make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(gone)
		for {
			if _, err := io.WriteString(w, "data: tick\n\n"); err != nil {
				return
			}
			w.(http.Flusher).Flush()
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}))
	t.Cleanup(backend.Close)
	// Registered last, so it runs first: the stream ends before the
	// backend closes, even when the test fails.
	t.Cleanup(func() { close(stop) })
	var up upstream
	defer up.close()
	addr := hostport(backend.URL)
	req, err := http.NewRequest(http.MethodGet, backend.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := up.roundTrip(req, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, len("data: tick\n\n"))); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		_ = resp.Body.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("closing an endless reply body blocks: it is drained")
	}
	select {
	case <-gone:
	case <-time.After(2 * time.Second):
		t.Fatal("the upstream stream still runs 2s after its body was closed")
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if n := len(up.idle[addr]); n != 0 {
		t.Errorf("%d connections pooled after a reply closed before its end", n)
	}
}

// TestUpstreamCancelBeforeReplyHeaders: a client that leaves while the
// upstream has not answered yet ends the upstream exchange too.
func TestUpstreamCancelBeforeReplyHeaders(t *testing.T) {
	entered, gone := make(chan struct{}), make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-r.Context().Done():
			close(gone)
		case <-time.After(10 * time.Second):
		}
	}))
	t.Cleanup(backend.Close)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	u, _ := a.RouteURL("server")
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, u+"/hang", nil)
	trace.SetRequestID(req, "test-1")
	client := &http.Client{Transport: &http.Transport{}}
	done := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			_ = resp.Body.Close()
		}
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled request got a reply")
	}
	select {
	case <-gone:
	case <-time.After(2 * time.Second):
		t.Fatal("the upstream still waits 2s after the client left")
	}
	pendingZero(t, a)
}

// TestUpstreamIdleLimit: after 70 exchanges at once, the route keeps
// maxIdlePerTarget connections to the target idle and closes the rest.
func TestUpstreamIdleLimit(t *testing.T) {
	const parallel = maxIdlePerTarget + 6
	var (
		arrived atomic.Int64
		all     = make(chan struct{})
		closed  atomic.Int64
	)
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == parallel {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
		}
		_, _ = io.WriteString(w, "ok")
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			closed.Add(1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	a := newAgent(t, eventlog.NewStore(), hostport(backend.URL))
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	u, _ := a.RouteURL("server")
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(u + "/x")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}()
	}
	wg.Wait()
	pendingZero(t, a)
	up := &a.routes["server"].up
	up.mu.Lock()
	idle := len(up.idle[hostport(backend.URL)])
	up.mu.Unlock()
	if idle != maxIdlePerTarget {
		t.Errorf("%d idle connections after %d exchanges at once, want %d", idle, parallel, maxIdlePerTarget)
	}
	deadline := time.Now().Add(2 * time.Second)
	for closed.Load() != parallel-maxIdlePerTarget && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := closed.Load(); n != parallel-maxIdlePerTarget {
		t.Errorf("the upstream saw %d connections closed, want %d", n, parallel-maxIdlePerTarget)
	}
}

// TestUpstreamClosedWithAgent: Agent.Close leaves no upstream connection
// open.
func TestUpstreamClosedWithAgent(t *testing.T) {
	var open atomic.Int64
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	a, err := New(Config{
		ServiceName: "client",
		Routes:      []Route{{Dst: "server", ListenAddr: "127.0.0.1:0", Targets: []string{hostport(backend.URL)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	u, _ := a.RouteURL("server")
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(u + "/x")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}()
	}
	wg.Wait()
	if open.Load() == 0 {
		t.Fatal("no upstream connection was kept alive")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for open.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := open.Load(); n != 0 {
		t.Errorf("%d upstream connections still open after Agent.Close", n)
	}
}
