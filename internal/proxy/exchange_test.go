package proxy

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// framing is how an upstream saw a request body framed.
type framing struct {
	contentLength    int64
	lengthHeader     string
	transferEncoding string
}

// TestBufferedEmptyBodyNotChunked sends a bodyless POST directly, through
// a mirror route and through a request-side Modify, the two exchanges
// whose body the agent buffers. The live upstream must see the same
// framing every time: Content-Length 0 and no Transfer-Encoding.
func TestBufferedEmptyBodyNotChunked(t *testing.T) {
	seen := make(chan framing, 3)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		seen <- framing{r.ContentLength, r.Header.Get("Content-Length"), strings.Join(r.TransferEncoding, ",")}
	}))
	t.Cleanup(live.Close)
	shadow := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	t.Cleanup(shadow.Close)

	a, err := New(Config{
		ServiceName: "client",
		Routes: []Route{{
			Dst:           "server",
			ListenAddr:    "127.0.0.1:0",
			Targets:       []string{hostport(live.URL)},
			MirrorTargets: []string{hostport(shadow.URL)},
			MirrorPattern: "test-mirror-*",
		}},
		Sink: eventlog.NewStore(),
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
	if err := a.InstallRules(rules.Rule{
		ID: "m1", Src: "client", Dst: "server",
		Action: rules.ActionModify, Pattern: "test-modify-*",
		SearchBytes: "a", ReplaceBytes: "b",
	}); err != nil {
		t.Fatal(err)
	}
	u, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}

	post := func(url, reqID string) framing {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		trace.SetRequestID(req, reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", reqID, resp.StatusCode)
		}
		return <-seen
	}
	direct := post(live.URL+"/x", "test-direct-1")
	if direct != (framing{0, "0", ""}) {
		t.Fatalf("direct POST framed as %+v", direct)
	}
	for _, reqID := range []string{"test-mirror-1", "test-modify-1"} {
		if got := post(u+"/x", reqID); got != direct {
			t.Errorf("%s: upstream saw %+v, direct %+v", reqID, got, direct)
		}
	}
}

// TestHistogramMatchesReplyRecords runs one exchange down every exit of
// the data path and holds the agent's latency histogram to its reply
// records: one observation per record, of the same latency.
func TestHistogramMatchesReplyRecords(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch r.URL.Path {
		case "/trickle":
			// A sized reply whose body takes 50 ms to arrive.
			w.Header().Set("Content-Length", "10")
			w.WriteHeader(http.StatusOK)
			for i := 0; i < 10; i++ {
				w.(http.Flusher).Flush()
				time.Sleep(5 * time.Millisecond)
				_, _ = io.WriteString(w, "x")
			}
		case "/short":
			// A reply cut off before its declared length.
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, "key=value")
			w.(http.Flusher).Flush()
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				_ = conn.Close()
			}
		default:
			_, _ = io.WriteString(w, "key=value")
		}
	}))
	t.Cleanup(upstream.Close)

	store := eventlog.NewStore()
	a, err := New(Config{
		ServiceName: "client",
		Routes: []Route{
			{Dst: "server", ListenAddr: "127.0.0.1:0", Targets: []string{hostport(upstream.URL)}},
			{Dst: "down", ListenAddr: "127.0.0.1:0", Targets: []string{"127.0.0.1:1"}}, // nothing listens there
		},
		Sink: store,
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
	if err := a.InstallRules(
		rules.Rule{ID: "abort", Src: "client", Dst: "server", Action: rules.ActionAbort, Pattern: "test-abort", ErrorCode: 503},
		rules.Rule{ID: "sever", Src: "client", Dst: "server", Action: rules.ActionAbort, Pattern: "test-sever", ErrorCode: rules.AbortSeverConnection},
		rules.Rule{ID: "delay", Src: "client", Dst: "server", Action: rules.ActionDelay, Pattern: "test-delay", DelayMillis: 5},
		rules.Rule{ID: "modreq", Src: "client", Dst: "server", Action: rules.ActionModify, Pattern: "test-modreq*", SearchBytes: "key", ReplaceBytes: "badkey"},
		rules.Rule{ID: "modresp", Src: "client", Dst: "server", Action: rules.ActionModify, Pattern: "test-modresp*", SearchBytes: "key", ReplaceBytes: "badkey", On: rules.OnResponse},
	); err != nil {
		t.Fatal(err)
	}
	serverURL, err := a.RouteURL("server")
	if err != nil {
		t.Fatal(err)
	}
	downURL, err := a.RouteURL("down")
	if err != nil {
		t.Fatal(err)
	}

	send := func(url, reqID, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		trace.SetRequestID(req, reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // a severed exchange
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	send(serverURL+"/x", "test-pass", "key=1")
	send(serverURL+"/x", "test-abort", "")
	send(serverURL+"/x", "test-sever", "")
	send(serverURL+"/x", "test-delay", "")
	send(serverURL+"/x", "test-modreq-1", "key=1")
	send(serverURL+"/x", "test-modresp-1", "")
	send(serverURL+"/short", "test-modresp-short", "")
	send(serverURL+"/trickle", "test-trickle", "")
	send(downURL+"/x", "test-down", "")
	brokenRequestBody(t, serverURL, "test-modreq-broken")
	want := map[string]int{
		"test-pass": 200, "test-abort": 503, "test-sever": 0, "test-delay": 200,
		"test-modreq-1": 200, "test-modresp-1": 200, "test-modresp-short": 502,
		"test-trickle": 200, "test-down": 502, "test-modreq-broken": 502,
	}

	// Every exit logs its reply before the client can see the outcome.
	reps, err := store.Select(eventlog.Query{Kind: eventlog.KindReply})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range reps {
		if status, ok := want[r.RequestID]; !ok || r.Status != status {
			t.Errorf("%s: reply status %d, want %d", r.RequestID, r.Status, status)
		}
		sum += r.LatencyMillis / 1000
	}
	snap := a.latency.Snapshot()
	if len(reps) != len(want) || snap.Count != int64(len(reps)) {
		t.Errorf("%d exchanges, %d reply records, %d histogram observations", len(want), len(reps), snap.Count)
	}
	if math.Abs(snap.Sum-sum) > 1e-9*sum {
		t.Errorf("histogram sum %.9f s, reply records sum %.9f s", snap.Sum, sum)
	}
}

// brokenRequestBody sends a request that declares a longer body than it
// carries, then half-closes: the agent's body read fails.
func brokenRequestBody(t *testing.T, routeURL, reqID string) {
	t.Helper()
	conn, err := net.Dial("tcp", hostport(routeURL))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /x HTTP/1.1\r\nHost: server\r\n%s: %s\r\nContent-Length: 100\r\n\r\nkey", trace.HeaderRequestID, reqID)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, conn)
}
