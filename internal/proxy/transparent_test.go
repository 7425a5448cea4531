package proxy

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

// seenRequest is what the backend observed of one request.
type seenRequest struct {
	Method, RequestURI, Host, Proto string
	Header                          http.Header
	ContentLength                   int64
	TransferEncoding                []string
	Body                            string
	Trailer                         http.Header
}

// seenReply is what the client observed of one reply, interim replies
// included.
type seenReply struct {
	Interim          []int
	Status           int
	Header           http.Header
	ContentLength    int64
	TransferEncoding []string
	Body             string
	Trailer          http.Header
}

// hopCase is one raw HTTP/1.1 exchange: the request head as the client
// writes it (request line and header lines, no blank line), and its body
// as wire bytes.
type hopCase struct {
	name, method, head, body string
	// expect makes the client wait for 100 Continue before the body.
	expect bool
}

// hopByHop are the headers a hop may change (RFC 9110 §7.6.1, plus the
// framing headers net/http moves out of Header). Content-Length is framing
// on a request: a zero one and an absent one frame the same empty body,
// and ContentLength is compared instead.
var hopByHop = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
	"Transfer-Encoding", "Upgrade", "Proxy-Authenticate", "Proxy-Authorization"}

func endToEnd(h http.Header, request bool) http.Header {
	out := http.Header{}
	for k, vs := range h {
		switch {
		case strings.HasPrefix(k, "X-Gremlin-"), request && k == "Content-Length":
		case k == "Date":
			out[k] = []string{"(a date)"}
		default:
			out[k] = vs
		}
	}
	for _, k := range hopByHop {
		delete(out, k)
	}
	return out
}

// hopCases draws one seeded set of exchanges. The client sends no
// Accept-Encoding and no User-Agent unless a case says so.
func hopCases(rng *rand.Rand, host string) []hopCase {
	token := func() string {
		const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
		b := make([]byte, 4+rng.Intn(12))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		return string(b)
	}
	payload := func(n int) string { return strings.Repeat(token(), n/4+1)[:n] }
	chunked := func(body string, trailer string) string {
		var b strings.Builder
		for len(body) > 0 {
			n := 1 + rng.Intn(len(body))
			fmt.Fprintf(&b, "%x\r\n%s\r\n", n, body[:n])
			body = body[n:]
		}
		return b.String() + "0\r\n" + trailer + "\r\n"
	}
	head := func(method, target string, lines ...string) string {
		return method + " " + target + " HTTP/1.1\r\nHost: " + host + "\r\n" + strings.Join(lines, "")
	}
	post := payload(1 + rng.Intn(6000))
	streamed := payload(1 + rng.Intn(6000))
	multi := "X-Multi: " + token() + "\r\nX-Multi: " + token() + "\r\n"
	return []hopCase{
		{name: "sized", method: "GET", head: head("GET", "/sized?n="+strconv.Itoa(rng.Intn(9000)), multi)},
		{name: "chunked", method: "GET", head: head("GET", "/chunked?n="+strconv.Itoa(4096+rng.Intn(9000)))},
		{name: "head", method: "HEAD", head: head("HEAD", "/sized?n="+strconv.Itoa(rng.Intn(9000)))},
		{name: "options", method: "OPTIONS", head: head("OPTIONS", "/options")},
		{name: "204", method: "GET", head: head("GET", "/status?code=204")},
		{name: "304", method: "GET", head: head("GET", "/status?code=304", "If-None-Match: \"v1\"\r\n")},
		{name: "post-sized", method: "POST", head: head("POST", "/echo", "Content-Type: text/plain\r\nContent-Length: "+strconv.Itoa(len(post))+"\r\n"), body: post},
		{name: "post-chunked", method: "POST", head: head("POST", "/echo", "Transfer-Encoding: chunked\r\n"), body: chunked(streamed, "")},
		{name: "post-empty", method: "POST", head: head("POST", "/echo", "Content-Length: 0\r\n")},
		{name: "escaped-path", method: "GET", head: head("GET", "/a%2Fb/c%20d;p=1?q=x%2By&r=%E2%9C%93&"+token()+"=1", multi)},
		{name: "trailers", method: "POST", head: head("POST", "/trailers", "Trailer: X-Req-Sum\r\nTransfer-Encoding: chunked\r\n"),
			body: chunked(streamed, "X-Req-Sum: "+token()+"\r\n")},
		{name: "expect-continue", method: "POST", head: head("POST", "/echo", "Expect: 100-continue\r\nContent-Length: "+strconv.Itoa(len(post))+"\r\n"), body: post, expect: true},
		{name: "connection-close", method: "GET", head: head("GET", "/sized?n=100", "Connection: close\r\n")},
		{name: "user-agent", method: "GET", head: head("GET", "/sized?n=10", "User-Agent: probe/"+token()+"\r\nAccept-Encoding: identity\r\n")},
		{name: "gzip-not-asked", method: "GET", head: head("GET", "/gzip?n="+strconv.Itoa(1+rng.Intn(3000)))},
		{name: "gzip-asked", method: "GET", head: head("GET", "/gzip?n="+strconv.Itoa(1+rng.Intn(3000)), "Accept-Encoding: gzip\r\n")},
		{name: "untyped", method: "GET", head: head("GET", "/untyped?n="+strconv.Itoa(1+rng.Intn(3000)))},
		{name: "stream", method: "GET", head: head("GET", "/stream?events="+strconv.Itoa(2+rng.Intn(4)))},
	}
}

// transparentBackend answers every hopCase path and reports each request
// it saw on the returned channel.
func transparentBackend(t *testing.T) (*httptest.Server, <-chan seenRequest) {
	seen := make(chan seenRequest, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("backend: read %s body: %v", r.URL.Path, err)
		}
		seen <- seenRequest{r.Method, r.RequestURI, r.Host, r.Proto, r.Header.Clone(),
			r.ContentLength, r.TransferEncoding, string(body), r.Trailer.Clone()}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		data := strings.Repeat("0123456789abcdef", n/16+1)[:n]
		h := w.Header()
		switch r.URL.Path {
		case "/sized":
			h["X-Rep"] = []string{"a", "b"}
			h["Set-Cookie"] = []string{"c1=1", "c2=2"}
			h.Set("Content-Length", strconv.Itoa(n))
			_, _ = io.WriteString(w, data)
		case "/chunked":
			h.Set("Content-Type", "application/octet-stream")
			_, _ = io.WriteString(w, data)
		case "/options":
			h.Set("Allow", "GET, HEAD, OPTIONS")
		case "/status":
			code, _ := strconv.Atoi(r.URL.Query().Get("code"))
			h.Set("Etag", `"v1"`)
			w.WriteHeader(code)
		case "/echo":
			h.Set("Content-Type", "text/plain")
			_, _ = w.Write(body)
		case "/trailers":
			h.Set("Trailer", "X-Sum")
			_, _ = w.Write(body)
			h.Set("X-Sum", strconv.Itoa(len(body)))
		case "/gzip":
			h.Set("Vary", "Accept-Encoding")
			h.Set("Content-Type", "text/plain")
			if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
				h.Set("Content-Length", strconv.Itoa(n))
				_, _ = io.WriteString(w, data)
				return
			}
			var zb bytes.Buffer
			zw := gzip.NewWriter(&zb)
			_, _ = io.WriteString(zw, data)
			_ = zw.Close()
			h.Set("Content-Encoding", "gzip")
			h.Set("Content-Length", strconv.Itoa(zb.Len()))
			_, _ = w.Write(zb.Bytes())
		case "/untyped":
			h["Content-Type"] = nil
			_, _ = io.WriteString(w, data)
		case "/stream":
			events, _ := strconv.Atoi(r.URL.Query().Get("events"))
			h.Set("Content-Type", "text/event-stream")
			for i := 0; i < events; i++ {
				fmt.Fprintf(w, "data: %d\n\n", i)
				w.(http.Flusher).Flush()
				time.Sleep(time.Duration(i) * time.Millisecond)
			}
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, seen
}

// rawExchange sends c over a new connection to addr and reads the reply
// the way a client library would, trailers included.
func rawExchange(t *testing.T, addr string, c hopCase) seenReply {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	req := &http.Request{Method: c.method}
	var got seenReply
	if _, err := io.WriteString(conn, c.head+"\r\n"); err != nil {
		t.Fatal(err)
	}
	if c.expect {
		resp, err := http.ReadResponse(br, req)
		if err != nil {
			t.Fatalf("%s: read 100 Continue: %v", c.name, err)
		}
		got.Interim = append(got.Interim, resp.StatusCode)
	}
	if _, err := io.WriteString(conn, c.body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatalf("%s: read reply: %v", c.name, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read reply body: %v", c.name, err)
	}
	got.Status, got.Header, got.Body = resp.StatusCode, resp.Header, string(body)
	got.ContentLength, got.TransferEncoding, got.Trailer = resp.ContentLength, resp.TransferEncoding, resp.Trailer
	return got
}

// TestHopTransparent runs seeded HTTP/1.1 exchanges twice, straight to a
// backend and through an agent with no rule armed. Only hop-by-hop
// headers and the agent's own X-Gremlin-* headers may differ: on the
// request the backend sees (method, target, host, header, framing, body,
// trailers) and on the reply the client sees (interim replies, status,
// header, framing, body, trailers).
func TestHopTransparent(t *testing.T) {
	backend, seen := transparentBackend(t)
	direct := hostport(backend.URL)
	a := newAgent(t, eventlog.NewStore(), direct)
	via, err := a.RouteAddr("server")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, c := range hopCases(rand.New(rand.NewSource(seed)), direct) {
			wantRep := rawExchange(t, direct, c)
			wantReq := <-seen
			gotRep := rawExchange(t, via, c)
			gotReq := <-seen
			wantReq.Header, gotReq.Header = endToEnd(wantReq.Header, true), endToEnd(gotReq.Header, true)
			wantRep.Header, gotRep.Header = endToEnd(wantRep.Header, false), endToEnd(gotRep.Header, false)
			if !reflect.DeepEqual(gotReq, wantReq) {
				t.Errorf("seed %d %s: the backend saw\n%+v\nthrough the agent, and\n%+v\nstraight from the client", seed, c.name, gotReq, wantReq)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("seed %d %s: the client saw\n%+v\nthrough the agent, and\n%+v\nstraight from the backend", seed, c.name, gotRep, wantRep)
			}
		}
	}
}
