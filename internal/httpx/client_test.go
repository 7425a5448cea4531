package httpx

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientStatusError: a reply of 400 or above is a *StatusError that
// carries the server's ErrorBody message once, or the start of a body
// that is not an ErrorBody, and the whole of a short body for callers
// that need more than the message.
func TestClientStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/json":
			WriteError(w, http.StatusConflict, "stale generation %d", 3)
		case "/text":
			http.Error(w, "boom", http.StatusBadGateway)
		case "/big":
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, strings.Repeat("x", 10<<10))
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	for _, tc := range []struct {
		path, msg string
		code      int
	}{
		{"/json", "stale generation 3", http.StatusConflict},
		{"/text", "boom", http.StatusBadGateway},
		{"/big", strings.Repeat("x", 4<<10), http.StatusInternalServerError},
	} {
		err := c.JSON(context.Background(), http.MethodGet, tc.path, nil, nil)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want a *StatusError", tc.path, err)
		}
		if se.Code != tc.code || se.Msg != tc.msg {
			t.Errorf("%s: code %d msg %.40q, want %d %.40q", tc.path, se.Code, se.Msg, tc.code, tc.msg)
		}
		if strings.Contains(err.Error(), `{"error"`) {
			t.Errorf("%s: error %q embeds the raw error body", tc.path, err)
		}
	}
	err := c.JSON(context.Background(), http.MethodGet, "/json", nil, nil)
	var se *StatusError
	if errors.As(err, &se) && !strings.Contains(string(se.Body), `"error":"stale generation 3"`) {
		t.Errorf("body = %q, want the ErrorBody", se.Body)
	}
}

// TestClientDoBodies: a value goes as JSON with its content type, a
// reader as it is under the caller's headers, and nil as no body.
func TestClientDoBodies(t *testing.T) {
	type seen struct{ ct, body, extra string }
	got := make(chan seen, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- seen{r.Header.Get("Content-Type"), string(b), r.Header.Get("X-Extra")}
		WriteJSON(w, http.StatusOK, map[string]int{"n": len(b)})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	var out struct{ N int }
	if err := c.JSON(ctx, http.MethodPost, "/", map[string]int{"a": 1}, &out); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.ct != "application/json" || s.body != `{"a":1}` || out.N != 7 {
		t.Fatalf("JSON body: saw %+v, decoded %+v", s, out)
	}
	resp, err := c.Do(ctx, http.MethodPost, "/", strings.NewReader("a\nb\n"),
		"Content-Type", "application/x-ndjson", "X-Extra", "1")
	if err != nil {
		t.Fatal(err)
	}
	DrainClose(resp)
	if s := <-got; s.ct != "application/x-ndjson" || s.body != "a\nb\n" || s.extra != "1" {
		t.Fatalf("raw body: saw %+v", s)
	}
	if err := c.JSON(ctx, http.MethodGet, "/", nil, nil); err != nil {
		t.Fatal(err)
	}
	if s := <-got; s.ct != "" || s.body != "" {
		t.Fatalf("no body: saw %+v", s)
	}
}

// TestClientLongOutlivesTimeout: a long request drops the client's
// overall timeout but keeps its transport and its context.
func TestClientLongOutlivesTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wait := release
		if r.URL.Path == "/hang" {
			wait = nil
		}
		select {
		case <-wait:
		case <-r.Context().Done():
		}
		WriteJSON(w, http.StatusOK, "late")
	}))
	defer srv.Close()
	defer close(release)
	rt := &countingTransport{rt: http.DefaultTransport}
	c := NewClient(srv.URL, &http.Client{Timeout: 50 * time.Millisecond, Transport: rt})
	if err := c.JSON(context.Background(), http.MethodGet, "/hang", nil, nil); err == nil {
		t.Fatal("a plain request outlived the client timeout")
	}
	time.AfterFunc(150*time.Millisecond, func() { release <- struct{}{} })
	var out string
	if err := c.Long().JSON(context.Background(), http.MethodGet, "/", nil, &out); err != nil || out != "late" {
		t.Fatalf("long request = %q, %v", out, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Long().JSON(ctx, http.MethodGet, "/hang", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("long request past its ctx = %v, want deadline exceeded", err)
	}
	if n := rt.n.Load(); n != 3 {
		t.Fatalf("transport carried %d requests, want 3", n)
	}
	if c.HTTP.Timeout != 50*time.Millisecond {
		t.Fatalf("Long changed the caller's client: timeout %v", c.HTTP.Timeout)
	}
}

type countingTransport struct {
	rt http.RoundTripper
	n  atomic.Int32
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.rt.RoundTrip(r)
}
