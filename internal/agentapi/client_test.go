package agentapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gremlin/internal/rules"
)

// The client's behaviour against a live agent is covered by
// internal/proxy's control tests; these tests pin the client's own
// contract: URL construction, error surfacing, and response decoding
// against a canned server.

func cannedServer(t *testing.T, status int, body string, capture *[]string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if capture != nil {
			*capture = append(*capture, r.Method+" "+r.RequestURI)
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestBaseURL(t *testing.T) {
	c := New("http://agent:9001", nil)
	if c.BaseURL() != "http://agent:9001" {
		t.Fatalf("BaseURL = %q", c.BaseURL())
	}
}

func TestPathsAndMethods(t *testing.T) {
	ctx := context.Background()
	var calls []string
	srv := cannedServer(t, 200, `{}`, &calls)
	c := New(srv.URL, nil)

	if _, err := c.GetRuleSet(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ClearRules(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if !c.Healthy(ctx) {
		t.Fatal("healthy server reported unhealthy")
	}

	want := []string{
		"GET /v1/ruleset",
		"DELETE /v1/rules",
		"POST /v1/flush",
		"GET /healthz",
	}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %q, want %q", i, calls[i], want[i])
		}
	}
}

func TestServerErrorSurfaced(t *testing.T) {
	srv := cannedServer(t, 400, `{"error":"mis-targeted rule"}`, nil)
	c := New(srv.URL, nil)
	_, err := c.GetRuleSet(context.Background())
	if err == nil || !strings.Contains(err.Error(), "mis-targeted rule") {
		t.Fatalf("err = %v, want body surfaced", err)
	}
}

func TestMalformedResponseBody(t *testing.T) {
	ctx := context.Background()
	srv := cannedServer(t, 200, `not json`, nil)
	c := New(srv.URL, nil)
	if _, err := c.GetRuleSet(ctx); err == nil {
		t.Fatal("want decode error")
	}
	if _, err := c.Info(ctx); err == nil {
		t.Fatal("want decode error")
	}
}

func TestContextCancellationAborts(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	t.Cleanup(func() { close(block); srv.Close() })

	c := New(srv.URL, &http.Client{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Info(ctx); err == nil {
		t.Fatal("want context deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, context not honoured", elapsed)
	}
}

func TestPutRuleSetSentinelErrors(t *testing.T) {
	ctx := context.Background()
	set := rules.RuleSet{Generation: 3}

	conflict := cannedServer(t, http.StatusConflict,
		`{"error":"stale generation","current":{"generation":9,"hash":"sha256:ab","rules":2}}`, nil)
	st, err := New(conflict.URL, nil).PutRuleSet(ctx, set, rules.NoMatch)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict, got %v", err)
	}
	if st.Generation != 9 || st.Rules != 2 {
		t.Fatalf("conflict status = %+v, want agent's current version", st)
	}

	precond := cannedServer(t, http.StatusPreconditionFailed,
		`{"error":"generation moved","current":{"generation":7}}`, nil)
	st, err = New(precond.URL, nil).PutRuleSet(ctx, set, 5)
	if !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("want ErrPreconditionFailed, got %v", err)
	}
	if st.Generation != 7 {
		t.Fatalf("precondition status = %+v", st)
	}

	boom := cannedServer(t, http.StatusInternalServerError, `oops`, nil)
	if _, err := New(boom.URL, nil).PutRuleSet(ctx, set, rules.NoMatch); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("want 500 surfaced, got %v", err)
	}
}

func TestPutRuleSetIfMatchHeader(t *testing.T) {
	var headers []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, ok := r.Header[http.CanonicalHeaderKey("If-Match")]
		if !ok {
			headers = append(headers, "<absent>")
		} else {
			headers = append(headers, strings.Join(v, ","))
		}
		_, _ = w.Write([]byte(`{"generation":1}`))
	}))
	t.Cleanup(srv.Close)

	ctx := context.Background()
	c := New(srv.URL, nil)
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 1}, rules.NoMatch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutRuleSet(ctx, rules.RuleSet{Generation: 1}, 42); err != nil {
		t.Fatal(err)
	}
	if len(headers) != 2 || headers[0] != "<absent>" || headers[1] != "42" {
		t.Fatalf("If-Match headers = %v", headers)
	}
}

func TestDefaultClientTimeout(t *testing.T) {
	c := New("http://127.0.0.1:1", nil)
	if c.wire.HTTP.Timeout != 10*time.Second {
		t.Fatalf("default timeout = %v", c.wire.HTTP.Timeout)
	}
}
