package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gremlin/internal/trace"
)

func newCountingServer(t *testing.T, status int, delay time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	var mu sync.Mutex
	seen := make(map[string]bool)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		id := trace.FromRequest(r)
		mu.Lock()
		if seen[id] {
			t.Errorf("duplicate request id %q", id)
		}
		seen[id] = true
		mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		w.WriteHeader(status)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func TestRunBasic(t *testing.T) {
	srv, hits := newCountingServer(t, 200, 0)
	res, err := Run(srv.URL, Options{N: 50, Concurrency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 50 {
		t.Fatalf("server saw %d requests", hits.Load())
	}
	if len(res.Samples) != 50 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if res.SuccessRate() != 1 {
		t.Fatalf("success rate = %v", res.SuccessRate())
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %v", res.Throughput())
	}
	if got := res.StatusCounts()[200]; got != 50 {
		t.Fatalf("status counts = %v", res.StatusCounts())
	}
	if cdf := res.CDF(); cdf.Len() != 50 {
		t.Fatalf("CDF len = %d", cdf.Len())
	}
}

func TestRunRecordsLatency(t *testing.T) {
	srv, _ := newCountingServer(t, 200, 50*time.Millisecond)
	res, err := Run(srv.URL, Options{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Latency < 50*time.Millisecond {
			t.Fatalf("latency %v < injected 50ms", s.Latency)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("http://x", Options{N: 0}); err == nil {
		t.Fatal("want error for N=0")
	}
	if _, err := Run("", Options{N: 1}); err == nil {
		t.Fatal("want error for empty target")
	}
}

func TestRunTransportErrorsRecorded(t *testing.T) {
	res, err := Run("http://127.0.0.1:1", Options{N: 5, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() != 0 {
		t.Fatalf("success rate = %v", res.SuccessRate())
	}
	for _, s := range res.Samples {
		if s.Err == nil || s.Status != 0 {
			t.Fatalf("sample = %+v, want transport error", s)
		}
	}
	if got := res.StatusCounts()[0]; got != 5 {
		t.Fatalf("status counts = %v", res.StatusCounts())
	}
}

func TestRunFailureStatuses(t *testing.T) {
	srv, _ := newCountingServer(t, 503, 0)
	res, err := Run(srv.URL, Options{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate() != 0 {
		t.Fatalf("success rate = %v", res.SuccessRate())
	}
}

func TestRunSequentialOrdering(t *testing.T) {
	var mu sync.Mutex
	var order []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		order = append(order, trace.FromRequest(r))
		mu.Unlock()
	}))
	t.Cleanup(srv.Close)
	res, err := RunSequential(srv.URL, 10, "/seq")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 10 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// Sequential run: server-side arrival order matches sample order.
	for i, s := range res.Samples {
		if order[i] != s.RequestID {
			t.Fatalf("order[%d] = %q, sample id %q", i, order[i], s.RequestID)
		}
	}
}

func TestRunCustomPrefix(t *testing.T) {
	var id string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id = trace.FromRequest(r)
	}))
	t.Cleanup(srv.Close)
	if _, err := Run(srv.URL, Options{N: 1, IDPrefix: "fig5-"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "fig5-") {
		t.Fatalf("id = %q", id)
	}
}

func TestResultString(t *testing.T) {
	srv, _ := newCountingServer(t, 200, 0)
	res, err := Run(srv.URL, Options{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "2 requests") || !strings.Contains(s, "200:2") {
		t.Fatalf("String = %q", s)
	}
}

func TestConcurrencyClampedToN(t *testing.T) {
	srv, hits := newCountingServer(t, 200, 0)
	if _, err := Run(srv.URL, Options{N: 2, Concurrency: 100}); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d", hits.Load())
	}
}
