package resilience

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedDoer returns canned outcomes in order, then repeats the last.
type scriptedDoer struct {
	calls    atomic.Int64
	statuses []int // 0 means transport error
	bodies   []string
}

func (s *scriptedDoer) Do(req *http.Request) (*http.Response, error) {
	n := int(s.calls.Add(1)) - 1
	if req.Body != nil {
		b, _ := io.ReadAll(req.Body)
		_ = req.Body.Close()
		s.bodies = append(s.bodies, string(b))
	}
	idx := n
	if idx >= len(s.statuses) {
		idx = len(s.statuses) - 1
	}
	st := s.statuses[idx]
	if st == 0 {
		return nil, errors.New("scripted transport error")
	}
	return &http.Response{
		StatusCode: st,
		Body:       io.NopCloser(strings.NewReader("resp")),
		Header:     http.Header{},
	}, nil
}

func noSleep(time.Duration) {}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	s := &scriptedDoer{statuses: []int{503, 503, 200}}
	r := NewRetry(s, RetryPolicy{MaxRetries: 3, Sleep: noSleep})
	resp, err := get(t, r, "http://svc/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	mustRead(t, resp)
	if s.calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", s.calls.Load())
	}
}

func TestRetryBoundIsRespected(t *testing.T) {
	s := &scriptedDoer{statuses: []int{503}}
	r := NewRetry(s, RetryPolicy{MaxRetries: 5, Sleep: noSleep})
	resp, err := get(t, r, "http://svc/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	mustRead(t, resp)
	if s.calls.Load() != 6 { // 1 initial + 5 retries, never more
		t.Fatalf("calls = %d, want 6", s.calls.Load())
	}
}

func TestRetryTransportErrorsWrapped(t *testing.T) {
	s := &scriptedDoer{statuses: []int{0}}
	r := NewRetry(s, RetryPolicy{MaxRetries: 2, Sleep: noSleep})
	_, err := get(t, r, "http://svc/")
	if err == nil || !strings.Contains(err.Error(), "3 attempts failed") {
		t.Fatalf("err = %v", err)
	}
	if s.calls.Load() != 3 {
		t.Fatalf("calls = %d", s.calls.Load())
	}
}

func TestRetryNoRetryOnSuccessOr4xx(t *testing.T) {
	for _, status := range []int{200, 404} {
		s := &scriptedDoer{statuses: []int{status}}
		r := NewRetry(s, RetryPolicy{MaxRetries: 3, Sleep: noSleep})
		resp, err := get(t, r, "http://svc/")
		if err != nil {
			t.Fatal(err)
		}
		mustRead(t, resp)
		if s.calls.Load() != 1 {
			t.Fatalf("status %d: calls = %d, want 1", status, s.calls.Load())
		}
	}
}

func TestRetryNegativeMaxRetriesSingleAttempt(t *testing.T) {
	s := &scriptedDoer{statuses: []int{503}}
	r := NewRetry(s, RetryPolicy{MaxRetries: -1, Sleep: noSleep})
	resp, err := get(t, r, "http://svc/")
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, resp)
	if s.calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", s.calls.Load())
	}
}

func TestRetryReplaysRequestBody(t *testing.T) {
	s := &scriptedDoer{statuses: []int{503, 200}}
	r := NewRetry(s, RetryPolicy{MaxRetries: 2, Sleep: noSleep})
	req, err := http.NewRequest(http.MethodPost, "http://svc/", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, resp)
	if len(s.bodies) != 2 || s.bodies[0] != "payload" || s.bodies[1] != "payload" {
		t.Fatalf("bodies = %q", s.bodies)
	}
}

func TestRetryBackoffGrowsExponentiallyAndCaps(t *testing.T) {
	r := NewRetry(nil, RetryPolicy{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Sleep:       noSleep,
	})
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := r.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestRetrySleepsBetweenAttempts(t *testing.T) {
	var slept []time.Duration
	s := &scriptedDoer{statuses: []int{503, 503, 200}}
	r := NewRetry(s, RetryPolicy{
		MaxRetries:  3,
		BaseBackoff: 7 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	resp, err := get(t, r, "http://svc/")
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, resp)
	if len(slept) != 2 || slept[0] != 7*time.Millisecond || slept[1] != 14*time.Millisecond {
		t.Fatalf("slept = %v", slept)
	}
}
