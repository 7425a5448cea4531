package resilience

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// RetryPolicy configures bounded retries with exponential backoff (paper
// §2.1: "API calls are retried a bounded number of times and are usually
// accompanied with an exponential backoff strategy"). Transport errors
// and 5xx responses are retried; the backoff doubles per retry, without
// jitter.
type RetryPolicy struct {
	// MaxRetries is the number of retries after the initial attempt
	// (default 3, so up to 4 calls total).
	MaxRetries int

	// BaseBackoff is the delay before the first retry (default 10 ms).
	BaseBackoff time.Duration

	// MaxBackoff caps the backoff growth (default 1 s).
	MaxBackoff time.Duration

	// Sleep is the clock used between attempts; nil uses time.Sleep.
	// Injectable for fast tests.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Retry wraps a Doer with bounded, backed-off retries.
type Retry struct {
	next   Doer
	policy RetryPolicy
}

var _ Doer = (*Retry)(nil)

// NewRetry wraps next with the given policy. MaxRetries < 0 disables
// retries entirely (single attempt).
func NewRetry(next Doer, policy RetryPolicy) *Retry {
	return &Retry{next: next, policy: policy.withDefaults()}
}

// Do implements Doer. The request body (if any) is buffered so it can be
// replayed on each attempt.
func (r *Retry) Do(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		closeErr := req.Body.Close()
		if err == nil {
			err = closeErr
		}
		if err != nil {
			return nil, fmt.Errorf("resilience: buffer request body: %w", err)
		}
	}

	attempts := 1
	if r.policy.MaxRetries > 0 {
		attempts += r.policy.MaxRetries
	}

	var (
		resp    *http.Response
		lastErr error
	)
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			r.policy.Sleep(r.Backoff(attempt - 1))
		}
		attemptReq := req.Clone(req.Context())
		if body != nil {
			attemptReq.Body = io.NopCloser(bytes.NewReader(body))
			attemptReq.ContentLength = int64(len(body))
		}
		resp, lastErr = r.next.Do(attemptReq)
		if !failed(resp, lastErr) {
			return resp, lastErr
		}
		if attempt == attempts-1 {
			// Budget exhausted: hand the final outcome to the caller
			// (response body left readable).
			break
		}
		// Retrying: release the connection of the failed attempt.
		if resp != nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
			_ = resp.Body.Close()
		}
		if err := req.Context().Err(); err != nil {
			return nil, fmt.Errorf("resilience: retries aborted: %w", err)
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("resilience: %d attempts failed: %w", attempts, lastErr)
	}
	return resp, nil
}

// Backoff returns the delay before retry number n (0-based): BaseBackoff
// doubled n times, capped at MaxBackoff.
func (r *Retry) Backoff(n int) time.Duration {
	d := r.policy.BaseBackoff
	for i := 0; i < n && d < r.policy.MaxBackoff; i++ {
		d *= 2
	}
	return max(0, min(d, r.policy.MaxBackoff))
}
