// Package resilience implements the resiliency design patterns that
// Gremlin's pattern checks detect (paper §2.1): timeouts, bounded retries
// with exponential backoff, and circuit breakers.
//
// The demo microservices in internal/topology compose these wrappers around
// their dependency clients; building an application *with* a pattern makes
// the corresponding Gremlin assertion pass and building it *without* makes
// the assertion fail, which is exactly how the paper's experiments
// distinguish resilient from fragile services (§7.1).
//
// The wrappers share the Doer interface, so they nest in any order; the
// last one wrapped is called first:
//
//	var client resilience.Doer = http.DefaultClient
//	client = resilience.NewTimeout(client, time.Second)
//	client = resilience.NewRetry(client, resilience.RetryPolicy{})
//	client = resilience.NewBreaker(client, resilience.BreakerConfig{})
package resilience

import "net/http"

// Doer is the minimal HTTP client interface shared by all wrappers.
// *http.Client implements it.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// DoerFunc adapts a function to the Doer interface.
type DoerFunc func(req *http.Request) (*http.Response, error)

// Do implements Doer.
func (f DoerFunc) Do(req *http.Request) (*http.Response, error) { return f(req) }

// failed reports whether a call's outcome is a failure to retry or to
// count against a breaker: a transport error or a 5xx response.
func failed(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode >= 500
}
