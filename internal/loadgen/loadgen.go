// Package loadgen injects synthetic test traffic into an application under
// test and records per-request latency — the role played by the Apache
// Benchmark tool in the paper's proxy benchmarks (§7.2) and by the "100
// test requests" of the orchestration benchmark (Figure 7).
//
// Each request is stamped with a fresh request ID (prefix "test-" by
// default) so Gremlin rules with Pattern "test-*" apply to the injected
// load and to nothing else.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"gremlin/internal/stats"
	"gremlin/internal/trace"
)

// Options configures a load run.
type Options struct {
	// N is the total number of requests (required).
	N int

	// Context, when non-nil, cancels the run early: no new requests are
	// issued after it is done, in-flight ones are abandoned, and Run
	// returns the partial Result alongside the context's error. Campaigns
	// use this to stop load the moment a live assertion fires.
	Context context.Context

	// Concurrency is the number of parallel workers (default 1).
	Concurrency int

	// Path is the request path, including any query string (default "/").
	Path string

	// IDPrefix prefixes generated request IDs (default trace.TestIDPrefix).
	IDPrefix string

	// Interval paces each worker between requests (default 0: closed loop).
	Interval time.Duration

	// RNG seeds ID generation salt; nil is non-deterministic.
	RNG *rand.Rand
}

// Sample is the outcome of one injected request.
type Sample struct {
	// RequestID is the ID the request carried.
	RequestID string

	// Status is the HTTP status received (0 on transport error).
	Status int

	// Latency is the end-to-end response time observed by the generator.
	Latency time.Duration

	// Err is the transport error, if any.
	Err error
}

// Result aggregates a load run.
type Result struct {
	// Samples holds one entry per request, in completion order.
	Samples []Sample

	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

// Run injects opts.N requests at the target base URL and blocks until all
// complete.
func Run(target string, opts Options) (*Result, error) {
	if opts.N <= 0 {
		return nil, errors.New("loadgen: N must be positive")
	}
	if target == "" {
		return nil, errors.New("loadgen: target is required")
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 1
	}
	if conc > opts.N {
		conc = opts.N
	}
	path := opts.Path
	if path == "" {
		path = "/"
	}
	prefix := opts.IDPrefix
	if prefix == "" {
		prefix = trace.TestIDPrefix
	}
	// A transparent client with no timeout: measurement must not mask
	// slow responses.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc * 2}}
	gen := trace.NewGenerator(prefix, opts.RNG)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	var (
		mu      sync.Mutex
		samples = make([]Sample, 0, opts.N)
		work    = make(chan struct{})
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				s := shoot(ctx, client, target+path, gen.Next())
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
				if opts.Interval > 0 {
					select {
					case <-time.After(opts.Interval):
					case <-ctx.Done():
					}
				}
			}
		}()
	}
feed:
	for i := 0; i < opts.N; i++ {
		select {
		case work <- struct{}{}:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	return &Result{Samples: samples, Elapsed: time.Since(start)}, ctx.Err()
}

// RunSequential is Run with one worker and requests issued strictly in
// order — required when the experiment depends on request ordering, such
// as Figure 6's "100 aborted then 100 delayed" sequence.
func RunSequential(target string, n int, path string) (*Result, error) {
	return Run(target, Options{N: n, Concurrency: 1, Path: path})
}

func shoot(ctx context.Context, client *http.Client, url, id string) Sample {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Sample{RequestID: id, Err: err}
	}
	trace.SetRequestID(req, id)
	start := time.Now()
	resp, err := client.Do(req)
	latency := time.Since(start)
	if err != nil {
		return Sample{RequestID: id, Latency: latency, Err: err}
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 8<<20))
	_ = resp.Body.Close()
	return Sample{RequestID: id, Status: resp.StatusCode, Latency: latency}
}

// Latencies returns all sample latencies in completion order.
func (r *Result) Latencies() []time.Duration {
	out := make([]time.Duration, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Latency
	}
	return out
}

// CDF builds the latency CDF (in seconds) over all samples.
func (r *Result) CDF() *stats.CDF {
	return stats.NewDurationCDF(r.Latencies())
}

// StatusCounts returns the number of samples per HTTP status (status 0 =
// transport error).
func (r *Result) StatusCounts() map[int]int {
	counts := make(map[int]int)
	for _, s := range r.Samples {
		counts[s.Status]++
	}
	return counts
}

// SuccessRate returns the fraction of samples with 2xx/3xx statuses.
func (r *Result) SuccessRate() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range r.Samples {
		if s.Err == nil && s.Status >= 200 && s.Status < 400 {
			ok++
		}
	}
	return float64(ok) / float64(len(r.Samples))
}

// Throughput returns completed requests per second over the run.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(len(r.Samples)) / r.Elapsed.Seconds()
}

// String renders a one-line summary.
func (r *Result) String() string {
	statuses := r.StatusCounts()
	keys := make([]int, 0, len(statuses))
	for k := range statuses {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	summary := ""
	for _, k := range keys {
		summary += fmt.Sprintf(" %d:%d", k, statuses[k])
	}
	return fmt.Sprintf("%d requests in %s (%.1f req/s, %.0f%% ok)%s",
		len(r.Samples), r.Elapsed.Round(time.Millisecond), r.Throughput(), r.SuccessRate()*100, summary)
}
