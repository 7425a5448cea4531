package eventlog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync/atomic"

	"gremlin/internal/httpx"
)

// Client talks to a remote event-log Server. It implements both Sink (for
// agents shipping observations) and Source (for the Assertion Checker).
type Client struct {
	wire httpx.Client

	// shards caches the server's shard topology (0 = not yet learned) so
	// LogBatch can pre-route batches; see topology().
	shards atomic.Int32
}

var (
	_ Sink   = (*Client)(nil)
	_ Source = (*Client)(nil)
)

// NewClient creates a client for the store server at baseURL (e.g.
// "http://127.0.0.1:9200"). If hc is nil a default client with a 10 s
// timeout is used.
func NewClient(baseURL string, hc *http.Client) *Client {
	return &Client{wire: httpx.NewClient(baseURL, hc)}
}

// Log ships records to the remote store through LogBatch.
func (c *Client) Log(recs ...Record) error { return c.LogBatch(recs) }

// PartialBatchError is how Log and LogBatch fail on a batch split across
// shards: the shard groups posted before the failing one were
// acknowledged, Unshipped holds the rest. Retrying Unshipped — and only that — keeps
// the store free of duplicates.
type PartialBatchError struct {
	Unshipped []Record
	Err       error
}

func (e *PartialBatchError) Error() string { return e.Err.Error() }
func (e *PartialBatchError) Unwrap() error { return e.Err }

// LogBatch ships one flush's worth of records as a single JSON Lines
// body per shard: the batch is grouped by the server's shard topology
// (learned once from /v1/stats and re-learned when it drifts), encoded
// into a pooled buffer, and sent with an advisory ?shard= hint; a body
// bound for one shard is appended under that shard's lock alone, without
// a copy. When one of several groups fails the error is a
// *PartialBatchError.
func (c *Client) LogBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	n := c.topology()
	if n <= 1 {
		return c.postBatch("/v1/records", recs)
	}
	path := func(si int) string { return fmt.Sprintf("/v1/records?shard=%d&of=%d", si, n) }
	// One run's records share a namespace, so a batch is often one group:
	// ship it as it is.
	first, mixed := shardOf(recs[0].RequestID, n), false
	for i := 1; i < len(recs) && !mixed; i++ {
		mixed = shardOf(recs[i].RequestID, n) != first
	}
	if !mixed {
		return c.postBatch(path(first), recs)
	}
	groups := make([][]Record, n)
	for _, r := range recs {
		si := shardOf(r.RequestID, n)
		groups[si] = append(groups[si], r)
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := c.postBatch(path(si), g); err != nil {
			var unshipped []Record
			for _, rest := range groups[si:] {
				unshipped = append(unshipped, rest...)
			}
			return &PartialBatchError{Unshipped: unshipped, Err: err}
		}
	}
	return nil
}

// shardOf mirrors the store's request-ID-namespace routing so client
// batches arrive pre-sorted (the store routes every record itself).
func shardOf(id string, shards int) int {
	return shardOfNamespace(namespaceOf(id), shards)
}

// topology returns the server's shard count, fetching it on first use.
// An unreachable server reads as single-shard; the count is retried on
// the next batch.
func (c *Client) topology() int {
	if n := c.shards.Load(); n > 0 {
		return int(n)
	}
	var out statsBody
	if err := c.wire.JSON(context.TODO(), http.MethodGet, "/v1/stats", nil, &out); err != nil || out.Shards < 1 {
		return 1
	}
	c.shards.Store(int32(out.Shards))
	return out.Shards
}

// Info fetches the server's store topology and WAL durability
// configuration (GET /v1/info).
func (c *Client) Info() (StoreInfo, error) {
	var out StoreInfo
	if err := c.wire.JSON(context.TODO(), http.MethodGet, "/v1/info", nil, &out); err != nil {
		return StoreInfo{}, fmt.Errorf("eventlog: store info: %w", err)
	}
	return out, nil
}

// postBatch sends recs as one JSON Lines body, encoded into a pooled
// buffer — one request, one encoder pass, zero per-record HTTP overhead.
func (c *Client) postBatch(path string, recs []Record) error {
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	body, err := appendLines((*bp)[:0], recs)
	*bp = body
	if err != nil {
		return fmt.Errorf("eventlog: encode %d records: %w", len(recs), err)
	}
	resp, err := c.wire.Do(context.TODO(), http.MethodPost, path, bytes.NewReader(body),
		"Content-Type", "application/x-ndjson")
	if err != nil {
		return fmt.Errorf("eventlog: ship %d records: %w", len(recs), err)
	}
	httpx.DrainClose(resp)
	return nil
}

// Select runs a query against the remote store.
func (c *Client) Select(q Query) ([]Record, error) {
	resp, err := c.wire.Do(context.TODO(), http.MethodPost, "/v1/query", q)
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: %w", err)
	}
	defer httpx.DrainClose(resp)
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	body, err := readAll((*bp)[:0], resp.Body)
	*bp = body
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: read response: %w", err)
	}
	recs, err := decodeLines(nil, body, nil)
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: decode response: %w", err)
	}
	return recs, nil
}

// Count runs a count-only query against the remote store (POST
// /v1/count), so totals never ship the matching records over the wire.
func (c *Client) Count(q Query) (int, error) {
	var out countBody
	if err := c.wire.JSON(context.TODO(), http.MethodPost, "/v1/count", q, &out); err != nil {
		return 0, fmt.Errorf("eventlog: count: %w", err)
	}
	return out.Count, nil
}

// Clear drops all records in the remote store and returns how many were
// dropped.
func (c *Client) Clear() (int, error) {
	var out clearBody
	if err := c.wire.JSON(context.TODO(), http.MethodDelete, "/v1/records", nil, &out); err != nil {
		return 0, fmt.Errorf("eventlog: clear: %w", err)
	}
	return out.Dropped, nil
}

// ClearMatching drops the remote records whose request ID matches
// idPattern and returns how many were dropped.
func (c *Client) ClearMatching(idPattern string) (int, error) {
	var out clearBody
	err := c.wire.JSON(context.TODO(), http.MethodDelete, "/v1/records?pattern="+url.QueryEscape(idPattern), nil, &out)
	if err != nil {
		return 0, fmt.Errorf("eventlog: clear matching: %w", err)
	}
	return out.Dropped, nil
}

// Compact asks the remote store to compact its write-ahead logs,
// rewriting each shard's live set into a single snapshot segment. A
// volatile store treats it as a no-op.
func (c *Client) Compact() error {
	if err := c.wire.JSON(context.TODO(), http.MethodPost, "/v1/compact", nil, nil); err != nil {
		return fmt.Errorf("eventlog: compact: %w", err)
	}
	return nil
}

// Stats returns the number of records held by the remote store.
func (c *Client) Stats() (int, error) {
	var out statsBody
	if err := c.wire.JSON(context.TODO(), http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return 0, fmt.Errorf("eventlog: stats: %w", err)
	}
	return out.Records, nil
}

// ErrStreamStopped is the sentinel a Stream callback returns to end the
// stream cleanly: Stream closes the connection and returns nil.
var ErrStreamStopped = errors.New("eventlog: stream stopped")

// Stream tails the remote store's live record feed (GET /v1/stream),
// calling fn for each record whose request ID matches pattern. It blocks
// until ctx is cancelled (returning ctx.Err()), the server goes away
// (returning the transport error), or fn returns an error — fn returning
// ErrStreamStopped ends the stream with a nil error, any other error is
// returned as-is.
//
// The feed is bounded server-side: if fn is too slow, records are dropped
// at the server rather than buffered without limit (the drop count is
// reported on the wire as "drop" events, visible in the store's metrics).
func (c *Client) Stream(ctx context.Context, pattern string, fn func(Record) error) error {
	resp, err := c.wire.Long().Do(ctx, http.MethodGet, "/v1/stream?pattern="+url.QueryEscape(pattern), nil,
		"Accept", "text/event-stream")
	if err != nil {
		return fmt.Errorf("eventlog: stream: %w", err)
	}
	defer resp.Body.Close()
	var (
		d    recordDecoder
		stop error // the decoder's or fn's error, which ends the stream
	)
	err = httpx.ReadEvents(resp.Body, func(name string, data []byte) error {
		if name != "" {
			return nil // a "drop" event: the loss shows in the store's metrics
		}
		var rec Record
		if stop = d.unmarshal(data, &rec); stop != nil {
			stop = fmt.Errorf("eventlog: stream: decode record: %w", stop)
		} else {
			stop = fn(rec)
		}
		return stop
	})
	switch {
	case errors.Is(stop, ErrStreamStopped):
		return nil
	case stop != nil:
		return stop
	case err != nil && ctx.Err() == nil:
		return fmt.Errorf("eventlog: stream: %w", err)
	}
	return ctx.Err()
}

// Metrics fetches the server's raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	text, err := c.wire.Text(context.TODO(), "/metrics")
	if err != nil {
		return "", fmt.Errorf("eventlog: metrics: %w", err)
	}
	return text, nil
}

// Healthy reports whether the remote store responds to its liveness probe.
func (c *Client) Healthy() bool {
	return c.wire.JSON(context.TODO(), http.MethodGet, "/healthz", nil, nil) == nil
}
