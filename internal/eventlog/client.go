package eventlog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Client talks to a remote event-log Server. It implements both Sink (for
// agents shipping observations) and Source (for the Assertion Checker).
type Client struct {
	baseURL string
	http    *http.Client

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
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{baseURL: baseURL, http: hc}
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
	req, err := http.NewRequest(http.MethodGet, c.baseURL+"/v1/stats", nil)
	if err != nil {
		return 1
	}
	var out statsBody
	if err := c.do(req, &out); err != nil || out.Shards < 1 {
		return 1
	}
	c.shards.Store(int32(out.Shards))
	return out.Shards
}

// Info fetches the server's store topology and WAL durability
// configuration (GET /v1/info).
func (c *Client) Info() (StoreInfo, error) {
	req, err := http.NewRequest(http.MethodGet, c.baseURL+"/v1/info", nil)
	if err != nil {
		return StoreInfo{}, fmt.Errorf("eventlog: store info: %w", err)
	}
	var out StoreInfo
	if err := c.do(req, &out); err != nil {
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
	req, err := http.NewRequest(http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("eventlog: ship %d records: %w", len(recs), err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if err := c.do(req, nil); err != nil {
		return fmt.Errorf("eventlog: ship %d records: %w", len(recs), err)
	}
	return nil
}

// Select runs a query against the remote store.
func (c *Client) Select(q Query) ([]Record, error) {
	req, err := newPost(c.baseURL+"/v1/query", q)
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: %w", err)
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: %w", err)
	}
	defer drainClose(resp.Body)
	bp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bp)
	body, err := readAll((*bp)[:0], resp.Body)
	*bp = body
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: read response: %w", err)
	}
	recs, err := decodeLines(nil, body)
	if err != nil {
		return nil, fmt.Errorf("eventlog: query: decode response: %w", err)
	}
	return recs, nil
}

// Count runs a count-only query against the remote store (POST
// /v1/count), so totals never ship the matching records over the wire.
func (c *Client) Count(q Query) (int, error) {
	var out countBody
	if err := c.post("/v1/count", q, &out); err != nil {
		return 0, fmt.Errorf("eventlog: count: %w", err)
	}
	return out.Count, nil
}

// Clear drops all records in the remote store and returns how many were
// dropped.
func (c *Client) Clear() (int, error) {
	req, err := http.NewRequest(http.MethodDelete, c.baseURL+"/v1/records", nil)
	if err != nil {
		return 0, fmt.Errorf("eventlog: clear: %w", err)
	}
	var out clearBody
	if err := c.do(req, &out); err != nil {
		return 0, fmt.Errorf("eventlog: clear: %w", err)
	}
	return out.Dropped, nil
}

// ClearMatching drops the remote records whose request ID matches
// idPattern and returns how many were dropped.
func (c *Client) ClearMatching(idPattern string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete,
		c.baseURL+"/v1/records?pattern="+url.QueryEscape(idPattern), nil)
	if err != nil {
		return 0, fmt.Errorf("eventlog: clear matching: %w", err)
	}
	var out clearBody
	if err := c.do(req, &out); err != nil {
		return 0, fmt.Errorf("eventlog: clear matching: %w", err)
	}
	return out.Dropped, nil
}

// Compact asks the remote store to compact its write-ahead logs,
// rewriting each shard's live set into a single snapshot segment. A
// volatile store treats it as a no-op.
func (c *Client) Compact() error {
	if err := c.post("/v1/compact", nil, nil); err != nil {
		return fmt.Errorf("eventlog: compact: %w", err)
	}
	return nil
}

// Stats returns the number of records held by the remote store.
func (c *Client) Stats() (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.baseURL+"/v1/stats", nil)
	if err != nil {
		return 0, fmt.Errorf("eventlog: stats: %w", err)
	}
	var out statsBody
	if err := c.do(req, &out); err != nil {
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.baseURL+"/v1/stream?pattern="+url.QueryEscape(pattern), nil)
	if err != nil {
		return fmt.Errorf("eventlog: stream: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	// The default client enforces an overall request timeout, which would
	// kill a long-lived stream; use the same transport without it. ctx
	// still cancels the request.
	hc := &http.Client{Transport: c.http.Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("eventlog: stream: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("eventlog: stream: server returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var (
		d    recordDecoder
		data []string
	)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event. Only unnamed
			// (record) events carry store records; "drop" events carry a
			// counter the client surfaces via the error path only if asked.
			if event == "" && len(data) > 0 {
				var rec Record
				if err := d.unmarshal([]byte(strings.Join(data, "\n")), &rec); err != nil {
					return fmt.Errorf("eventlog: stream: decode record: %w", err)
				}
				if err := fn(rec); err != nil {
					if errors.Is(err, ErrStreamStopped) {
						return nil
					}
					return err
				}
			}
			data, event = data[:0], ""
		case strings.HasPrefix(line, ":"):
			// Comment / keepalive.
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("eventlog: stream: %w", err)
	}
	return ctx.Err()
}

// Healthy reports whether the remote store responds to its liveness probe.
// Metrics fetches the server's raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.baseURL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("eventlog: metrics: %s: %s", resp.Status, body)
	}
	return string(body), nil
}

func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.baseURL + "/healthz")
	if err != nil {
		return false
	}
	defer drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (c *Client) post(path string, in, out any) error {
	req, err := newPost(c.baseURL+path, in)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// newPost builds a POST of in as a JSON body.
func newPost(url string, in any) (*http.Request, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// do performs req and decodes the reply's JSON body into out (nil: the
// body is discarded).
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// send performs req and returns the reply for the caller to read, drain
// and close; a reply with an error status becomes an error.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		drainClose(resp.Body)
		return nil, fmt.Errorf("server returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp, nil
}

// drainClose drains and closes a response body so the underlying connection
// can be reused.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 64<<10))
	_ = rc.Close()
}
