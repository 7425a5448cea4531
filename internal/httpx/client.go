package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client is the one client path of the control plane's HTTP APIs: a base
// URL and the *http.Client that carries every request, so a caller's
// Transport sees them all. The agent, store and registry clients, the
// telemetry scraper and gremlin top go through it.
type Client struct {
	BaseURL string
	HTTP    *http.Client
}

// NewClient returns a Client for baseURL. A nil hc gets a client with a
// 10 s overall timeout.
func NewClient(baseURL string, hc *http.Client) Client {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return Client{BaseURL: baseURL, HTTP: hc}
}

// StatusError is a reply whose status is 400 or above. Msg is the
// server's ErrorBody message, or the start of the body when the body is
// not an ErrorBody. Body is that start, at most 4 KiB, for callers whose
// error replies carry more than a message.
type StatusError struct {
	Code int
	Msg  string
	Body []byte
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("server returned %d", e.Code)
	}
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Msg)
}

// Long returns c for requests meant to stay open, an SSE feed or a long
// poll: the same client without its overall Timeout, which would cut
// them, so only their ctx ends them.
func (c Client) Long() Client {
	if c.HTTP.Timeout == 0 {
		return c
	}
	hc := *c.HTTP
	hc.Timeout = 0
	return Client{BaseURL: c.BaseURL, HTTP: &hc}
}

// Do sends method to c.BaseURL+path and returns the reply for the caller
// to read and DrainClose. body, unless nil, is the request body: an
// io.Reader goes as it is, anything else as its JSON encoding. header
// alternates names and values. A reply whose status is 400 or above is
// closed and returned as a *StatusError.
func (c Client) Do(ctx context.Context, method, path string, body any, header ...string) (*http.Response, error) {
	var rd io.Reader
	isJSON := false
	switch b := body.(type) {
	case nil:
	case io.Reader:
		rd = b
	default:
		enc, err := json.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("marshal: %w", err)
		}
		rd, isJSON = bytes.NewReader(enc), true
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if isJSON {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer DrainClose(resp)
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		se := &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(b)), Body: b}
		var eb ErrorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			se.Msg = eb.Error
		}
		return nil, se
	}
	return resp, nil
}

// JSON is Do with the reply's JSON body decoded into out (nil: the body
// is discarded).
func (c Client) JSON(ctx context.Context, method, path string, body, out any, header ...string) error {
	resp, err := c.Do(ctx, method, path, body, header...)
	if err != nil {
		return err
	}
	defer DrainClose(resp)
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// Text GETs path and returns the reply body, raw, at most MaxBodyBytes
// of it: a /metrics exposition for relaying to a scraper or a human.
func (c Client) Text(ctx context.Context, path string) (string, error) {
	resp, err := c.Do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	defer DrainClose(resp)
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	return string(b), err
}

// DrainClose drains (at most 64 KiB) and closes resp's body, so its
// connection can be reused. A stream that never ends is closed with
// resp.Body.Close instead.
func DrainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	_ = resp.Body.Close()
}
