// Package agentapi provides the Go client for a Gremlin agent's REST
// control API. The Failure Orchestrator uses it to program the data plane;
// the gremlin-ctl tool uses it for manual operation. Rules travel only as
// whole versioned rule sets (GetRuleSet/PutRuleSet); ClearRules drops them
// all.
//
// Every method takes a context: reconciliation loops and recipe runs pass
// theirs down so a hung agent can never block a Revert or an anti-entropy
// sweep indefinitely.
package agentapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gremlin/internal/proxy"
	"gremlin/internal/rules"
)

// Sentinel errors for the versioned rule-set path. PutRuleSet wraps them so
// reconcilers can branch on errors.Is without parsing HTTP status codes.
var (
	// ErrConflict is returned when the agent rejected a rule set as stale
	// (older generation) or conflicting (same generation, different
	// content) — HTTP 409.
	ErrConflict = errors.New("agentapi: rule set conflicts with the agent's installed generation")

	// ErrPreconditionFailed is returned when an If-Match compare-and-swap
	// lost the race: the agent's generation moved since it was observed —
	// HTTP 412. Re-read the agent's state and retry.
	ErrPreconditionFailed = errors.New("agentapi: if-match precondition failed")
)

// Client talks to one Gremlin agent control endpoint.
type Client struct {
	baseURL string
	http    *http.Client
}

// New creates a client for the agent control API at baseURL. If hc is nil a
// default client with a 10 s timeout is used.
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{baseURL: baseURL, http: hc}
}

// BaseURL returns the control endpoint this client targets.
func (c *Client) BaseURL() string { return c.baseURL }

// Info fetches the agent's identity, routes, and rule-set version.
func (c *Client) Info(ctx context.Context) (proxy.InfoBody, error) {
	var info proxy.InfoBody
	err := c.do(ctx, http.MethodGet, "/v1/info", &info)
	if err != nil {
		return proxy.InfoBody{}, fmt.Errorf("agentapi: info: %w", err)
	}
	return info, nil
}

// GetRuleSet fetches the agent's complete versioned rule state.
func (c *Client) GetRuleSet(ctx context.Context) (proxy.RuleSetBody, error) {
	var body proxy.RuleSetBody
	if err := c.do(ctx, http.MethodGet, "/v1/ruleset", &body); err != nil {
		return proxy.RuleSetBody{}, fmt.Errorf("agentapi: get ruleset: %w", err)
	}
	return body, nil
}

// PutRuleSet atomically replaces the agent's whole rule state with set
// (PUT /v1/ruleset). ifMatch, unless rules.NoMatch, is sent as an If-Match
// precondition: the apply succeeds only while the agent is still at that
// generation. On 409/412 the returned status carries the agent's current
// version and the error wraps ErrConflict / ErrPreconditionFailed.
func (c *Client) PutRuleSet(ctx context.Context, set rules.RuleSet, ifMatch uint64) (rules.RuleSetStatus, error) {
	b, err := json.Marshal(set)
	if err != nil {
		return rules.RuleSetStatus{}, fmt.Errorf("agentapi: put ruleset: marshal: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.baseURL+"/v1/ruleset", bytes.NewReader(b))
	if err != nil {
		return rules.RuleSetStatus{}, fmt.Errorf("agentapi: put ruleset: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ifMatch != rules.NoMatch {
		req.Header.Set("If-Match", strconv.FormatUint(ifMatch, 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return rules.RuleSetStatus{}, fmt.Errorf("agentapi: put ruleset: %w", err)
	}
	defer drainClose(resp.Body)

	switch resp.StatusCode {
	case http.StatusOK:
		var st rules.RuleSetStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return rules.RuleSetStatus{}, fmt.Errorf("agentapi: put ruleset: decode response: %w", err)
		}
		return st, nil
	case http.StatusConflict, http.StatusPreconditionFailed:
		var cb struct {
			Error   string              `json:"error"`
			Current rules.RuleSetStatus `json:"current"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&cb)
		sentinel := ErrConflict
		if resp.StatusCode == http.StatusPreconditionFailed {
			sentinel = ErrPreconditionFailed
		}
		return cb.Current, fmt.Errorf("%w: %s", sentinel, cb.Error)
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return rules.RuleSetStatus{}, fmt.Errorf("agentapi: put ruleset: agent returned %d: %s",
			resp.StatusCode, bytes.TrimSpace(b))
	}
}

// ClearRules removes all rules, returning how many were installed.
func (c *Client) ClearRules(ctx context.Context) (int, error) {
	var out map[string]int
	if err := c.do(ctx, http.MethodDelete, "/v1/rules", &out); err != nil {
		return 0, fmt.Errorf("agentapi: clear rules: %w", err)
	}
	return out["removed"], nil
}

// Flush asks the agent to flush buffered observation records to the store.
func (c *Client) Flush(ctx context.Context) error {
	if err := c.do(ctx, http.MethodPost, "/v1/flush", nil); err != nil {
		return fmt.Errorf("agentapi: flush: %w", err)
	}
	return nil
}

// Metrics fetches the agent's Prometheus text exposition (GET /metrics),
// raw, for relaying to a scraper or a human.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("agentapi: metrics: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("agentapi: metrics: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return "", fmt.Errorf("agentapi: metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("agentapi: metrics: agent returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return string(b), nil
}

// Healthy reports whether the agent's control API responds.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/healthz", nil) == nil
}

// do sends a bodiless request and decodes a JSON reply into out (when
// non-nil).
func (c *Client) do(ctx context.Context, method, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode >= 400 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("agent returned %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// drainClose drains (bounded) and closes a response body so the
// connection can be reused.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, 64<<10))
	_ = rc.Close()
}
