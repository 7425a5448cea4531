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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"gremlin/internal/httpx"
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
	wire httpx.Client
}

// New creates a client for the agent control API at baseURL. If hc is nil a
// default client with a 10 s timeout is used.
func New(baseURL string, hc *http.Client) *Client {
	return &Client{wire: httpx.NewClient(baseURL, hc)}
}

// BaseURL returns the control endpoint this client targets.
func (c *Client) BaseURL() string { return c.wire.BaseURL }

// Info fetches the agent's identity, routes, and rule-set version.
func (c *Client) Info(ctx context.Context) (proxy.InfoBody, error) {
	var info proxy.InfoBody
	if err := c.wire.JSON(ctx, http.MethodGet, "/v1/info", nil, &info); err != nil {
		return proxy.InfoBody{}, fmt.Errorf("agentapi: info: %w", err)
	}
	return info, nil
}

// GetRuleSet fetches the agent's complete versioned rule state.
func (c *Client) GetRuleSet(ctx context.Context) (proxy.RuleSetBody, error) {
	var body proxy.RuleSetBody
	if err := c.wire.JSON(ctx, http.MethodGet, "/v1/ruleset", nil, &body); err != nil {
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
	var header []string
	if ifMatch != rules.NoMatch {
		header = []string{"If-Match", strconv.FormatUint(ifMatch, 10)}
	}
	var st rules.RuleSetStatus
	err := c.wire.JSON(ctx, http.MethodPut, "/v1/ruleset", set, &st, header...)
	var se *httpx.StatusError
	switch {
	case err == nil:
		return st, nil
	case errors.As(err, &se) && (se.Code == http.StatusConflict || se.Code == http.StatusPreconditionFailed):
		var cb struct {
			Current rules.RuleSetStatus `json:"current"`
		}
		_ = json.Unmarshal(se.Body, &cb)
		sentinel := ErrConflict
		if se.Code == http.StatusPreconditionFailed {
			sentinel = ErrPreconditionFailed
		}
		return cb.Current, fmt.Errorf("%w: %s", sentinel, se.Msg)
	default:
		return rules.RuleSetStatus{}, fmt.Errorf("agentapi: put ruleset: %w", err)
	}
}

// ClearRules removes all rules, returning how many were installed.
func (c *Client) ClearRules(ctx context.Context) (int, error) {
	var out map[string]int
	if err := c.wire.JSON(ctx, http.MethodDelete, "/v1/rules", nil, &out); err != nil {
		return 0, fmt.Errorf("agentapi: clear rules: %w", err)
	}
	return out["removed"], nil
}

// Flush asks the agent to flush buffered observation records to the store.
func (c *Client) Flush(ctx context.Context) error {
	if err := c.wire.JSON(ctx, http.MethodPost, "/v1/flush", nil, nil); err != nil {
		return fmt.Errorf("agentapi: flush: %w", err)
	}
	return nil
}

// Metrics fetches the agent's Prometheus text exposition (GET /metrics),
// raw, for relaying to a scraper or a human.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	text, err := c.wire.Text(ctx, "/metrics")
	if err != nil {
		return "", fmt.Errorf("agentapi: metrics: %w", err)
	}
	return text, nil
}

// Healthy reports whether the agent's control API responds.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.wire.JSON(ctx, http.MethodGet, "/healthz", nil, nil) == nil
}
