package telemetry

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gremlin/internal/agentapi"
	"gremlin/internal/eventlog"
	"gremlin/internal/httpx"
	"gremlin/internal/registry"
)

// TestClientErrorsCarryServerMessage: every control-plane client turns a
// 4xx with an ErrorBody into an error that names the server's message
// once, does not embed the raw JSON, and unwraps to a *httpx.StatusError.
func TestClientErrorsCarryServerMessage(t *testing.T) {
	const msg = "no such thing: x"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		httpx.WriteError(w, http.StatusBadRequest, "%s", msg)
	}))
	defer srv.Close()
	ctx := context.Background()
	agent := agentapi.New(srv.URL, nil)
	store := eventlog.NewClient(srv.URL, nil)
	reg := registry.NewClient(srv.URL, nil)
	scraper := NewScraper(NewSeriesStore(0), nil, ScrapeOptions{})
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"agentapi.Info", func() error { _, err := agent.Info(ctx); return err }},
		{"agentapi.Metrics", func() error { _, err := agent.Metrics(ctx); return err }},
		{"eventlog.Count", func() error { _, err := store.Count(eventlog.Query{}); return err }},
		{"eventlog.Select", func() error { _, err := store.Select(eventlog.Query{}); return err }},
		{"eventlog.Stream", func() error { return store.Stream(ctx, "", func(eventlog.Record) error { return nil }) }},
		{"registry.Members", func() error { _, err := reg.Members(); return err }},
		{"registry.Services", func() error { _, err := reg.Services(); return err }},
		{"registry.Instances", func() error { _, err := reg.Instances("x"); return err }},
		{"registry.WaitEvents", func() error { _, _, err := reg.WaitEvents(ctx, 0); return err }},
		{"telemetry.Scraper", func() error { _, err := scraper.fetch(ctx, srv.URL+"/metrics"); return err }},
	} {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: no error from a 400", tc.name)
			continue
		}
		if got := err.Error(); strings.Count(got, msg) != 1 || strings.Contains(got, `{"error"`) {
			t.Errorf("%s: error %q, want the server's message once and no raw JSON", tc.name, got)
		}
		var se *httpx.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: error %v does not unwrap to a 400 *httpx.StatusError", tc.name, err)
		}
	}
}
