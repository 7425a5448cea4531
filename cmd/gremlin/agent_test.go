package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gremlin/internal/agentapi"
	"gremlin/internal/eventlog"
	"gremlin/internal/trace"
)

func TestAgentRequiresConfig(t *testing.T) {
	if err := gremlin("agent"); err == nil {
		t.Fatal("want error without -config")
	}
	if err := gremlin("agent", "-config", "/does/not/exist.json"); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestAgentRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "agent.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := gremlin("agent", "-config", bad); err == nil {
		t.Fatal("want parse error")
	}

	// Structurally valid JSON, invalid agent config (no routes).
	if err := os.WriteFile(bad, []byte(`{"service":"a","control":"127.0.0.1:0"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := gremlin("agent", "-config", bad); err == nil {
		t.Fatal("want config validation error")
	}
}

// lockedBuffer collects what a running verb writes, for a test to read
// while the verb is still writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// bannerValue returns the text after prefix on the first banner line that
// starts with it (leading blanks ignored), and whether there was one.
func bannerValue(banner, prefix string) (string, bool) {
	for _, line := range strings.Split(banner, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), prefix); ok {
			return rest, true
		}
	}
	return "", false
}

// TestAgentLifecycle runs the agent verb with every listener on port 0
// and reads the addresses it bound from its banner.
func TestAgentLifecycle(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "backend")
	}))
	defer backend.Close()

	// A live log store for the agent to ship observations to.
	store := eventlog.NewStore()
	storeServer, err := eventlog.NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := storeServer.Close(); err != nil {
			t.Error(err)
		}
	}()

	cfg := map[string]any{
		"service":  "client",
		"control":  "127.0.0.1:0",
		"logstore": storeServer.URL(),
		"routes": []map[string]any{{
			"dst":        "server",
			"listenAddr": "127.0.0.1:0",
			"targets":    []string{strings.TrimPrefix(backend.URL, "http://")},
		}},
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "agent.json")
	if err := os.WriteFile(cfgPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out lockedBuffer
	go func() {
		done <- runAgent(ctx, []string{"-config", cfgPath, "-flush", "10ms", "-pprof", "127.0.0.1:0"}, &out)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	// The route line is the banner's last.
	if !waitUntil(func() bool { _, ok := bannerValue(out.String(), "route server "); return ok }) {
		t.Fatalf("no route line in the agent's banner:\n%s", out.String())
	}
	banner := out.String()
	controlURL, _ := bannerValue(banner, "control API: ")
	pprofIndex, _ := bannerValue(banner, "pprof: ")
	route, _ := bannerValue(banner, "route server ")
	_, routeAddr, _ := strings.Cut(route, " via ")
	if !strings.HasPrefix(controlURL, "http://127.0.0.1:") || !strings.HasPrefix(pprofIndex, "http://127.0.0.1:") ||
		!strings.HasPrefix(routeAddr, "127.0.0.1:") || strings.HasSuffix(routeAddr, ":0") {
		t.Fatalf("banner does not name the bound addresses:\n%s", banner)
	}

	// The agent proxies and the control API answers.
	ctl := agentapi.New(controlURL, nil)
	if !waitUntil(func() bool { return ctl.Healthy(context.Background()) }) {
		t.Fatal("control API not healthy")
	}
	req, err := http.NewRequest(http.MethodGet, "http://"+routeAddr+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || string(body) != "backend" {
		t.Fatalf("proxied request: %d %q", resp.StatusCode, body)
	}
	if err := ctl.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("observations did not reach the log store")
	}

	// The -pprof flag exposes the debug endpoints on their own listener.
	dbg, err := http.Get(pprofIndex)
	if err != nil {
		t.Fatal(err)
	}
	dbgBody, _ := io.ReadAll(dbg.Body)
	_ = dbg.Body.Close()
	if dbg.StatusCode != 200 || !strings.Contains(string(dbgBody), "goroutine") {
		t.Fatalf("pprof index: %d %q", dbg.StatusCode, dbgBody)
	}
}

// TestAgentReleasesOnBindFailure: an agent that cannot bind a route or
// its -pprof listener returns an error and leaves nothing running — not
// the buffered sink's flusher, not the agent's own listeners.
func TestAgentReleasesOnBindFailure(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	taken := held.Addr().String()

	writeConfig := func(routeAddr string) string {
		return writeJSON(t, t.TempDir(), "agent.json", map[string]any{
			"service":  "client",
			"control":  "127.0.0.1:0",
			"logstore": "http://127.0.0.1:1", // never reached: no connection outlives the run
			"routes": []map[string]any{{
				"dst": "server", "listenAddr": routeAddr, "targets": []string{"127.0.0.1:1"},
			}},
		})
	}
	routeTaken := writeConfig(taken)
	pprofTaken := writeConfig("127.0.0.1:0")

	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 5; cycle++ {
		if err := gremlin("agent", "-config", routeTaken); err == nil {
			t.Fatal("want an error binding a route to a taken port")
		}
		if err := gremlin("agent", "-config", pprofTaken, "-pprof", taken); err == nil {
			t.Fatal("want an error binding -pprof to a taken port")
		}
	}
	checkNoGoroutinesLeft(t, base)
}
