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

// controlURLFromOutput is impossible with ephemeral ports printed to
// stdout; instead the test fixes a port by asking the kernel first.
func freePort(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	return addr
}

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

	controlAddr := freePort(t)
	routeAddr := freePort(t)
	pprofAddr := freePort(t)
	cfg := map[string]any{
		"service":  "client",
		"control":  controlAddr,
		"logstore": storeServer.URL(),
		"routes": []map[string]any{{
			"dst":        "server",
			"listenAddr": routeAddr,
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
	go func() {
		done <- run(ctx, []string{"agent", "-config", cfgPath, "-flush", "10ms", "-pprof", pprofAddr})
	}()

	// The agent proxies and the control API answers.
	ctl := agentapi.New("http://"+controlAddr, nil)
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
	dbg, err := http.Get("http://" + pprofAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	dbgBody, _ := io.ReadAll(dbg.Body)
	_ = dbg.Body.Close()
	if dbg.StatusCode != 200 || !strings.Contains(string(dbgBody), "goroutine") {
		t.Fatalf("pprof index: %d %q", dbg.StatusCode, dbgBody)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
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
