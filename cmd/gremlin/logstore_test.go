package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gremlin/internal/eventlog"
)

func TestLogstoreLifecycleWithPersistence(t *testing.T) {
	persist := filepath.Join(t.TempDir(), "events.jsonl")

	// First run: start, ingest one record through the HTTP API, shut down.
	// The server address is ephemeral; find it by probing the persist file
	// is impossible — instead reach the store through a second client after
	// restart. For this first run just verify clean shutdown with an empty
	// store.
	if err := serveOnce("logstore", "-addr", "127.0.0.1:0", "-persist", persist); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Seed the persistence file out of band and restart: the store must
	// load it.
	store := eventlog.NewStore()
	if err := store.Log(eventlog.Record{Src: "a", Dst: "b", Kind: eventlog.KindRequest, RequestID: "test-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveFile(persist); err != nil {
		t.Fatal(err)
	}

	if err := serveOnce("logstore", "-addr", "127.0.0.1:0", "-persist", persist); err != nil {
		t.Fatalf("second run: %v", err)
	}

	// The restart re-saved the loaded record.
	reloaded := eventlog.NewStore()
	n, err := reloaded.LoadFile(persist)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("persisted %d records across restart, want 1", n)
	}
}

func TestLogstorePprofEndpoint(t *testing.T) {
	// The store's own address is ephemeral, but -pprof takes a fixed one:
	// ask the kernel for a free port by binding and releasing it.
	probe := httptest.NewServer(http.NotFoundHandler())
	pprofAddr := strings.TrimPrefix(probe.URL, "http://")
	probe.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"logstore", "-addr", "127.0.0.1:0", "-pprof", pprofAddr})
	}()

	var resp *http.Response
	if !waitUntil(func() bool {
		var err error
		resp, err = http.Get("http://" + pprofAddr + "/debug/pprof/")
		return err == nil
	}) {
		t.Fatal("pprof endpoint never answered")
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d %q", resp.StatusCode, body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestLogstoreBadFlags(t *testing.T) {
	if err := gremlin("logstore", "-addr"); err == nil {
		t.Fatal("want flag parse error")
	}
	if err := gremlin("logstore", "-addr", "999.999.999.999:0"); err == nil {
		t.Fatal("want listen error")
	}
}

func TestLogstoreBadPersistFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "corrupt.jsonl")
	if err := writeFile(bad, "not json\n"); err != nil {
		t.Fatal(err)
	}
	if err := gremlin("logstore", "-addr", "127.0.0.1:0", "-persist", bad); err == nil {
		t.Fatal("want load error for corrupt persistence file")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o600)
}

func TestLogstoreShardedWithDataDir(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "wal")

	// First run: ingest via HTTP, shut down cleanly.
	if err := serveOnce("logstore", "-addr", "127.0.0.1:0", "-shards", "4", "-data-dir", dataDir, "-fsync", "never"); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Seed the WAL out of band, then restart: the store must replay it.
	ss, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: 4, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Log(eventlog.Record{Src: "a", Dst: "b", Kind: eventlog.KindRequest, RequestID: "test-1"}); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	if err := serveOnce("logstore", "-addr", "127.0.0.1:0", "-shards", "4", "-data-dir", dataDir); err != nil {
		t.Fatalf("second run: %v", err)
	}

	re, err := eventlog.NewShardedStore(eventlog.StoreOptions{Shards: 4, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 1 {
		t.Fatalf("replayed %d records across restart, want 1", got)
	}
}

func TestLogstoreRejectsPersistWithDataDir(t *testing.T) {
	dir := t.TempDir()
	err := gremlin("logstore",
		"-addr", "127.0.0.1:0",
		"-persist", filepath.Join(dir, "e.jsonl"),
		"-data-dir", filepath.Join(dir, "wal"),
	)
	if err == nil {
		t.Fatal("-persist with -data-dir must be rejected")
	}
}

func TestLogstoreRejectsBadFsyncPolicy(t *testing.T) {
	if err := gremlin("logstore", "-addr", "127.0.0.1:0", "-fsync", "sometimes"); err == nil {
		t.Fatal("want fsync policy error")
	}
}

// TestLogstoreReleasesOnBindFailure: a WAL-backed store whose listen
// address is taken returns an error and leaves nothing running: the
// default -fsync interval policy's sync goroutine stops with the store.
func TestLogstoreReleasesOnBindFailure(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 5; cycle++ {
		err := gremlin("logstore", "-addr", held.Addr().String(), "-shards", "2", "-data-dir", t.TempDir())
		if err == nil {
			t.Fatal("want an error binding a taken address")
		}
	}
	checkNoGoroutinesLeft(t, base)
}
