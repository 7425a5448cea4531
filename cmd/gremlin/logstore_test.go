package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gremlin/internal/eventlog"
)

// TestLogstorePprofEndpoint binds the store and -pprof to port 0 and
// reads the pprof address back from the banner.
func TestLogstorePprofEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out lockedBuffer
	go func() {
		done <- runLogstore(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0"}, &out)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()

	if !waitUntil(func() bool { _, ok := bannerValue(out.String(), "pprof: "); return ok }) {
		t.Fatalf("no pprof line in the logstore's banner:\n%s", out.String())
	}
	pprofIndex, _ := bannerValue(out.String(), "pprof: ")
	if !strings.HasPrefix(pprofIndex, "http://127.0.0.1:") || strings.Contains(pprofIndex, ":0/") {
		t.Fatalf("banner does not name the bound pprof address:\n%s", out.String())
	}
	resp, err := http.Get(pprofIndex)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d %q", resp.StatusCode, body)
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
