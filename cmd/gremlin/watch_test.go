package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gremlin/internal/eventlog"
)

// startStore boots a live event-log server backed by an in-process store
// the test can inject records into.
func startStore(t *testing.T) (*eventlog.Store, *eventlog.Server) {
	t.Helper()
	store := eventlog.NewStore()
	srv, err := eventlog.NewServer("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	})
	return store, srv
}

// abortReply fabricates the record a Gremlin agent logs when an abort rule
// fires: a synthesized 503 reply.
func abortReply(id string) eventlog.Record {
	return eventlog.Record{
		Timestamp: time.Now(), RequestID: id,
		Src: "gateway", Dst: "payments", Kind: eventlog.KindReply,
		Status: 503, FaultAction: "abort", GremlinGenerated: true,
	}
}

// TestWatchDetectsAbortViolationLive is the subsystem's acceptance test:
// while a faulted "run" is still emitting records, gremlin watch trips its
// failure bound and exits non-zero — well before the run completes and a
// batch check could have evaluated anything.
func TestWatchDetectsAbortViolationLive(t *testing.T) {
	store, srv := startStore(t)

	done := make(chan error, 1)
	go func() {
		done <- gremlin("watch",
			"-store", srv.URL(), "-pattern", "camp-*",
			"-max-failures", "2", "-quiet",
		)
	}()

	// Wait for the watcher's subscription before injecting the run.
	deadline := time.Now().Add(5 * time.Second)
	for store.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Emulate a paced experiment: 100 aborted exchanges. The bound (>2
	// failure replies) must fire while most of the run is still ahead.
	const runLength = 100
	logged := 0
	var err error
feed:
	for i := 0; i < runLength; i++ {
		if logErr := store.Log(abortReply(fmt.Sprintf("camp-run-%d", i))); logErr != nil {
			t.Fatal(logErr)
		}
		logged++
		select {
		case err = <-done:
			break feed
		case <-time.After(10 * time.Millisecond):
		}
	}
	if logged == runLength {
		// Exhausted the whole run without a verdict; allow a grace period.
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("gremlin watch never returned")
		}
	}

	if err == nil {
		t.Fatal("run returned nil; a violated watch must exit non-zero")
	}
	if !strings.Contains(err.Error(), "VIOLATION") || !strings.Contains(err.Error(), "failure replies") {
		t.Fatalf("error %q does not describe the failure-reply violation", err)
	}
	if logged >= runLength {
		t.Fatalf("violation surfaced only after all %d records — not live", runLength)
	}
	t.Logf("violation after %d of %d records: %v", logged, runLength, err)
}

// TestWatchAssertFileCleanExit drives the -assert path: specs that stay
// within bounds, a -duration that elapses, exit zero.
func TestWatchAssertFileCleanExit(t *testing.T) {
	store, srv := startStore(t)

	specs := filepath.Join(t.TempDir(), "asserts.json")
	raw := `[{"type": "checkStatus", "status": -1, "max": 5},
	         {"type": "numRequests", "max": 50}]`
	if err := os.WriteFile(specs, []byte(raw), 0o600); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- gremlin("watch",
			"-store", srv.URL(), "-pattern", "test-*",
			"-assert", specs, "-duration", "400ms", "-quiet",
		)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for store.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Benign traffic: successful replies, under every bound.
	for i := 0; i < 3; i++ {
		rec := eventlog.Record{
			Timestamp: time.Now(), RequestID: fmt.Sprintf("test-%d", i),
			Src: "a", Dst: "b", Kind: eventlog.KindReply, Status: 200,
		}
		if err := store.Log(rec); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean watch returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not stop at -duration")
	}
}

func TestWatchBadInvocations(t *testing.T) {
	_, srv := startStore(t)

	cases := map[string][]string{
		"missing store":   {"-max-failures", "0"},
		"no assertions":   {"-store", srv.URL()},
		"bad assert file": {"-store", srv.URL(), "-assert", "/nonexistent.json"},
		"bad flag":        {"-nope"},
		"dead store":      {"-store", "http://127.0.0.1:1", "-max-failures", "0"},
	}
	for name, args := range cases {
		if err := gremlin(append([]string{"watch"}, args...)...); err == nil {
			t.Errorf("%s: run(%v) returned nil, want error", name, args)
		}
	}
}
