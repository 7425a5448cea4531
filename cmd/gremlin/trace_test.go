package main

import (
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"gremlin/internal/rules"
	"gremlin/internal/topology"
	"gremlin/internal/trace"
)

// TestTraceCLIEndToEnd is the tracing plane's acceptance path: run the
// quickstart app with an injected 100ms delay, dump the event log, and
// assert the CLI's waterfall shows a critical path through the delayed
// edge with the latency inflation attributed to the firing rule.
func TestTraceCLIEndToEnd(t *testing.T) {
	spec := topology.TwoServices(0, 0)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	if err := app.Agent("serviceA").InstallRules(rules.Rule{
		ID: "delay-ab", Src: "serviceA", Dst: "serviceB",
		Action: rules.ActionDelay, DelayMillis: 100, Pattern: "test-*",
	}); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, app.EntryURL()+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	trace.SetRequestID(req, "test-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	dump := filepath.Join(t.TempDir(), "events.jsonl")
	if _, err := app.Store.SaveFile(dump); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runTrace([]string{"-file", dump, "-pattern", "test-*"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"trace test-trace-1",
		"serviceA -> serviceB",
		"critical path: user -> serviceA -> serviceB",
		"attribution: rule delay-ab on serviceA -> serviceB",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// The injected delay dominates the end-to-end latency split.
	if !strings.Contains(got, "injected 100.") {
		t.Fatalf("injected delay not attributed:\n%s", got)
	}

	// JSON and DOT formats render from the same dump.
	var jsonOut strings.Builder
	if err := runTrace([]string{"-file", dump, "-format", "json"}, &jsonOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonOut.String(), `"requestId": "test-trace-1"`) {
		t.Fatalf("json output:\n%s", jsonOut.String())
	}
	var dotOut strings.Builder
	if err := runTrace([]string{"-file", dump, "-format", "dot", "-obs-graph"}, &dotOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dotOut.String(), "digraph traces") ||
		!strings.Contains(dotOut.String(), "digraph app") {
		t.Fatalf("dot output:\n%s", dotOut.String())
	}
}

func TestTraceCLIFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := runTrace(nil, &out); err == nil {
		t.Fatal("no source should error")
	}
	if err := runTrace([]string{"-file", "x", "-store", "http://y"}, &out); err == nil {
		t.Fatal("both sources should error")
	}
	dump := filepath.Join(t.TempDir(), "missing.jsonl")
	if err := runTrace([]string{"-file", dump}, &out); err == nil {
		t.Fatal("missing file should error")
	}
}
