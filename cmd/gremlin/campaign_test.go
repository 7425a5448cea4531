package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/eventlog"
	"gremlin/internal/registry"
	"gremlin/internal/topology"
)

func TestCampaignRequiredFlags(t *testing.T) {
	if err := gremlin("campaign"); err == nil {
		t.Fatal("missing flags should fail")
	}
	if err := gremlin("campaign", "-graph", "g.json"); err == nil {
		t.Fatal("missing -registry/-store/-load-url should fail")
	}
}

// TestLiveAssertsRejectsBadSpec checks that a misspelled bound in the
// -live-asserts file fails the command before any input is read or the
// store is contacted.
func TestLiveAssertsRejectsBadSpec(t *testing.T) {
	specs := filepath.Join(t.TempDir(), "live.json")
	if err := os.WriteFile(specs, []byte(`[{"type": "checkStatus", "status": -1, "maximum": 0}]`), 0o600); err != nil {
		t.Fatal(err)
	}
	err := gremlin("campaign", "-live-asserts", specs, "-graph", "missing.json", "-registry", "missing.json",
		"-store", "http://127.0.0.1:1", "-load-url", "http://127.0.0.1:1")
	if err == nil || !strings.Contains(err.Error(), `unknown field "maximum"`) {
		t.Fatalf("err = %v, want the misspelled field rejected", err)
	}
}

// TestEndToEndCampaignAgainstLiveTopology sweeps a live two-service app
// through the CLI: the campaign settles every unit, writes the journal and
// both scorecard renderings, and reports assertion failures (TwoServices
// has no circuit breaker, so the crash unit fails) as a non-nil error. A
// second invocation with the same journal resumes without re-running
// anything.
func TestEndToEndCampaignAgainstLiveTopology(t *testing.T) {
	spec := topology.TwoServices(3, time.Millisecond)
	spec.RNG = rand.New(rand.NewSource(1))
	app, err := topology.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := app.Close(); err != nil {
			t.Error(err)
		}
	}()
	storeServer, err := eventlog.NewServer("127.0.0.1:0", app.Store)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := storeServer.Close(); err != nil {
			t.Error(err)
		}
	}()

	dir := t.TempDir()
	graphPath := writeJSON(t, dir, "graph.json", app.Graph.Edges())
	var instances []registry.Instance
	services, err := app.Registry.Services()
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range services {
		ins, err := app.Registry.Instances(svc)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins...)
	}
	registryPath := writeJSON(t, dir, "registry.json", instances)

	journal := filepath.Join(dir, "journal.jsonl")
	outJSON := filepath.Join(dir, "scorecard.json")
	outMD := filepath.Join(dir, "scorecard.md")
	args := []string{"campaign",
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "4",
		"-parallelism", "3",
		"-journal", journal,
		"-out", outJSON,
		"-markdown", outMD,
		"-id", "cli",
	}

	err = gremlin(args...)
	// serviceB's dependent serviceA has bounded retries but no breaker, so
	// the crash unit fails its assertions: the CLI exits non-zero.
	if err == nil || !strings.Contains(err.Error(), "failed assertions") {
		t.Fatalf("err = %v, want assertion failures reported", err)
	}

	var sc campaign.Scorecard
	raw, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Errors != 0 {
		t.Fatalf("operational errors: %+v", sc.ErrorUnits)
	}
	if sc.Units == 0 || sc.Executed == 0 || sc.Failed == 0 {
		t.Fatalf("scorecard = %+v", sc)
	}
	if !sc.Covered() {
		t.Fatalf("campaign left edges untested: %+v", sc.Edges)
	}
	md, err := os.ReadFile(outMD)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "## Edges") {
		t.Fatalf("markdown scorecard:\n%s", md)
	}
	entries, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != sc.Units {
		t.Fatalf("journal has %d entries, scorecard settled %d", len(entries), sc.Units)
	}

	// Resume: every unit is already settled, so the second invocation
	// re-reports the verdicts without executing anything new.
	err = gremlin(args...)
	if err == nil || !strings.Contains(err.Error(), "failed assertions") {
		t.Fatalf("resumed err = %v", err)
	}
	after, err := campaign.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(entries) {
		t.Fatalf("resume appended %d entries", len(after)-len(entries))
	}

	// A separate campaign with a live bound on failure replies
	// (-live-asserts) tails the store over SSE. Whether the stream catches
	// a violation before a unit settles is timing-dependent, so this checks
	// the wiring settles every unit cleanly and that a journalled live
	// violation always fails its unit; TestCampaignLiveViolationAbortsLoad
	// covers the abort itself.
	liveJournal := filepath.Join(dir, "live-journal.jsonl")
	liveOut := filepath.Join(dir, "live-scorecard.json")
	err = gremlin("campaign",
		"-live-asserts", writeJSON(t, dir, "live.json", []checker.Spec{{Type: "checkStatus", Status: -1}}),
		"-graph", graphPath,
		"-registry", registryPath,
		"-store", storeServer.URL(),
		"-load-url", app.EntryURL(),
		"-requests", "4",
		"-parallelism", "3",
		"-templates", "crash",
		"-journal", liveJournal,
		"-out", liveOut,
		"-markdown", filepath.Join(dir, "live-scorecard.md"),
		"-id", "cli-live",
	)
	if err == nil || !strings.Contains(err.Error(), "failed assertions") {
		t.Fatalf("live err = %v, want assertion failures reported", err)
	}
	var liveSC campaign.Scorecard
	raw, err = os.ReadFile(liveOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &liveSC); err != nil {
		t.Fatal(err)
	}
	if liveSC.Errors != 0 || liveSC.Executed == 0 {
		t.Fatalf("live scorecard = %+v", liveSC)
	}
	liveEntries, err := campaign.LoadJournal(liveJournal)
	if err != nil {
		t.Fatal(err)
	}
	if len(liveEntries) != liveSC.Units {
		t.Fatalf("live journal has %d entries, scorecard settled %d", len(liveEntries), liveSC.Units)
	}
	for _, e := range liveEntries {
		if e.LiveViolation != "" && e.Status != campaign.StatusFailed {
			t.Fatalf("unit %s journalled live violation %q but status %q", e.Unit, e.LiveViolation, e.Status)
		}
	}
}
