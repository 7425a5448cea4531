package main

import (
	"strings"
	"testing"
	"time"

	"gremlin/internal/registry"
	"gremlin/internal/telemetry"
)

func fixedSnapshot() telemetry.Snapshot {
	at := time.Date(2026, 8, 9, 12, 30, 45, 0, time.UTC)
	return telemetry.Snapshot{
		At:           at,
		WindowMillis: 5000,
		Services: []telemetry.ServiceStat{
			{Service: "web", Rate: 12.5, ErrorRatio: 0.25, P50Millis: 4.2, P99Millis: 151.0, HasLatency: true},
			{Service: "user", Rate: 3.0},
		},
		Active: []telemetry.Window{
			{Unit: "delay-web-db", Kind: "delay", Target: "web->db", Start: at.Add(-2 * time.Second)},
		},
		Recent: []telemetry.Window{
			{Unit: "abort-web-auth", Kind: "abort", Target: "web->auth", Status: "failed",
				Start: at.Add(-20 * time.Second), End: at.Add(-15 * time.Second)},
			{Unit: "delay-user-web", Kind: "delay", Target: "user->web", Status: "passed",
				Start: at.Add(-40 * time.Second), End: at.Add(-35 * time.Second)},
		},
		Scraper: telemetry.ScraperStats{
			Targets: []telemetry.TargetStats{{Name: "web"}, {Name: "user"}},
			Scrapes: 42, Errors: 1,
		},
	}
}

func TestRenderSnapshotPlain(t *testing.T) {
	out := renderSnapshot(fixedSnapshot(), true)
	for _, want := range []string{
		"gremlin top",
		"targets=2 scrapes=42 errors=1",
		"SERVICE",
		"P99(ms)",
		"web",
		"151.0",
		"25.0%",
		"ACTIVE FAULT WINDOWS",
		"delay-web-db",
		"RECENT WINDOWS",
		"abort-web-auth",
		"✕ VIOLATION",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Fatalf("plain frame contains ANSI escapes:\n%s", out)
	}
	// The service without latency data renders em dashes, not zeros.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "user") && !strings.Contains(line, "—") {
			t.Fatalf("latency-less service should show —: %q", line)
		}
	}
}

func TestRenderSnapshotANSIFlash(t *testing.T) {
	out := renderSnapshot(fixedSnapshot(), false)
	if !strings.Contains(out, "\x1b[7m") {
		t.Fatalf("failed window should flash in inverse video:\n%s", out)
	}
	// Passed windows never flash.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "delay-user-web") && strings.Contains(line, "\x1b[7m") {
			t.Fatalf("passed window should not flash: %q", line)
		}
	}
}

func TestFleetTargets(t *testing.T) {
	reg := registry.NewStatic(
		registry.Instance{Service: "web", Addr: "127.0.0.1:1", AgentControlURL: "http://127.0.0.1:9001"},
		registry.Instance{Service: "web", Addr: "127.0.0.1:2", AgentControlURL: "http://127.0.0.1:9002"},
		registry.Instance{Service: "db", Addr: "127.0.0.1:3"}, // no agent: skipped
	)
	targets, err := telemetry.FleetTargets(reg, "http://127.0.0.1:9100/")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, tg := range targets {
		got[tg.Name] = tg.URL
	}
	if len(targets) != 3 {
		t.Fatalf("want 3 targets, got %v", got)
	}
	if got["web"] != "http://127.0.0.1:9001/metrics" || got["web-2"] != "http://127.0.0.1:9002/metrics" {
		t.Fatalf("agent targets wrong: %v", got)
	}
	if got["store"] != "http://127.0.0.1:9100/metrics" {
		t.Fatalf("store target wrong: %v", got)
	}
}

func TestTopFlagValidation(t *testing.T) {
	if err := gremlin("top"); err == nil {
		t.Fatal("want error when neither -attach nor -registry given")
	}
	if err := gremlin("top", "-attach", "x", "-registry", "y"); err == nil {
		t.Fatal("want error when both modes given")
	}
	if err := gremlin("top", "-attach", "x", "-format", "html"); err == nil {
		t.Fatal("want error: html report needs scrape mode")
	}
	if err := gremlin("top", "-attach", "x", "-format", "csv"); err == nil {
		t.Fatal("want error for unknown format")
	}
}
