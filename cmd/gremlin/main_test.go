package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// gremlin runs one command line as main does, under a context that is
// never cancelled.
func gremlin(args ...string) error {
	return run(context.Background(), args)
}

func TestUnknownVerb(t *testing.T) {
	if err := gremlin("explode"); err == nil {
		t.Fatal("want error")
	}
	if err := gremlin(); err == nil {
		t.Fatal("want error for missing verb")
	}
	if err := gremlin("help"); err != nil {
		t.Fatalf("help: %v", err)
	}
}

// TestVerbInventory holds the command surface to one list: gremlin help
// prints exactly the verb table, every listed verb dispatches, README's
// command table names the same verbs in both directions, and cmd/ holds
// this one program.
func TestVerbInventory(t *testing.T) {
	var table []string
	for _, v := range verbs {
		table = append(table, v.name)
	}
	var help bytes.Buffer
	usage(&help)
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^  (\S+) `).FindAllStringSubmatch(help.String(), -1) {
		listed = append(listed, m[1])
	}
	if !slices.Equal(listed, table) {
		t.Fatalf("help lists %v, the verb table holds %v", listed, table)
	}

	// -h reaches the verb's own flag set, not the unknown-verb error.
	for _, name := range listed {
		if err := gremlin(name, "-h"); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("gremlin %s -h = %v, want flag.ErrHelp", name, err)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Commands\n")
	if !ok {
		t.Fatal(`README.md has no "## Commands" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `gremlin ") {
			continue
		}
		for _, m := range regexp.MustCompile("`gremlin ([a-z]+)`").FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}
	for _, name := range table {
		if !documented[name] {
			t.Errorf("verb %q has no row in README's command table", name)
		}
	}
	for name := range documented {
		if !slices.Contains(table, name) {
			t.Errorf("README's command table names %q, which is not a verb", name)
		}
	}

	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() || entries[0].Name() != "gremlin" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cmd/ holds %v, want the one directory gremlin", names)
	}
}

// waitUntil polls cond for up to five seconds and reports whether it held.
func waitUntil(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// checkNoGoroutinesLeft fails unless the goroutine count settles back
// within two of base.
func checkNoGoroutinesLeft(t *testing.T, base int) {
	t.Helper()
	if !waitUntil(func() bool { return runtime.NumGoroutine() <= base+2 }) {
		t.Fatalf("%d goroutines left behind (%d at start)", runtime.NumGoroutine()-base, base)
	}
}

func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveOnce runs a serve verb under a context that is already cancelled:
// it starts everything, shuts down at once, and returns what the whole
// lifecycle returned.
func serveOnce(args ...string) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return run(ctx, args)
}
