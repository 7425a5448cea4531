package gremlin_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runnableExamples is every example program TestExamplesRun executes end
// to end. exemptExamples lists programs deliberately not run here, with
// the reason; everything else under examples/ must appear in one of the
// two (TestEveryExampleRegistered enforces it).
var runnableExamples = []string{
	"./examples/quickstart",
	"./examples/campaign",
	"./examples/enterprise",
	"./examples/explore",
	"./examples/fleet",
	"./examples/l4",
	"./examples/outages",
	"./examples/pubsub",
	"./examples/shadow",
	"./examples/storecrash",
	"./examples/telemetry",
	"./examples/tracing",
	"./examples/watch",
}

var exemptExamples = map[string]string{
	"wordpress": "its Figures 5 and 6 take ~60 s at a tenth of the paper's delays; TestFigure5Shape and TestFigure6Shape run the same experiments at test scale",
}

// TestExamplesRun executes each example program end to end and requires a
// clean exit — the examples are living documentation and must not rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn full topologies; skipped with -short")
	}
	for _, dir := range runnableExamples {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", dir)
			cmd.Dir = "."
			done := make(chan error, 1)
			var out []byte
			go func() {
				var err error
				out, err = cmd.CombinedOutput()
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s failed: %v\n%s", dir, err, out)
				}
			case <-time.After(3 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatalf("%s timed out", dir)
			}
		})
	}
}

// TestEveryExampleRegistered walks examples/ and fails when a directory
// holding a Go program is neither executed by TestExamplesRun nor
// explicitly exempted — new examples can't silently dodge CI.
func TestEveryExampleRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, dir := range runnableExamples {
		name := filepath.Base(dir)
		registered[name] = true
		if _, err := os.Stat(filepath.Join("examples", name)); err != nil {
			t.Errorf("registered example %s does not exist: %v", dir, err)
		}
	}
	for name := range exemptExamples {
		if registered[name] {
			t.Errorf("example %s is both runnable and exempt", name)
		}
	}

	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join("examples", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hasGo := false
		for _, f := range files {
			if strings.HasSuffix(f.Name(), ".go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			continue // data-only directories (e.g. recipe files) need no runner
		}
		if _, exempt := exemptExamples[e.Name()]; exempt || registered[e.Name()] {
			continue
		}
		t.Errorf("examples/%s is not registered in runnableExamples (or exemptExamples with a reason)", e.Name())
	}
}
