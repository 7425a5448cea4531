package main

import (
	"testing"
)

func TestDemoUnknownTopology(t *testing.T) {
	if err := gremlin("demo", "-topology", "mystery"); err == nil {
		t.Fatal("want error for unknown topology")
	}
}

func TestDemoBadFlags(t *testing.T) {
	if err := gremlin("demo", "-depth"); err == nil {
		t.Fatal("want flag error")
	}
}

func TestDemoEachTopologyLifecycle(t *testing.T) {
	for _, topo := range []string{"twoservices", "wordpress", "enterprise", "messagebus", "tree"} {
		t.Run(topo, func(t *testing.T) {
			if err := serveOnce("demo", "-topology", topo, "-depth", "1", "-store-addr", "127.0.0.1:0"); err != nil {
				t.Fatalf("run(%s): %v", topo, err)
			}
		})
	}
}

func TestIndent(t *testing.T) {
	got := indent("a\nb\n", "  ")
	if got != "  a\n  b\n" {
		t.Fatalf("indent = %q", got)
	}
	if got := indent("tail", "> "); got != "> tail" {
		t.Fatalf("indent without trailing newline = %q", got)
	}
}
