package trace

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

func TestEIAppendAndParse(t *testing.T) {
	ei, trunc := AppendEI("", "serviceA", 0)
	if ei != "serviceA#0" || trunc {
		t.Fatalf("root append = %q/%v", ei, trunc)
	}
	ei, trunc = AppendEI(ei, "serviceB", 2)
	if ei != "serviceA#0/serviceB#2" || trunc {
		t.Fatalf("second append = %q/%v", ei, trunc)
	}
	frames, truncated := ParseEI(ei)
	if truncated || len(frames) != 2 ||
		frames[0] != (EIFrame{"serviceA", 0}) || frames[1] != (EIFrame{"serviceB", 2}) {
		t.Fatalf("parse = %+v truncated=%v", frames, truncated)
	}
}

func TestEIDepthBound(t *testing.T) {
	ei := ""
	truncations := 0
	for i := 0; i < MaxEIFrames+5; i++ {
		var trunc bool
		ei, trunc = AppendEI(ei, "svc", i)
		if trunc {
			truncations++
		}
	}
	if truncations != 5 {
		t.Fatalf("truncations = %d, want 5", truncations)
	}
	if !strings.HasSuffix(ei, "/"+EITruncationMarker) {
		t.Fatalf("deep EI not marker-terminated: %q", ei)
	}
	frames, truncated := ParseEI(ei)
	if !truncated || len(frames) != MaxEIFrames {
		t.Fatalf("parse of truncated EI = %d frames, truncated=%v", len(frames), truncated)
	}
	// Once truncated, the index never grows again.
	again, trunc := AppendEI(ei, "svc", 99)
	if !trunc || again != ei {
		t.Fatalf("append past marker changed index: %q -> %q", ei, again)
	}
}

func TestEIByteBound(t *testing.T) {
	long := strings.Repeat("x", 200)
	ei := ""
	truncated := false
	for i := 0; i < 10 && !truncated; i++ {
		ei, truncated = AppendEI(ei, long, i)
	}
	if !truncated {
		t.Fatal("200-byte service names never hit the byte bound")
	}
	if len(ei) > MaxEIBytes {
		t.Fatalf("truncated EI is %d bytes, above the %d cap", len(ei), MaxEIBytes)
	}
	if !strings.HasSuffix(ei, EITruncationMarker) {
		t.Fatalf("byte-bounded EI not marker-terminated: %q", ei)
	}
}

func TestEIMalformedFramesDropped(t *testing.T) {
	cases := map[string]string{
		"a#0/garbage/b#1": "a#0/b#1", // no separator
		"a#0/#3/b#1":      "a#0/b#1", // empty service
		"a#0/b#x":         "a#0",     // non-numeric ordinal
		"a#0/b#-2":        "a#0",     // negative ordinal
		"a#0/…/b#9":       "a#0/…",   // frames after marker dropped
		"…":               "…",       // bare marker
		"":                "",        // empty
		"svc#1#2":         "svc#1#2", // split at the last '#': service "svc#1", ordinal 2
	}
	for in, want := range cases {
		if got := CanonicalEI(in); got != want {
			t.Errorf("CanonicalEI(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestEIRoundTripProperty is the property-style encode/canonicalize/decode
// test: for randomly generated frame lists (seeded, reproducible),
// FormatEI → ParseEI is the identity, CanonicalEI is idempotent, and
// AppendEI never exceeds the byte bound.
func TestEIRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	services := []string{"a", "api", "checkout-v2", "db_replica", "s.name", "x"}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(MaxEIFrames + 4)
		frames := make([]EIFrame, n)
		for i := range frames {
			frames[i] = EIFrame{
				Service: services[rng.Intn(len(services))],
				Ordinal: rng.Intn(1000),
			}
		}
		truncated := rng.Intn(4) == 0
		wire := FormatEI(frames, truncated)

		back, backTrunc := ParseEI(wire)
		if backTrunc != truncated {
			t.Fatalf("trial %d: truncated %v -> %v (wire %q)", trial, truncated, backTrunc, wire)
		}
		if len(back) != len(frames) {
			t.Fatalf("trial %d: %d frames -> %d (wire %q)", trial, len(frames), len(back), wire)
		}
		for i := range frames {
			if back[i] != frames[i] {
				t.Fatalf("trial %d frame %d: %+v -> %+v", trial, i, frames[i], back[i])
			}
		}
		if c := CanonicalEI(wire); c != wire {
			t.Fatalf("trial %d: canonical of well-formed wire changed it: %q -> %q", trial, wire, c)
		}
		if c := CanonicalEI(CanonicalEI(wire)); c != CanonicalEI(wire) {
			t.Fatalf("trial %d: CanonicalEI not idempotent on %q", trial, wire)
		}

		// Appending respects both bounds regardless of starting state.
		out, _ := AppendEI(wire, services[rng.Intn(len(services))], rng.Intn(10))
		if len(out) > MaxEIBytes {
			t.Fatalf("trial %d: AppendEI produced %d bytes", trial, len(out))
		}
		if f, _ := ParseEI(out); len(f) > MaxEIFrames {
			t.Fatalf("trial %d: AppendEI produced %d frames", trial, len(f))
		}
	}
}

func TestPropagateRelaysEI(t *testing.T) {
	in, _ := http.NewRequest("GET", "http://a/", nil)
	SetRequestID(in, "test-1")
	SetSpan(in, "sp-1", "sp-0")
	SetEI(in, "a#0/b#1")
	out, _ := http.NewRequest("GET", "http://b/", nil)
	out.Header.Set(HeaderEI, "stale#9") // must be overwritten, not merged
	if id := Propagate(in, out); id != "test-1" {
		t.Fatalf("propagated id = %q", id)
	}
	if got := EIFromRequest(out); got != "a#0/b#1" {
		t.Fatalf("outbound EI = %q", got)
	}
	// An EI-less inbound request clears any stale outbound header.
	bare, _ := http.NewRequest("GET", "http://a/", nil)
	Propagate(bare, out)
	if got := EIFromRequest(out); got != "" {
		t.Fatalf("outbound EI after bare propagate = %q", got)
	}
}

func TestEIFrameString(t *testing.T) {
	for i := 0; i < 3; i++ {
		f := EIFrame{Service: "svc", Ordinal: i}
		want := fmt.Sprintf("svc#%d", i)
		if f.String() != want {
			t.Fatalf("frame = %q, want %q", f.String(), want)
		}
	}
}
