package pattern

import (
	"testing"
	"testing/quick"
)

func TestCompileAndMatch(t *testing.T) {
	tests := []struct {
		pattern string
		id      string
		want    bool
	}{
		{"", "anything", true},
		{"", "", true},
		{"*", "anything", true},
		{"test-*", "test-1", true},
		{"test-*", "test-", true},
		{"test-*", "prod-1", false},
		{"test-*", "xtest-1", false},
		{"test-?", "test-a", true},
		{"test-?", "test-ab", false},
		{"re:^t[0-9]+$", "t123", true},
		{"re:^t[0-9]+$", "t12a", false},
		{"lit.eral", "lit.eral", true},
		{"lit.eral", "litXeral", false},
		{"a+b", "a+b", true},
		{"a+b", "aab", false},
	}
	for _, tt := range tests {
		p, err := Compile(tt.pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tt.pattern, err)
		}
		if got := p.Match(tt.id); got != tt.want {
			t.Errorf("Match(%q, %q) = %v, want %v", tt.pattern, tt.id, got, tt.want)
		}
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("re:["); err == nil {
		t.Fatal("want error for bad regexp")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile should panic on bad pattern")
		}
	}()
	MustCompile("re:[")
}

func TestMatchAll(t *testing.T) {
	if !MustCompile("").MatchAll() || !MustCompile("*").MatchAll() {
		t.Fatal("empty and * should match all")
	}
	if MustCompile("test-*").MatchAll() {
		t.Fatal("test-* should not match all")
	}
}

func TestZeroValueMatchesAll(t *testing.T) {
	var p Pattern
	if !p.Match("x") || !p.MatchAll() {
		t.Fatal("zero value should match everything")
	}
}

func TestString(t *testing.T) {
	if got := MustCompile("test-*").String(); got != "test-*" {
		t.Fatalf("String = %q", got)
	}
}

// Property: a glob consisting only of literal characters matches exactly
// itself.
func TestLiteralGlobMatchesSelfProperty(t *testing.T) {
	f := func(s string) bool {
		for _, r := range s {
			if r == '*' || r == '?' {
				return true // skip non-literal inputs
			}
		}
		if s == "" {
			return true
		}
		p, err := Compile(s)
		if err != nil {
			return false
		}
		return p.Match(s) && !p.Match(s+"x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLiteralPrefix(t *testing.T) {
	tests := []struct {
		pattern string
		want    string
	}{
		{"", ""},
		{"*", ""},
		{"test-*", "test-"},
		{"test-?", "test-"},
		{"exact", "exact"},
		{"*-suffix", ""},
		{"re:^test-[0-9]+$", "test-"},
		{"re:[0-9]+", ""},
		// regexp's own LiteralPrefix is a prefix of every match, not of
		// every matching ID: only an anchored expression has an ID prefix.
		{"re:camp-x-", ""},
		{"re:^camp-x-", "camp-x-"},
		{"re:(?m)^camp-x-", ""},
		{"re:^camp-x-|camp-x-", ""},
	}
	for _, tt := range tests {
		p, err := Compile(tt.pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tt.pattern, err)
		}
		if got := p.LiteralPrefix(); got != tt.want {
			t.Errorf("LiteralPrefix(%q) = %q, want %q", tt.pattern, got, tt.want)
		}
	}
}

// Property: any ID matched by the pattern carries its literal prefix.
func TestLiteralPrefixSoundProperty(t *testing.T) {
	f := func(pat, id string) bool {
		p, err := Compile(pat)
		if err != nil {
			return true
		}
		if !p.Match(id) {
			return true
		}
		prefix := p.LiteralPrefix()
		return prefix == "" || len(id) >= len(prefix) && id[:len(prefix)] == prefix
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Campaign namespaces ("camp-<run>-*") are compiled on every store query
// and clear; a prefix glob must not build a regexp to do that.
func TestCompilePrefixGlobAllocs(t *testing.T) {
	var p Pattern
	allocs := testing.AllocsPerRun(100, func() { p = MustCompile("camp-x-*") })
	if allocs > 1 {
		t.Fatalf("Compile of a prefix glob made %.0f allocations, want at most 1", allocs)
	}
	if !p.Match("camp-x-7") || p.Match("camp-y-7") || p.MatchAll() || p.LiteralPrefix() != "camp-x-" {
		t.Fatalf("prefix glob misbehaves: %+v", p)
	}
}
