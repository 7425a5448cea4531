package pattern

import "testing"

// FuzzCompile drives the pattern compiler with arbitrary inputs: it must
// never panic, and any pattern that compiles must be safely matchable.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{"", "*", "test-*", "test-?", "re:^a+$", "re:[", "a.b", "αβ*", "re:(?P<x>y)"} {
		f.Add(seed, "test-123")
	}
	f.Add("re:test-", "xtest-1") // unanchored: the match starts mid-ID
	f.Fuzz(func(t *testing.T, pat, id string) {
		p, err := Compile(pat)
		if err != nil {
			if len(pat) < 3 || pat[:3] != "re:" {
				t.Fatalf("non-regex pattern %q failed to compile: %v", pat, err)
			}
			return
		}
		matched := p.Match(id)
		// The literal prefix must be sound: a matching ID carries it.
		if prefix := p.LiteralPrefix(); matched && prefix != "" {
			if len(id) < len(prefix) || id[:len(prefix)] != prefix {
				t.Fatalf("pattern %q matched %q but LiteralPrefix %q is unsound", pat, id, prefix)
			}
		}
	})
}
