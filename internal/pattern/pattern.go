// Package pattern implements the request-ID pattern language shared by
// fault-injection rules and event-log queries: glob syntax ('*' matches any
// run of characters, '?' exactly one) or, with the "re:" prefix, a Go
// regular expression. The empty pattern and "*" match everything.
package pattern

import (
	"fmt"
	"regexp"
	"regexp/syntax"
	"strings"
	"unicode/utf8"
)

// Pattern is a compiled request-ID pattern. The zero value matches
// everything.
type Pattern struct {
	src string
	re  *regexp.Regexp // nil for match-all and for prefixOnly patterns

	// anchored marks "re:" patterns whose every match starts at the
	// beginning of the ID, so that the regexp's literal prefix (a prefix
	// of every *match*) is a prefix of every matching ID.
	anchored bool

	// prefixOnly marks globs of the form "literal*", whose match is a bare
	// prefix comparison — the dominant shape in recipes ("test-*") and
	// campaign namespaces ("camp-<run>-*"), and far cheaper than the regexp
	// engine both to match and to compile: no regexp is built for them.
	// This is the "structured (e.g., prefix-based) request IDs" optimization
	// the paper suggests for reducing rule-matching overhead (§7.2).
	prefixOnly bool
	prefix     string
}

// Compile parses a pattern string.
func Compile(s string) (Pattern, error) {
	if s == "" || s == "*" {
		return Pattern{src: s}, nil
	}
	if raw, ok := strings.CutPrefix(s, "re:"); ok {
		re, err := regexp.Compile(raw)
		if err != nil {
			return Pattern{}, fmt.Errorf("pattern: compile regexp %q: %w", raw, err)
		}
		return Pattern{src: s, re: re, anchored: anchoredAtStart(raw)}, nil
	}
	// "literal*" (sole wildcard: one trailing '*') is a pure prefix match.
	// Invalid UTF-8 compiles to U+FFFD below, so the byte-prefix shortcut
	// would diverge from the regex; keep such patterns on the engine.
	if i := strings.IndexAny(s, "*?"); i == len(s)-1 && s[i] == '*' && utf8.ValidString(s[:i]) {
		return Pattern{src: s, prefixOnly: true, prefix: s[:i]}, nil
	}
	var b strings.Builder
	b.WriteString("^")
	for _, r := range s {
		switch r {
		case '*':
			b.WriteString(".*")
		case '?':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return Pattern{}, fmt.Errorf("pattern: compile glob %q: %w", s, err)
	}
	return Pattern{src: s, re: re}, nil
}

// MustCompile is Compile that panics on error, for statically known
// patterns.
func MustCompile(s string) Pattern {
	p, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Match reports whether the ID satisfies the pattern.
func (p Pattern) Match(id string) bool {
	if p.prefixOnly {
		return strings.HasPrefix(id, p.prefix)
	}
	if p.re == nil {
		return true
	}
	return p.re.MatchString(id)
}

// LiteralPrefix returns a literal string that every matching ID must start
// with ("" when no useful prefix exists). The event store uses it to pin a
// query to the one namespace, and so the one shard, its IDs can lie in.
func (p Pattern) LiteralPrefix() string {
	if p.prefixOnly {
		return p.prefix
	}
	if p.re == nil {
		return ""
	}
	if strings.HasPrefix(p.src, "re:") {
		if !p.anchored {
			return "" // "re:camp-x-" also matches "zzcamp-x-1"
		}
		prefix, _ := p.re.LiteralPrefix()
		return prefix
	}
	// Glob: the literal run before the first wildcard.
	prefix := p.src
	if i := strings.IndexAny(p.src, "*?"); i >= 0 {
		prefix = p.src[:i]
	}
	// Globs compile rune-by-rune, so invalid UTF-8 becomes U+FFFD in the
	// regex and matches *any* invalid byte — the raw byte prefix would be
	// unsound as a pre-filter. Report no prefix for such patterns.
	if !utf8.ValidString(prefix) {
		return ""
	}
	return prefix
}

// anchoredAtStart reports whether the regular expression expr opens with
// '^' outside multi-line mode, so that every match begins at the start of
// the text. Other anchored shapes (groups, alternations) answer false,
// which only costs them the prefix.
func anchoredAtStart(expr string) bool {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return false
	}
	for re.Op == syntax.OpConcat && len(re.Sub) > 0 {
		re = re.Sub[0]
	}
	return re.Op == syntax.OpBeginText
}

// MatchAll reports whether the pattern matches every ID.
func (p Pattern) MatchAll() bool { return p.re == nil && !p.prefixOnly }

// String returns the original pattern source.
func (p Pattern) String() string { return p.src }
