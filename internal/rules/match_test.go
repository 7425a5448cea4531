package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func msg(src, dst string, typ MessageType, id string) Message {
	return Message{Src: src, Dst: dst, Type: typ, RequestID: id}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(Rule{}); err == nil {
		t.Fatal("want error compiling empty rule")
	}
}

func TestCompiledRuleMatches(t *testing.T) {
	c, err := Compile(validAbort()) // serviceA -> serviceB, on request, pattern test-*
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		m    Message
		want bool
	}{
		{"exact match", msg("serviceA", "serviceB", OnRequest, "test-1"), true},
		{"long id", msg("serviceA", "serviceB", OnRequest, "test-abc-123"), true},
		{"wrong src", msg("serviceX", "serviceB", OnRequest, "test-1"), false},
		{"wrong dst", msg("serviceA", "serviceX", OnRequest, "test-1"), false},
		{"wrong direction", msg("serviceA", "serviceB", OnResponse, "test-1"), false},
		{"non-matching id", msg("serviceA", "serviceB", OnRequest, "prod-1"), false},
		{"empty id", msg("serviceA", "serviceB", OnRequest, ""), false},
		{"prefix only inside", msg("serviceA", "serviceB", OnRequest, "xtest-1"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.Matches(tt.m); got != tt.want {
				t.Fatalf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPatternForms(t *testing.T) {
	tests := []struct {
		pattern string
		id      string
		want    bool
	}{
		{"", "anything", true},
		{"*", "anything", true},
		{"test-?", "test-1", true},
		{"test-?", "test-12", false},
		{"re:^test-[0-9]+$", "test-42", true},
		{"re:^test-[0-9]+$", "test-4a", false},
		{"exact", "exact", true},
		{"exact", "exact2", false},
		{"a.b", "a.b", true},
		{"a.b", "axb", false}, // '.' must be literal in globs
	}
	for _, tt := range tests {
		t.Run(tt.pattern+"/"+tt.id, func(t *testing.T) {
			r := validAbort()
			r.Pattern = tt.pattern
			c, err := Compile(r)
			if err != nil {
				t.Fatal(err)
			}
			m := msg("serviceA", "serviceB", OnRequest, tt.id)
			if got := c.Matches(m); got != tt.want {
				t.Fatalf("pattern %q vs id %q = %v, want %v", tt.pattern, tt.id, got, tt.want)
			}
		})
	}
}

// dropRule removes one rule the way a control plane does: the installed
// set minus that rule, applied as the next generation under If-Match. It
// reports whether the rule was installed.
func dropRule(m *Matcher, id string) (bool, error) {
	set := m.RuleSet()
	n := len(set.Rules)
	kept := slices.DeleteFunc(set.Rules, func(r Rule) bool { return r.ID == id })
	if len(kept) == n {
		return false, nil
	}
	_, err := m.ApplyRuleSet(RuleSet{Generation: set.Generation + 1, Rules: kept}, set.Generation)
	return true, err
}

func TestMatcherInstallListRemoveClear(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	if err := m.Install(validAbort(), validDelay()); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if got := m.RuleSet().Rules; len(got) != 2 || got[0].ID != "r1" || got[1].ID != "r2" {
		t.Fatalf("RuleSet().Rules = %+v", got)
	}
	if ok, err := dropRule(m, "r1"); !ok || err != nil {
		t.Fatalf("dropRule(r1) = %v, %v", ok, err)
	}
	if ok, _ := dropRule(m, "r1"); ok {
		t.Fatal("second dropRule(r1) found the rule")
	}
	if n := m.Clear(); n != 1 {
		t.Fatalf("Clear = %d, want 1", n)
	}
	if m.Len() != 0 {
		t.Fatalf("Len after clear = %d", m.Len())
	}
}

func TestMatcherRejectsDuplicateIDs(t *testing.T) {
	m := NewMatcher(nil)
	if err := m.Install(validAbort()); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(validAbort()); err == nil {
		t.Fatal("want error installing duplicate ID")
	}
	a, b := validAbort(), validDelay()
	b.ID = a.ID
	m2 := NewMatcher(nil)
	if err := m2.Install(a, b); err == nil {
		t.Fatal("want error for duplicate IDs within batch")
	}
	if m2.Len() != 0 {
		t.Fatal("failed batch must not partially install")
	}
}

func TestMatcherRejectsInvalidBatchAtomically(t *testing.T) {
	m := NewMatcher(nil)
	bad := validDelay()
	bad.DelayMillis = 0
	if err := m.Install(validAbort(), bad); err == nil {
		t.Fatal("want error")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after failed install, want 0", m.Len())
	}
}

func TestDecideFirstMatchWins(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	r1 := validAbort()
	r2 := validAbort()
	r2.ID = "other"
	r2.ErrorCode = 404
	if err := m.Install(r1, r2); err != nil {
		t.Fatal(err)
	}
	d := m.Decide(msg("serviceA", "serviceB", OnRequest, "test-1"))
	if !d.Fired || !d.Matched {
		t.Fatalf("Decide = %+v, want fired", d)
	}
	if d.Rule.ID != "r1" {
		t.Fatalf("matched rule %q, want r1 (insertion order)", d.Rule.ID)
	}
}

func TestDecideNoMatch(t *testing.T) {
	m := NewMatcher(nil)
	if err := m.Install(validAbort()); err != nil {
		t.Fatal(err)
	}
	d := m.Decide(msg("serviceA", "serviceB", OnRequest, "prod-1"))
	if d.Matched || d.Fired {
		t.Fatalf("Decide = %+v, want no match", d)
	}
}

func TestDecideProbabilitySampling(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(42)))
	r := validAbort()
	r.Probability = 0.25
	if err := m.Install(r); err != nil {
		t.Fatal(err)
	}
	const n = 10000
	fired := 0
	for i := 0; i < n; i++ {
		d := m.Decide(msg("serviceA", "serviceB", OnRequest, "test-"+strconv.Itoa(i)))
		if !d.Matched {
			t.Fatal("expected match")
		}
		if d.Fired {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("fired fraction = %v, want ~0.25", frac)
	}
}

func TestDecideFallsThroughToLaterRule(t *testing.T) {
	// The Overload recipe installs Abort(p=0.25) then Delay(p=0.75); when the
	// abort does not fire the delay rule must still be considered.
	m := NewMatcher(rand.New(rand.NewSource(7)))
	abort := validAbort()
	abort.Probability = 0.25
	delay := validDelay()
	delay.Probability = 1 // fires whenever reached
	if err := m.Install(abort, delay); err != nil {
		t.Fatal(err)
	}
	counts := map[Action]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		d := m.Decide(msg("serviceA", "serviceB", OnRequest, "test-x"))
		if !d.Fired {
			t.Fatal("one of the two rules should always fire")
		}
		counts[d.Rule.Action]++
	}
	abortFrac := float64(counts[ActionAbort]) / n
	if abortFrac < 0.22 || abortFrac > 0.28 {
		t.Fatalf("abort fraction = %v, want ~0.25", abortFrac)
	}
	if counts[ActionDelay] != n-counts[ActionAbort] {
		t.Fatal("delay should absorb the remainder")
	}
}

func TestMatcherConcurrentDecide(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(3)))
	r := validAbort()
	r.Probability = 0.5
	if err := m.Install(r); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Decide(msg("serviceA", "serviceB", OnRequest, fmt.Sprintf("test-%d-%d", w, i)))
			}
		}(w)
	}
	// Concurrent mutation.
	for i := 0; i < 50; i++ {
		extra := validDelay()
		extra.ID = fmt.Sprintf("extra-%d", i)
		if err := m.Install(extra); err != nil {
			t.Fatal(err)
		}
		if _, err := dropRule(m, extra.ID); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestCompileArbitraryPatternsProperty(t *testing.T) {
	f := func(pat, id string) bool {
		r := validAbort()
		r.Pattern = pat
		c, err := Compile(r)
		if err != nil {
			// Only "re:" patterns may fail to compile.
			return len(pat) >= 3 && pat[:3] == "re:"
		}
		c.Matches(msg("serviceA", "serviceB", OnRequest, id)) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatcherDecide(t *testing.T) {
	m := NewMatcher(nil)
	d := m.Decide(msg("a", "b", OnRequest, "test-1"))
	if d.Matched || d.Fired {
		t.Fatalf("empty matcher Decide = %+v", d)
	}
}

func TestFastPathSkipsNonMatchingPrefixes(t *testing.T) {
	m := NewMatcher(nil)
	r := validAbort() // test-*
	if err := m.Install(r); err != nil {
		t.Fatal(err)
	}
	if d := m.Decide(msg("serviceA", "serviceB", OnRequest, "prod-1")); d.Matched {
		t.Fatal("prefix-rejected rule must not match")
	}
	if d := m.Decide(msg("serviceA", "serviceB", OnRequest, "test-1")); !d.Fired {
		t.Fatal("matching rule must still fire")
	}
}

func TestRuleStatsCountMatchesAndFires(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	certain := validAbort() // fires every match (probability defaults to 1)
	never := validDelay()
	never.Probability = 0.000001 // matches but essentially never fires
	if err := m.Install(certain, never); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		m.Decide(msg("serviceA", "serviceB", OnRequest, "test-1"))
	}
	m.Decide(msg("serviceX", "serviceB", OnRequest, "test-1")) // matches nothing

	stats := m.RuleStats()
	if len(stats) != 2 {
		t.Fatalf("got %d stats, want 2", len(stats))
	}
	if stats[0].ID != certain.ID || stats[0].Matched != 10 || stats[0].Fired != 10 {
		t.Fatalf("certain rule stats = %+v, want 10 matched, 10 fired", stats[0])
	}
	// The certain rule fires first, so the low-probability rule behind it
	// is never even visited.
	if stats[1].ID != never.ID || stats[1].Matched != 0 || stats[1].Fired != 0 {
		t.Fatalf("shadowed rule stats = %+v, want 0/0", stats[1])
	}
}

func TestRuleStatsSurviveRebuildsAndResetOnReinstall(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	keep := validAbort()
	if err := m.Install(keep); err != nil {
		t.Fatal(err)
	}
	m.Decide(msg("serviceA", "serviceB", OnRequest, "test-1"))

	// Installing another rule rebuilds the snapshot; keep's tally survives.
	other := validDelay()
	if err := m.Install(other); err != nil {
		t.Fatal(err)
	}
	if s := m.RuleStats(); s[0].Matched != 1 {
		t.Fatalf("matched = %d after rebuild, want 1", s[0].Matched)
	}
	// Removing an unrelated rule also preserves it.
	if _, err := dropRule(m, other.ID); err != nil {
		t.Fatal(err)
	}
	if s := m.RuleStats(); s[0].Matched != 1 {
		t.Fatalf("matched = %d after unrelated remove, want 1", s[0].Matched)
	}
	// Remove + reinstall starts over.
	if _, err := dropRule(m, keep.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(keep); err != nil {
		t.Fatal(err)
	}
	if s := m.RuleStats(); s[0].Matched != 0 {
		t.Fatalf("matched = %d after reinstall, want 0", s[0].Matched)
	}
}

func TestRuleStatsLinearScanCountsToo(t *testing.T) {
	m := NewMatcher(rand.New(rand.NewSource(1)))
	m.UseLinearScan(true)
	if err := m.Install(validAbort()); err != nil {
		t.Fatal(err)
	}
	m.Decide(msg("serviceA", "serviceB", OnRequest, "test-1"))
	if s := m.RuleStats(); s[0].Matched != 1 || s[0].Fired != 1 {
		t.Fatalf("linear-scan stats = %+v, want 1/1", s[0])
	}
}
