package rules

import (
	"errors"
	"testing"
)

func rsRule(id string, delay int64) Rule {
	return Rule{ID: id, Src: "a", Dst: "b", Action: ActionDelay, Pattern: "test-*", DelayMillis: delay}
}

func TestRuleSetHashDeterministic(t *testing.T) {
	a := RuleSet{Generation: 1, Rules: []Rule{rsRule("r1", 10), rsRule("r2", 20)}}
	b := RuleSet{Generation: 99, Rules: []Rule{rsRule("r2", 20), rsRule("r1", 10)}}
	if a.Hash() != b.Hash() {
		t.Fatalf("hash should ignore order and generation: %s != %s", a.Hash(), b.Hash())
	}
	c := RuleSet{Rules: []Rule{rsRule("r1", 10), rsRule("r2", 21)}}
	if a.Hash() == c.Hash() {
		t.Fatal("hash should change with content")
	}
	if string(a.Canonical()) != string(b.Canonical()) {
		t.Fatal("canonical serialization should be order-independent")
	}
	empty := RuleSet{}
	if empty.Hash() == a.Hash() || empty.Hash() == "" {
		t.Fatalf("empty hash = %q", empty.Hash())
	}
}

func TestRuleSetValidate(t *testing.T) {
	if err := (RuleSet{TTLMillis: -1}).Validate(); err == nil {
		t.Fatal("negative TTL should be rejected")
	}
	bad := rsRule("r1", 0) // delay rule without interval
	if err := (RuleSet{Rules: []Rule{bad}}).Validate(); err == nil {
		t.Fatal("invalid rule should be rejected")
	}
	dup := RuleSet{Rules: []Rule{rsRule("r1", 10), rsRule("r1", 20)}}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate IDs should be rejected")
	}
}

func TestApplyRuleSetSwapAndIdempotence(t *testing.T) {
	m := NewMatcher(nil)
	set := RuleSet{Generation: 3, Rules: []Rule{rsRule("r1", 10), rsRule("r2", 20)}}

	st, err := m.ApplyRuleSet(set, NoMatch)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Changed || st.Generation != 3 || st.Rules != 2 || st.Hash != set.Hash() {
		t.Fatalf("first apply status = %+v", st)
	}
	rebuilds := m.Rebuilds()

	// Drive traffic so counters have state to preserve.
	d := m.Decide(Message{Src: "a", Dst: "b", Type: OnRequest, RequestID: "test-1"})
	if !d.Fired {
		t.Fatal("rule should fire")
	}

	// Applying the identical generation again is a no-op: no swap, no
	// rebuild, counters intact.
	st2, err := m.ApplyRuleSet(set, NoMatch)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Changed || st2.Generation != 3 {
		t.Fatalf("idempotent re-apply status = %+v", st2)
	}
	if m.Rebuilds() != rebuilds {
		t.Fatalf("re-apply rebuilt the matcher: %d -> %d", rebuilds, m.Rebuilds())
	}
	stats := m.RuleStats()
	if len(stats) != 2 || stats[0].Fired+stats[1].Fired != 1 {
		t.Fatalf("counters lost on re-apply: %+v", stats)
	}

	// A higher generation with identical content adopts the generation
	// without a rebuild and without touching counters.
	st3, err := m.ApplyRuleSet(RuleSet{Generation: 7, Rules: set.Rules}, NoMatch)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Changed || st3.Generation != 7 || m.Rebuilds() != rebuilds {
		t.Fatalf("same-content upgrade status = %+v rebuilds=%d", st3, m.Rebuilds())
	}
	if stats := m.RuleStats(); stats[0].Fired+stats[1].Fired != 1 {
		t.Fatalf("counters lost on generation adoption: %+v", stats)
	}

	// New content swaps atomically, carrying counters for surviving IDs.
	st4, err := m.ApplyRuleSet(RuleSet{Generation: 8, Rules: []Rule{rsRule("r1", 10)}}, NoMatch)
	if err != nil {
		t.Fatal(err)
	}
	if !st4.Changed || st4.Rules != 1 || m.Rebuilds() != rebuilds+1 {
		t.Fatalf("content swap status = %+v rebuilds=%d", st4, m.Rebuilds())
	}
}

func TestApplyRuleSetOrdering(t *testing.T) {
	m := NewMatcher(nil)
	if _, err := m.ApplyRuleSet(RuleSet{Generation: 5, Rules: []Rule{rsRule("r1", 10)}}, NoMatch); err != nil {
		t.Fatal(err)
	}

	// Older generation: rejected as stale.
	_, err := m.ApplyRuleSet(RuleSet{Generation: 4, Rules: nil}, NoMatch)
	if !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("want ErrStaleGeneration, got %v", err)
	}

	// Same generation, different content: split-brain conflict.
	_, err = m.ApplyRuleSet(RuleSet{Generation: 5, Rules: []Rule{rsRule("r9", 10)}}, NoMatch)
	if !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("want ErrGenerationConflict, got %v", err)
	}

	// If-Match CAS: wrong precondition fails...
	_, err = m.ApplyRuleSet(RuleSet{Generation: 2, Rules: nil}, 4)
	if !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("want ErrPreconditionFailed, got %v", err)
	}
	// ...and a correct one wins even with a lower generation (a new
	// control plane taking over an agent it has observed).
	st, err := m.ApplyRuleSet(RuleSet{Generation: 2, Rules: nil}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Changed || st.Generation != 2 || st.Rules != 0 {
		t.Fatalf("takeover status = %+v", st)
	}
}

func TestImperativeOpsBumpGeneration(t *testing.T) {
	m := NewMatcher(nil)
	if g := m.Generation(); g != 0 {
		t.Fatalf("fresh matcher generation = %d", g)
	}
	emptyHash := m.Hash()
	if emptyHash == "" {
		t.Fatal("fresh matcher should have a content hash")
	}

	if err := m.Install(rsRule("r1", 10)); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(); g != 1 {
		t.Fatalf("generation after install = %d", g)
	}
	if m.Hash() == emptyHash {
		t.Fatal("hash should change with content")
	}
	if ok, err := dropRule(m, "r1"); !ok || err != nil {
		t.Fatalf("remove: found=%v err=%v", ok, err)
	}
	if g := m.Generation(); g != 2 {
		t.Fatalf("generation after remove = %d", g)
	}
	if m.Hash() != emptyHash {
		t.Fatal("hash should return to the empty hash")
	}
	_ = m.Install(rsRule("r2", 10))
	m.Clear()
	if g := m.Generation(); g != 4 {
		t.Fatalf("generation after clear = %d", g)
	}

	set := m.RuleSet()
	if set.Generation != 4 || len(set.Rules) != 0 {
		t.Fatalf("RuleSet() = %+v", set)
	}
}
