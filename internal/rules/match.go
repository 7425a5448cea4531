package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"gremlin/internal/pattern"
)

// Message describes one intercepted message, as seen by a Gremlin agent,
// for the purpose of rule matching.
type Message struct {
	// Src and Dst are the logical service names of the caller and callee.
	Src, Dst string
	// Type is the message direction: request or response.
	Type MessageType
	// RequestID is the flow ID propagated in the message headers. Empty
	// when the caller did not stamp one. L4 messages carry the relay's
	// connection ID here.
	RequestID string
	// CallPath is the execution index of this hop (canonical X-Gremlin-EI
	// wire form): the causal call path from the system edge down to and
	// including this call. Empty when the data plane does not compute
	// indices (L4 connections, pre-EI agents). Rules with a CallPath
	// criterion match by exact string equality.
	CallPath string
	// Layer is the data plane the message was observed on. Empty means
	// LayerHTTP, matching pre-L4 callers.
	Layer Layer
}

// layer returns the message's layer with the empty value normalized to
// LayerHTTP.
func (m Message) layer() Layer {
	if m.Layer == "" {
		return LayerHTTP
	}
	return m.Layer
}

// CompiledRule is a Rule with its request-ID pattern compiled for matching.
type CompiledRule struct {
	Rule

	pat pattern.Pattern
}

// Compile validates the rule and compiles its pattern.
func Compile(r Rule) (CompiledRule, error) {
	if err := r.Validate(); err != nil {
		return CompiledRule{}, err
	}
	p, err := pattern.Compile(r.Pattern)
	if err != nil {
		return CompiledRule{}, err
	}
	return CompiledRule{Rule: r, pat: p}, nil
}

// Matches reports whether the message satisfies the rule's criteria
// (source, destination, direction, and request-ID pattern). It does not
// sample the probability; see Matcher.Decide.
func (c CompiledRule) Matches(m Message) bool {
	if c.Src != m.Src || c.Dst != m.Dst {
		return false
	}
	if c.on() != m.Type || c.EffectiveLayer() != m.layer() {
		return false
	}
	if c.CallPath != "" && c.CallPath != m.CallPath {
		return false
	}
	return c.pat.Match(m.RequestID)
}

// Decision is the outcome of matching a message against a rule set.
type Decision struct {
	// Rule is the matched rule whose fault fired. Zero-valued when Fired is
	// false.
	Rule CompiledRule
	// Matched reports whether any rule's criteria matched the message,
	// regardless of probability sampling.
	Matched bool
	// Fired reports whether a fault action should be applied.
	Fired bool
}

// routeKey identifies the (src, dst, direction, layer) bucket a rule can
// match. Every message has exactly one routeKey, so rules installed for
// other routes, the other direction, or the other data plane are never
// visited by an indexed Decide.
type routeKey struct {
	src, dst string
	on       MessageType
	layer    Layer
}

// ruleCounters is one rule's lifetime match/fire tally. Counters live
// outside the immutable snapshot (behind pointers) so Decide can bump them
// without copying or locking, and snapshot rebuilds carry them across by
// rule ID.
type ruleCounters struct {
	matched atomic.Int64
	fired   atomic.Int64
}

// RuleStat reports one installed rule's lifetime counters: how many
// messages matched its criteria and how many times its fault actually
// fired after probability sampling. Counters reset when the rule is
// removed and reinstalled.
type RuleStat struct {
	ID      string `json:"id"`
	Matched int64  `json:"matched"`
	Fired   int64  `json:"fired"`
}

// snapshot is one immutable generation of the installed rule set. Writers
// build a fresh snapshot and publish it atomically (RCU); readers load the
// pointer and never synchronize with writers.
type snapshot struct {
	// gen is the rule-set generation this snapshot carries and hash the
	// content hash of its rules — the version the agent reports to the
	// control plane for drift detection. Versioned applies adopt the
	// incoming generation; Install and Clear bump it by one.
	gen  uint64
	hash string
	// rules holds every installed rule in insertion order.
	rules []CompiledRule
	// stats holds each rule's counters, parallel to rules. The pointers are
	// shared with prior snapshots for rules that survived the rebuild.
	stats []*ruleCounters
	// ids is the set of installed rule IDs, for O(1) duplicate checks.
	ids map[string]struct{}
	// index maps each (src, dst, on) bucket to the positions (into rules,
	// in insertion order) of the rules that can match messages in it.
	index map[routeKey][]int
}

// newSnapshot builds a snapshot for rules, carrying counters over from
// prev (nil for a fresh matcher) for rules whose ID survives.
func newSnapshot(rules []CompiledRule, prev *snapshot) *snapshot {
	var carried map[string]*ruleCounters
	if prev != nil {
		carried = make(map[string]*ruleCounters, len(prev.rules))
		for i, r := range prev.rules {
			carried[r.ID] = prev.stats[i]
		}
	}
	s := &snapshot{
		rules: rules,
		stats: make([]*ruleCounters, len(rules)),
		ids:   make(map[string]struct{}, len(rules)),
		index: make(map[routeKey][]int, len(rules)),
	}
	for i, r := range rules {
		if c := carried[r.ID]; c != nil {
			s.stats[i] = c
		} else {
			s.stats[i] = &ruleCounters{}
		}
		s.ids[r.ID] = struct{}{}
		k := routeKey{src: r.Src, dst: r.Dst, on: r.on(), layer: r.EffectiveLayer()}
		s.index[k] = append(s.index[k], i)
	}
	return s
}

// Matcher holds an agent's installed rules and answers, per message, which
// fault (if any) to apply.
//
// The data path (Decide) is lock-free: the rule set lives in an immutable
// snapshot behind an atomic pointer, rules are indexed by (src, dst,
// message type) so rules for other routes are never visited, and
// probability sampling draws from per-goroutine RNG state, so concurrent
// routes never serialize on a shared lock. ApplyRuleSet, Install and
// Clear are the (mutex-serialized) writers: each builds and atomically
// publishes a new snapshot.
//
// The paper's Figure 8 measures a deliberately linear scan of all
// installed rules per message; UseLinearScan restores that behaviour as an
// ablation so the paper-fidelity measurement is preserved.
//
// Matcher is safe for concurrent use.
type Matcher struct {
	snap atomic.Pointer[snapshot]
	mu   sync.Mutex // serializes snapshot writers

	// rebuilds counts snapshot recompilations; idempotent re-applies of an
	// unchanged rule set leave it untouched (see ApplyRuleSet).
	rebuilds atomic.Int64

	linearScan atomic.Bool

	// seedRNG seeds the per-goroutine sampling RNGs in rngs; it is only
	// touched on pool misses, never per message.
	seedMu  sync.Mutex
	seedRNG *rand.Rand
	rngs    sync.Pool
}

// NewMatcher creates an empty matcher. The rng seeds probability sampling;
// pass a seeded rand.Rand for deterministic tests, or nil for a
// non-deterministic default.
func NewMatcher(rng *rand.Rand) *Matcher {
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	m := &Matcher{seedRNG: rng}
	m.rngs.New = func() any {
		m.seedMu.Lock()
		seed := m.seedRNG.Int63()
		m.seedMu.Unlock()
		return rand.New(rand.NewSource(seed))
	}
	empty := newSnapshot(nil, nil)
	empty.hash = HashRules(nil)
	m.snap.Store(empty)
	return m
}

// publishLocked is the write path of Install and Clear: it compiles the
// next rule list into a snapshot at the successor generation and
// publishes it, so each is just the next generation of the whole set.
// Callers hold m.mu.
func (m *Matcher) publishLocked(next []CompiledRule, prev *snapshot) {
	s := newSnapshot(next, prev)
	s.gen = prev.gen + 1
	list := make([]Rule, len(next))
	for i, r := range next {
		list[i] = r.Rule
	}
	s.hash = HashRules(list)
	m.rebuilds.Add(1)
	m.snap.Store(s)
}

// Install adds rules to the matcher. It rejects the whole batch if any rule
// is invalid or if an ID collides with an installed rule.
func (m *Matcher) Install(rs ...Rule) error {
	compiled := make([]CompiledRule, 0, len(rs))
	batch := make(map[string]bool, len(rs))
	for _, r := range rs {
		c, err := Compile(r)
		if err != nil {
			return err
		}
		if batch[r.ID] {
			return fmt.Errorf("rules: duplicate rule ID %q in batch", r.ID)
		}
		batch[r.ID] = true
		compiled = append(compiled, c)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.snap.Load()
	for _, c := range compiled {
		if _, dup := cur.ids[c.ID]; dup {
			return fmt.Errorf("rules: rule ID %q already installed", c.ID)
		}
	}
	next := make([]CompiledRule, 0, len(cur.rules)+len(compiled))
	next = append(next, cur.rules...)
	next = append(next, compiled...)
	m.publishLocked(next, cur)
	return nil
}

// Clear removes all rules and returns how many were installed.
func (m *Matcher) Clear() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.snap.Load()
	n := len(cur.rules)
	m.publishLocked(nil, cur)
	return n
}

// Len reports the number of installed rules.
func (m *Matcher) Len() int { return len(m.snap.Load().rules) }

// RuleStats returns each installed rule's lifetime counters in insertion
// order. Counters survive snapshot rebuilds (further installs or removals
// of other rules) but are lost with the rule itself: a rule set without
// it, or Clear, followed by a reinstall starts that rule's tally from
// zero.
func (m *Matcher) RuleStats() []RuleStat {
	cur := m.snap.Load()
	out := make([]RuleStat, len(cur.rules))
	for i, r := range cur.rules {
		out[i] = RuleStat{
			ID:      r.ID,
			Matched: cur.stats[i].matched.Load(),
			Fired:   cur.stats[i].fired.Load(),
		}
	}
	return out
}

// UseLinearScan toggles the paper-fidelity ablation: Decide scans every
// installed rule in insertion order instead of consulting the (src, dst,
// type) index, reproducing the linear-scan behaviour Figure 8 measures
// (the paper notes prefix/numeric ID indexes as possible optimizations and
// excludes them from measurement). Off by default; decisions are identical
// either way, only the visit order of non-matching rules differs.
func (m *Matcher) UseLinearScan(on bool) { m.linearScan.Store(on) }

// Decide returns the first rule, in insertion order, whose criteria match
// the message and whose probability sample fires. If rules match but none
// fires, Decision.Matched is true and Fired false. Decide takes no locks.
func (m *Matcher) Decide(msg Message) Decision {
	snap := m.snap.Load()
	if m.linearScan.Load() {
		return m.decideScan(snap, msg)
	}

	var d Decision
	for _, i := range snap.index[routeKey{src: msg.Src, dst: msg.Dst, on: msg.Type, layer: msg.layer()}] {
		r := &snap.rules[i]
		if r.CallPath != "" && r.CallPath != msg.CallPath {
			continue
		}
		if !r.pat.Match(msg.RequestID) {
			continue
		}
		d.Matched = true
		snap.stats[i].matched.Add(1)
		if m.sample(r.EffectiveProbability()) {
			snap.stats[i].fired.Add(1)
			d.Rule = *r
			d.Fired = true
			return d
		}
	}
	return d
}

// decideScan is the linear-scan ablation: every installed rule is visited
// in insertion order, as the paper's Figure 8 measures.
func (m *Matcher) decideScan(snap *snapshot, msg Message) Decision {
	var d Decision
	for i := range snap.rules {
		r := &snap.rules[i]
		if !r.Matches(msg) {
			continue
		}
		d.Matched = true
		snap.stats[i].matched.Add(1)
		if m.sample(r.EffectiveProbability()) {
			snap.stats[i].fired.Add(1)
			d.Rule = *r
			d.Fired = true
			return d
		}
	}
	return d
}

// sample draws from per-goroutine RNG state (a sync.Pool keeps one
// rand.Rand per P in steady state), so concurrent Decide calls do not
// serialize on a shared RNG mutex.
func (m *Matcher) sample(p float64) bool {
	if p >= 1 {
		return true
	}
	rng := m.rngs.Get().(*rand.Rand)
	ok := rng.Float64() < p
	m.rngs.Put(rng)
	return ok
}
