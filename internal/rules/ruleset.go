package rules

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"
)

// RuleSet is one versioned generation of an agent's complete rule state:
// the unit of the declarative control plane. A RuleSet describes the whole
// desired state; applying it is an idempotent atomic swap, so a reconciler
// can re-send it any number of times without disturbing a converged agent.
type RuleSet struct {
	// Generation orders rule sets: the control plane bumps it on every
	// desired-state change, and agents report their current generation so
	// reconcilers can detect drift without comparing rule bodies.
	Generation uint64 `json:"generation"`

	// Rules is the complete rule state. Order is irrelevant: hashing and
	// application canonicalize by rule ID.
	Rules []Rule `json:"rules"`

	// TTLMillis, when positive, is an agent-side lease: if the agent does
	// not receive another PUT of its rule set (any PUT, including a
	// verbatim no-op re-send) within the TTL, it clears all rules itself.
	// A killed control plane can then never leak faults into the fleet.
	TTLMillis int64 `json:"ttlMillis,omitempty"`
}

// TTL returns the rule set's lease duration (zero = no lease).
func (s RuleSet) TTL() time.Duration { return time.Duration(s.TTLMillis) * time.Millisecond }

// Validate checks every rule and rejects duplicate IDs and negative TTLs.
func (s RuleSet) Validate() error {
	if s.TTLMillis < 0 {
		return fmt.Errorf("rules: ruleset TTL must not be negative (got %d ms)", s.TTLMillis)
	}
	return ValidateAll(s.Rules)
}

// NormalizeRules returns a copy of rs sorted by rule ID — the canonical
// order used for hashing and deterministic serialization.
func NormalizeRules(rs []Rule) []Rule {
	out := make([]Rule, len(rs))
	copy(out, rs)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Canonical renders the rule set's content in its canonical serialization:
// the rules sorted by ID, JSON-encoded. Generation and TTL are versioning
// and lease metadata, not content, and are excluded — two rule sets with
// the same rules hash identically regardless of who shipped them when.
func (s RuleSet) Canonical() []byte {
	b, err := json.Marshal(NormalizeRules(s.Rules))
	if err != nil {
		// Rule is a plain struct of scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("rules: canonical marshal: %v", err))
	}
	return b
}

// Hash returns the content hash of the canonical serialization, prefixed
// with the scheme so future hash migrations stay distinguishable.
func (s RuleSet) Hash() string { return HashRules(s.Rules) }

// HashRules hashes a rule slice the same way RuleSet.Hash does.
func HashRules(rs []Rule) string {
	sum := sha256.Sum256(RuleSet{Rules: rs}.Canonical())
	return "sha256:" + hex.EncodeToString(sum[:16])
}

// RuleSetStatus reports an agent's current rule-set version, as returned by
// PUT/GET /v1/ruleset and embedded in /v1/info. Reconcilers compare
// (Generation, Hash) against their desired state to detect drift.
type RuleSetStatus struct {
	// Generation is the agent's current rule-set generation.
	Generation uint64 `json:"generation"`

	// Hash is the content hash of the installed rules.
	Hash string `json:"hash"`

	// Rules is the number of installed rules.
	Rules int `json:"rules"`

	// Changed reports whether the responding operation swapped the rule
	// set (false for idempotent no-op re-applies).
	Changed bool `json:"changed,omitempty"`
}

// Versioned-apply errors. The agent's control API maps these to HTTP 409
// (conflict/stale) and 412 (failed If-Match precondition).
var (
	// ErrStaleGeneration rejects a rule set older than the agent's current
	// generation, applied without an If-Match override.
	ErrStaleGeneration = errors.New("rules: rule set generation is older than the installed one")

	// ErrGenerationConflict rejects a rule set carrying the agent's current
	// generation but different content — two writers minted the same
	// generation independently.
	ErrGenerationConflict = errors.New("rules: rule set generation matches but content differs")

	// ErrPreconditionFailed rejects an apply whose If-Match generation no
	// longer matches the agent's current generation.
	ErrPreconditionFailed = errors.New("rules: if-match generation does not match installed generation")
)

// NoMatch is the IfMatch sentinel for ApplyRuleSet meaning "no precondition".
const NoMatch = ^uint64(0)

// ApplyRuleSet atomically replaces the matcher's entire rule state with the
// given rule set (paper §4.2's rule installation, made declarative):
//
//   - With ifMatch == NoMatch: sets older than the current generation are
//     rejected with ErrStaleGeneration; a set at the current generation is
//     a no-op when its content hash matches (idempotent re-apply) and an
//     ErrGenerationConflict otherwise.
//   - With ifMatch set: the apply succeeds only while the matcher is still
//     at that exact generation (compare-and-swap; ErrPreconditionFailed
//     otherwise), and then always wins — this is how a reconciler that has
//     observed the agent's state replaces it, whatever its generation.
//
// When the incoming content hash equals the installed one, only the
// generation is adopted: the compiled rules, the (src,dst,type) index, and
// every per-rule counter are reused without a rebuild. Counters of rules
// that survive a content swap are carried over by ID, as with Install.
func (m *Matcher) ApplyRuleSet(set RuleSet, ifMatch uint64) (RuleSetStatus, error) {
	if err := set.Validate(); err != nil {
		return RuleSetStatus{}, err
	}
	compiled := make([]CompiledRule, 0, len(set.Rules))
	for _, r := range NormalizeRules(set.Rules) {
		c, err := Compile(r)
		if err != nil {
			return RuleSetStatus{}, err
		}
		compiled = append(compiled, c)
	}
	hash := set.Hash()

	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.snap.Load()
	if ifMatch != NoMatch {
		if cur.gen != ifMatch {
			return m.statusLocked(), fmt.Errorf("%w (installed %d, if-match %d)",
				ErrPreconditionFailed, cur.gen, ifMatch)
		}
	} else {
		switch {
		case set.Generation < cur.gen:
			return m.statusLocked(), fmt.Errorf("%w (installed %d, got %d)",
				ErrStaleGeneration, cur.gen, set.Generation)
		case set.Generation == cur.gen && hash != cur.hash:
			return m.statusLocked(), fmt.Errorf("%w (generation %d)",
				ErrGenerationConflict, cur.gen)
		case set.Generation == cur.gen:
			// Idempotent re-apply: same generation, same content.
			return m.statusLocked(), nil
		}
	}

	if hash == cur.hash {
		// Content is already installed: adopt the generation without
		// recompiling rules or touching counters.
		next := *cur
		next.gen = set.Generation
		m.snap.Store(&next)
		return m.statusLocked(), nil
	}
	next := newSnapshot(compiled, cur)
	next.gen = set.Generation
	next.hash = hash
	m.rebuilds.Add(1)
	m.snap.Store(next)
	st := m.statusLocked()
	st.Changed = true
	return st, nil
}

// Status reports the matcher's current rule-set version.
func (m *Matcher) Status() RuleSetStatus {
	snap := m.snap.Load()
	return RuleSetStatus{Generation: snap.gen, Hash: snap.hash, Rules: len(snap.rules)}
}

// statusLocked is Status for callers already holding m.mu.
func (m *Matcher) statusLocked() RuleSetStatus {
	snap := m.snap.Load()
	return RuleSetStatus{Generation: snap.gen, Hash: snap.hash, Rules: len(snap.rules)}
}

// Generation reports the matcher's current rule-set generation. It starts
// at zero and moves on every change: versioned applies adopt the incoming
// generation, Install and Clear bump it by one.
func (m *Matcher) Generation() uint64 { return m.snap.Load().gen }

// Hash reports the content hash of the installed rules.
func (m *Matcher) Hash() string { return m.snap.Load().hash }

// Rebuilds reports how many times the matcher recompiled its rule snapshot.
// Idempotent re-applies of an identical rule set do not rebuild; the
// control plane's idempotency tests pin that with this counter.
func (m *Matcher) Rebuilds() int64 { return m.rebuilds.Load() }

// RuleSet returns the installed rules as a versioned rule set.
func (m *Matcher) RuleSet() RuleSet {
	snap := m.snap.Load()
	out := make([]Rule, len(snap.rules))
	for i, r := range snap.rules {
		out[i] = r.Rule
	}
	return RuleSet{Generation: snap.gen, Rules: out}
}
