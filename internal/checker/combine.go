package checker

import (
	"fmt"
	"strings"
	"time"
)

// Step is one stage of a Combine chain. Evaluating a step against the
// remaining record list either succeeds — consuming the prefix of records
// that satisfied it — or fails the whole chain.
type Step interface {
	// Consume evaluates the step on rl. On success it returns the number
	// of leading records consumed and ok=true; on failure ok=false.
	Consume(rl RList) (consumed int, ok bool)

	// Describe renders the step for assertion reports.
	Describe() string
}

// Combine chains base assertions "in the style of a state machine" (paper
// §4.2): each step consumes the portion of records that made it true before
// the remainder is passed to the next step. It returns true only if every
// step succeeds in order.
func Combine(rl RList, steps ...Step) bool {
	ok, _ := CombineTrace(rl, steps...)
	return ok
}

// CombineTrace is Combine with a human-readable trace of each step's
// outcome, for recipe reports.
func CombineTrace(rl RList, steps ...Step) (bool, string) {
	var b strings.Builder
	rest := rl
	for i, s := range steps {
		consumed, ok := s.Consume(rest)
		fmt.Fprintf(&b, "step %d %s: ", i+1, s.Describe())
		if !ok {
			fmt.Fprintf(&b, "FAILED with %d records remaining", len(rest))
			return false, b.String()
		}
		fmt.Fprintf(&b, "ok, consumed %d of %d; ", consumed, len(rest))
		if consumed > len(rest) {
			consumed = len(rest)
		}
		rest = rest[consumed:]
	}
	b.WriteString("all steps passed")
	return true, b.String()
}

// StatusSeen is a Step that succeeds once numMatch replies with the given
// status have been observed, consuming records through the numMatch-th
// occurrence. It corresponds to Table 3's CheckStatus used inside Combine.
type StatusSeen struct {
	Status   int
	NumMatch int
	WithRule bool
}

// Consume implements Step.
func (s StatusSeen) Consume(rl RList) (int, bool) {
	if s.NumMatch <= 0 {
		return 0, true
	}
	n := 0
	for i, r := range rl {
		if !counted(r, s.WithRule) || r.Status != s.Status {
			continue
		}
		n++
		if n == s.NumMatch {
			return i + 1, true
		}
	}
	return 0, false
}

// Describe implements Step.
func (s StatusSeen) Describe() string {
	return fmt.Sprintf("CheckStatus(status=%d, n=%d, withRule=%v)", s.Status, s.NumMatch, s.WithRule)
}

// FailuresSeen is a Step that succeeds once numMatch failed replies (HTTP
// 4xx/5xx or severed connections) have been observed, consuming through the
// numMatch-th failure.
type FailuresSeen struct {
	NumMatch int
	WithRule bool
}

// Consume implements Step.
func (s FailuresSeen) Consume(rl RList) (int, bool) {
	if s.NumMatch <= 0 {
		return 0, true
	}
	n := 0
	for i, r := range rl {
		if !counted(r, s.WithRule) || !IsFailureStatus(r.Status) {
			continue
		}
		n++
		if n == s.NumMatch {
			return i + 1, true
		}
	}
	return 0, false
}

// Describe implements Step.
func (s FailuresSeen) Describe() string {
	return fmt.Sprintf("FailuresSeen(n=%d, withRule=%v)", s.NumMatch, s.WithRule)
}

// AtMost is a Step asserting that at most Num records occur within Tdelta
// of the first remaining record; it consumes the window. It corresponds to
// Table 3's AtMostRequests used inside Combine.
type AtMost struct {
	Tdelta   time.Duration
	WithRule bool
	Num      int
}

// Consume implements Step.
func (s AtMost) Consume(rl RList) (int, bool) {
	if len(rl) == 0 {
		return 0, true
	}
	window := windowLen(rl, s.Tdelta)
	return window, NumRequests(rl[:window], 0, s.WithRule) <= s.Num
}

// Describe implements Step.
func (s AtMost) Describe() string {
	return fmt.Sprintf("AtMostRequests(tdelta=%s, withRule=%v, n=%d)", s.Tdelta, s.WithRule, s.Num)
}

// windowLen returns how many leading records of rl fall within tdelta of
// the first record (all of them when tdelta == 0).
func windowLen(rl RList, tdelta time.Duration) int {
	if tdelta <= 0 || len(rl) == 0 {
		return len(rl)
	}
	cutoff := rl[0].Timestamp.Add(tdelta)
	for i, r := range rl {
		if !r.Timestamp.Before(cutoff) {
			return i
		}
	}
	return len(rl)
}
