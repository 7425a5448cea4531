package checker

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestStatusSeenConsume(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0, withStatus(200)),
		reply("a", "b", "2", 1*time.Second, withStatus(503)),
		reply("a", "b", "3", 2*time.Second, withStatus(503)),
		reply("a", "b", "4", 3*time.Second, withStatus(200)),
	}
	consumed, ok := StatusSeen{Status: 503, NumMatch: 2, WithRule: true}.Consume(rl)
	if !ok || consumed != 3 {
		t.Fatalf("Consume = (%d, %v), want (3, true)", consumed, ok)
	}
	_, ok = StatusSeen{Status: 503, NumMatch: 3, WithRule: true}.Consume(rl)
	if ok {
		t.Fatal("3 x 503 not present; want failure")
	}
	consumed, ok = StatusSeen{Status: 503, NumMatch: 0, WithRule: true}.Consume(rl)
	if !ok || consumed != 0 {
		t.Fatalf("zero matches = (%d, %v)", consumed, ok)
	}
}

func TestFailuresSeenConsume(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0, withStatus(200)),
		reply("a", "b", "2", 1*time.Second, withStatus(0)),   // severed
		reply("a", "b", "3", 2*time.Second, withStatus(404)), // client error
		reply("a", "b", "4", 3*time.Second, withStatus(200)),
	}
	consumed, ok := FailuresSeen{NumMatch: 2, WithRule: true}.Consume(rl)
	if !ok || consumed != 3 {
		t.Fatalf("Consume = (%d, %v), want (3, true)", consumed, ok)
	}
}

func TestAtMostConsume(t *testing.T) {
	rl := RList{
		reply("a", "b", "1", 0),
		reply("a", "b", "2", 10*time.Second),
		reply("a", "b", "3", 2*time.Minute), // outside a 1min window
	}
	consumed, ok := AtMost{Tdelta: time.Minute, WithRule: true, Num: 2}.Consume(rl)
	if !ok || consumed != 2 {
		t.Fatalf("Consume = (%d, %v), want (2, true)", consumed, ok)
	}
	_, ok = AtMost{Tdelta: time.Minute, WithRule: true, Num: 1}.Consume(rl)
	if ok {
		t.Fatal("2 records in window > 1; want failure")
	}
	consumed, ok = AtMost{Tdelta: time.Minute, WithRule: true, Num: 5}.Consume(nil)
	if !ok || consumed != 0 {
		t.Fatalf("empty list = (%d, %v)", consumed, ok)
	}
}

func TestCombineBoundedRetriesScenario(t *testing.T) {
	// The paper's HasBoundedRetries: 5 x 503, then at most 5 more calls
	// within a minute.
	var rl RList
	for i := 0; i < 5; i++ {
		rl = append(rl, reply("a", "b", "t", time.Duration(i)*time.Second, withStatus(503), gremlinMade()))
	}
	for i := 0; i < 4; i++ { // four retries: bounded
		rl = append(rl, reply("a", "b", "t", time.Duration(6+i)*time.Second, withStatus(503), gremlinMade()))
	}
	ok := Combine(rl,
		StatusSeen{Status: 503, NumMatch: 5, WithRule: true},
		AtMost{Tdelta: time.Minute, WithRule: true, Num: 5},
	)
	if !ok {
		t.Fatal("bounded retries should pass")
	}

	// Unbounded: 30 more calls inside the window.
	rl = rl[:5]
	for i := 0; i < 30; i++ {
		rl = append(rl, reply("a", "b", "t", time.Duration(6+i)*time.Second, withStatus(503), gremlinMade()))
	}
	ok = Combine(rl,
		StatusSeen{Status: 503, NumMatch: 5, WithRule: true},
		AtMost{Tdelta: time.Minute, WithRule: true, Num: 5},
	)
	if ok {
		t.Fatal("unbounded retries should fail")
	}
}

func TestCombineTraceOutput(t *testing.T) {
	rl := RList{reply("a", "b", "1", 0, withStatus(503))}
	ok, explain := CombineTrace(rl, StatusSeen{Status: 503, NumMatch: 1, WithRule: true})
	if !ok {
		t.Fatal("want pass")
	}
	if !strings.Contains(explain, "all steps passed") || !strings.Contains(explain, "CheckStatus") {
		t.Fatalf("explain = %q", explain)
	}
	ok, explain = CombineTrace(rl, StatusSeen{Status: 404, NumMatch: 1, WithRule: true})
	if ok || !strings.Contains(explain, "FAILED") {
		t.Fatalf("want failure trace, got %q", explain)
	}
}

func TestCombineNoSteps(t *testing.T) {
	if !Combine(nil) {
		t.Fatal("empty combine should pass")
	}
}

func TestStepDescriptions(t *testing.T) {
	steps := []Step{
		StatusSeen{Status: 503, NumMatch: 5, WithRule: true},
		FailuresSeen{NumMatch: 3},
		AtMost{Tdelta: time.Minute, Num: 5},
	}
	for _, s := range steps {
		if s.Describe() == "" {
			t.Errorf("%T has empty description", s)
		}
	}
}

// Property: every step consumes at most the records it was given, and a
// chain of steps never panics.
func TestCombineConsumptionBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(n uint8, threshold uint8) bool {
		var rl RList
		for i := 0; i < int(n%40); i++ {
			status := 200
			if rng.Intn(2) == 0 {
				status = 503
			}
			rl = append(rl, reply("a", "b", "t", time.Duration(i)*time.Second, withStatus(status)))
		}
		steps := []Step{
			StatusSeen{Status: 503, NumMatch: int(threshold % 10), WithRule: true},
			AtMost{Tdelta: time.Minute, WithRule: true, Num: 5},
		}
		rest := rl
		for _, s := range steps {
			consumed, ok := s.Consume(rest)
			if consumed < 0 || consumed > len(rest) {
				return false
			}
			if !ok {
				break
			}
			rest = rest[consumed:]
		}
		Combine(rl, steps...) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
