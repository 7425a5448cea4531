package core

import (
	"errors"
	"math/rand"
	"time"

	"gremlin/internal/graph"
	"gremlin/internal/rules"
)

// ChaosOptions tunes RandomScenario.
type ChaosOptions struct {
	// SkipServices excludes services from being failure targets.
	SkipServices []string

	// MaxDelay bounds randomly chosen delay intervals (default 2 s).
	MaxDelay time.Duration

	// AllTraffic makes the generated faults hit every request (pattern
	// "*"), which is how Chaos Monkey operates; the default (false)
	// confines them to test traffic like a normal recipe.
	AllTraffic bool
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	return o
}

// RandomScenario generates one randomized failure over the application
// graph — the Chaos Monkey baseline the paper contrasts itself with
// (§8.1): unpredictable faults, no coupling to assertions. It exists so
// the randomized and systematic approaches can be compared on the same
// data plane; the paper's critique applies verbatim — a random fault tells
// you *that* something broke, a recipe tells you *what should have
// happened and why it did not*.
//
// The scenario kind, target, and parameters are drawn from rng, so a
// seeded generator yields a reproducible chaos schedule.
func RandomScenario(g *graph.Graph, rng *rand.Rand, opts ChaosOptions) (Scenario, error) {
	if rng == nil {
		return nil, errors.New("core: RandomScenario needs a rand.Rand")
	}
	o := opts.withDefaults()
	targets, err := FaultTargets(g, o.SkipServices)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, errors.New("core: RandomScenario: no services with dependents to fail")
	}
	t := targets[rng.Intn(len(targets))]

	pattern := "" // recipe default (test traffic)
	if o.AllTraffic {
		pattern = "*"
	}
	delay := time.Duration(1+rng.Int63n(int64(o.MaxDelay/time.Millisecond))) * time.Millisecond

	switch rng.Intn(4) {
	case 0:
		return chaosWrapped{Crash{Service: t.Service, Probability: randProb(rng)}, pattern}, nil
	case 1:
		return chaosWrapped{Overload{Service: t.Service, Delay: delay}, pattern}, nil
	case 2:
		return chaosWrapped{Hang{Service: t.Service, Interval: delay * 10}, pattern}, nil
	default:
		// A degraded edge into the target.
		src := t.Dependents[rng.Intn(len(t.Dependents))]
		return chaosWrapped{Delay{Src: src, Dst: t.Service, Interval: delay, Probability: randProb(rng)}, pattern}, nil
	}
}

func randProb(rng *rand.Rand) float64 {
	// Bias toward full-strength faults, Chaos Monkey style.
	if rng.Intn(2) == 0 {
		return 1
	}
	return 0.25 + 0.75*rng.Float64()
}

// chaosWrapped overrides the recipe-level pattern for a generated
// scenario, so AllTraffic chaos hits production flows like the baseline
// tool does.
type chaosWrapped struct {
	Scenario

	pattern string
}

// Describe implements Scenario.
func (c chaosWrapped) Describe() string {
	if c.pattern == "*" {
		return "chaos:" + c.Scenario.Describe() + " (all traffic)"
	}
	return "chaos:" + c.Scenario.Describe()
}

// Translate implements Scenario.
func (c chaosWrapped) Translate(g *graph.Graph, ids *IDGen, pattern string) ([]rules.Rule, error) {
	if c.pattern != "" {
		pattern = c.pattern
	}
	return c.Scenario.Translate(g, ids, pattern)
}
