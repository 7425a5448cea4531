package core

import (
	"errors"
	"fmt"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/graph"
	"gremlin/internal/rules"
)

// Check is one assertion evaluated against the event logs after the
// failure has been staged and test load injected. The checker it is handed
// is scoped to the run's request-ID pattern (checker.Pattern), so a check
// sees the flows its recipe faulted and no others.
type Check func(c *checker.Checker) (checker.Result, error)

// Recipe is a complete test description: the outage scenario to create and
// the assertions to validate (paper §3.2).
type Recipe struct {
	// Name labels the recipe in reports.
	Name string

	// Scenarios are staged together (one outage may combine several).
	Scenarios []Scenario

	// Checks are evaluated after load injection.
	Checks []Check

	// Pattern confines fault injection, and the checks' queries, to
	// request IDs matching it. Defaults to DefaultPattern ("test-*").
	Pattern string
}

// Translate decomposes the recipe's scenarios into fault-injection rules
// over the application graph — the paper's Recipe Translator.
func (r Recipe) Translate(g *graph.Graph) ([]rules.Rule, error) {
	if len(r.Scenarios) == 0 {
		return nil, errors.New("core: recipe has no scenarios")
	}
	ids := NewIDGen(r.name())
	var out []rules.Rule
	for _, s := range r.Scenarios {
		rs, err := s.Translate(g, ids, r.pattern())
		if err != nil {
			return nil, fmt.Errorf("core: translate %s: %w", s.Describe(), err)
		}
		out = append(out, rs...)
	}
	if err := rules.ValidateAll(out); err != nil {
		return nil, fmt.Errorf("core: recipe %s produced invalid rules: %w", r.name(), err)
	}
	return out, nil
}

// pattern is the request-ID pattern the recipe's faults and checks are
// confined to.
func (r Recipe) pattern() string {
	if r.Pattern != "" {
		return r.Pattern
	}
	return DefaultPattern
}

func (r Recipe) name() string {
	if r.Name != "" {
		return r.Name
	}
	return "recipe"
}

// ExpectTimeouts asserts that the service answers its upstreams within
// maxLatency during the outage (HasTimeouts, Table 3).
func ExpectTimeouts(service string, maxLatency time.Duration) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.HasTimeouts(service, maxLatency, c.Pattern())
	}
}

// ExpectBoundedRetries asserts that src retries failed calls to dst at most
// maxTries times (HasBoundedRetries, Table 3).
func ExpectBoundedRetries(src, dst string, maxTries int) Check {
	return ExpectBoundedRetriesOpts(src, dst, maxTries, checker.BoundedRetriesOptions{})
}

// ExpectBoundedRetriesOpts is ExpectBoundedRetries with explicit
// thresholds.
func ExpectBoundedRetriesOpts(src, dst string, maxTries int, opts checker.BoundedRetriesOptions) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.HasBoundedRetries(src, dst, maxTries, c.Pattern(), opts)
	}
}

// ExpectCircuitBreaker asserts that src stops calling dst for tdelta after
// threshold failures (HasCircuitBreaker, Table 3).
func ExpectCircuitBreaker(src, dst string, threshold int, tdelta time.Duration) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.HasCircuitBreaker(src, dst, threshold, tdelta, c.Pattern(), checker.CircuitBreakerOptions{})
	}
}

// ExpectBulkhead asserts that src keeps calling its other dependencies at
// >= rate req/s while slowDst is degraded (HasBulkhead, Table 3).
func ExpectBulkhead(src, slowDst string, rate float64) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.HasBulkhead(src, slowDst, rate, c.Pattern())
	}
}

// ExpectNoCalls asserts that src never called dst on test flows.
func ExpectNoCalls(src, dst string) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.NoCallsTo(src, dst, c.Pattern())
	}
}

// ExpectFallback asserts that the service kept succeeding for at least
// okFraction of its replies during the outage.
func ExpectFallback(service string, okFraction float64) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.HasFallback(service, okFraction, c.Pattern())
	}
}

// ExpectCustom wraps an arbitrary closure as a named Check, for assertions
// composed directly from queries and base assertions.
func ExpectCustom(name string, fn func(c *checker.Checker) (bool, string, error)) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		ok, details, err := fn(c)
		if err != nil {
			return checker.Result{}, err
		}
		return checker.Result{Check: name, Passed: ok, Details: details}, nil
	}
}

// ExpectStreamFaults asserts that at least minFired relayed src→dst
// stream connections closed with a fault fired whose rule ID starts with
// ruleIDPrefix (empty prefix accepts any stream fault). L4 connections
// carry relay-minted IDs rather than request-ID namespaces, so this is
// the stream plane's attribution check: "the sever/throttle I staged was
// actually actuated on this edge".
func ExpectStreamFaults(src, dst, ruleIDPrefix string, minFired int) Check {
	if minFired <= 0 {
		minFired = 1
	}
	name := fmt.Sprintf("StreamFaults(%s->%s, rule=%s*, min=%d)", src, dst, ruleIDPrefix, minFired)
	return ExpectCustom(name, func(c *checker.Checker) (bool, string, error) {
		conns, err := c.GetConns(src, dst, "")
		if err != nil {
			return false, "", err
		}
		fired := checker.CountStreamFaults(conns, ruleIDPrefix)
		details := fmt.Sprintf("%d of %d connections closed with a matching stream fault", fired, len(conns))
		return fired >= minFired, details, nil
	})
}

// ExpectExponentialBackoff asserts that src's retries against dst space
// out by at least growthFactor between consecutive attempts (§2.1's
// exponential-backoff recommendation).
func ExpectExponentialBackoff(src, dst string, growthFactor float64) Check {
	return func(c *checker.Checker) (checker.Result, error) {
		return c.HasExponentialBackoff(src, dst, growthFactor, c.Pattern())
	}
}
