package core

import (
	"encoding/json"
	"fmt"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/rules"
)

// recipeSpec is the JSON wire form of a Recipe, used by tools that load
// recipes from files (gremlin-ctl run). Scenarios and checks are tagged
// unions dispatched on "type".
type recipeSpec struct {
	Name      string         `json:"name"`
	Pattern   string         `json:"pattern,omitempty"`
	Scenarios []scenarioSpec `json:"scenarios"`
	Checks    []checkSpec    `json:"checks,omitempty"`
}

type scenarioSpec struct {
	Type string `json:"type"`

	// Edge-scoped scenarios (abort/delay/modify/disconnect).
	Src  string `json:"src,omitempty"`
	Dst  string `json:"dst,omitempty"`
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// Service-scoped scenarios (crash/hang/overload/fakeSuccess).
	Service string `json:"service,omitempty"`

	// Partition sides.
	SideA []string `json:"sideA,omitempty"`
	SideB []string `json:"sideB,omitempty"`

	// Parameters.
	ErrorCode     int               `json:"errorCode,omitempty"`
	DelayMillis   int64             `json:"delayMillis,omitempty"`
	Probability   float64           `json:"probability,omitempty"`
	AbortFraction float64           `json:"abortFraction,omitempty"`
	Search        string            `json:"search,omitempty"`
	Replace       string            `json:"replace,omitempty"`
	Pattern       string            `json:"pattern,omitempty"`
	On            rules.MessageType `json:"on,omitempty"`

	// CallPath pins abort/delay scenarios to one execution index.
	// Omitempty keeps pre-explore recipe files byte-identical.
	CallPath string `json:"callPath,omitempty"`

	// Stream-scenario parameters (streamSever/streamThrottle/…).
	RateBytesPerSec int64  `json:"rateBytesPerSec,omitempty"`
	AbortAfterBytes int64  `json:"abortAfterBytes,omitempty"`
	SeverMode       string `json:"severMode,omitempty"`
}

type checkSpec struct {
	Type string `json:"type"`

	Service          string  `json:"service,omitempty"`
	Src              string  `json:"src,omitempty"`
	Dst              string  `json:"dst,omitempty"`
	SlowDst          string  `json:"slowDst,omitempty"`
	MaxLatencyMillis int64   `json:"maxLatencyMillis,omitempty"`
	MaxTries         int     `json:"maxTries,omitempty"`
	Threshold        int     `json:"threshold,omitempty"`
	TdeltaMillis     int64   `json:"tdeltaMillis,omitempty"`
	Rate             float64 `json:"rate,omitempty"`
	OkFraction       float64 `json:"okFraction,omitempty"`

	// streamFaults parameters.
	RuleIDPrefix string `json:"ruleIdPrefix,omitempty"`
	MinFired     int    `json:"minFired,omitempty"`
}

// ParseRecipe decodes a recipe from its JSON wire form:
//
//	{
//	  "name": "db-overload",
//	  "scenarios": [{"type": "overload", "service": "db"}],
//	  "checks":    [{"type": "circuitBreaker", "src": "web", "dst": "db",
//	                 "threshold": 5, "tdeltaMillis": 30000}]
//	}
//
// Scenario types: abort, delay, modify, disconnect, crash, hang, overload,
// fakeSuccess, partition, plus the stream (L4) scenarios streamSever,
// streamHalfOpen, streamThrottle, streamJitter, connectRefuse and
// connectDelay. Check types: timeouts, boundedRetries, circuitBreaker,
// bulkhead, noCalls, fallback, streamFaults.
func ParseRecipe(data []byte) (Recipe, error) {
	var spec recipeSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Recipe{}, fmt.Errorf("core: parse recipe: %w", err)
	}
	r := Recipe{Name: spec.Name, Pattern: spec.Pattern}
	for i, s := range spec.Scenarios {
		sc, err := s.toScenario()
		if err != nil {
			return Recipe{}, fmt.Errorf("core: recipe %q scenario %d: %w", spec.Name, i, err)
		}
		r.Scenarios = append(r.Scenarios, sc)
	}
	for i, c := range spec.Checks {
		check, err := c.toCheck()
		if err != nil {
			return Recipe{}, fmt.Errorf("core: recipe %q check %d: %w", spec.Name, i, err)
		}
		r.Checks = append(r.Checks, check)
	}
	return r, nil
}

func (s scenarioSpec) toScenario() (Scenario, error) {
	switch s.Type {
	case "abort":
		return Abort{Src: s.Src, Dst: s.Dst, ErrorCode: s.ErrorCode,
			Pattern: s.Pattern, Probability: s.Probability, On: s.On,
			CallPath: s.CallPath}, nil
	case "delay":
		return Delay{Src: s.Src, Dst: s.Dst, Interval: millis(s.DelayMillis),
			Pattern: s.Pattern, Probability: s.Probability, On: s.On,
			CallPath: s.CallPath}, nil
	case "modify":
		return Modify{Src: s.Src, Dst: s.Dst, Search: s.Search, Replace: s.Replace,
			Pattern: s.Pattern, Probability: s.Probability, On: s.On}, nil
	case "disconnect":
		return Disconnect{From: s.From, To: s.To, ErrorCode: s.ErrorCode}, nil
	case "crash":
		return Crash{Service: s.Service, Probability: s.Probability}, nil
	case "hang":
		return Hang{Service: s.Service, Interval: millis(s.DelayMillis)}, nil
	case "overload":
		return Overload{Service: s.Service, AbortFraction: s.AbortFraction,
			Delay: millis(s.DelayMillis), ErrorCode: s.ErrorCode}, nil
	case "fakeSuccess":
		return FakeSuccess{Service: s.Service, Search: s.Search, Replace: s.Replace}, nil
	case "partition":
		return Partition{SideA: s.SideA, SideB: s.SideB}, nil
	case "streamSever":
		return StreamSever{Src: s.Src, Dst: s.Dst, AfterBytes: s.AbortAfterBytes,
			Mode: s.SeverMode, On: s.On, Pattern: s.Pattern, Probability: s.Probability}, nil
	case "streamHalfOpen":
		return StreamHalfOpen{Src: s.Src, Dst: s.Dst, AfterBytes: s.AbortAfterBytes,
			On: s.On, Pattern: s.Pattern, Probability: s.Probability}, nil
	case "streamThrottle":
		return StreamThrottle{Src: s.Src, Dst: s.Dst, BytesPerSec: s.RateBytesPerSec,
			On: s.On, Pattern: s.Pattern, Probability: s.Probability}, nil
	case "streamJitter":
		return StreamJitter{Src: s.Src, Dst: s.Dst, Interval: millis(s.DelayMillis),
			On: s.On, Pattern: s.Pattern, Probability: s.Probability}, nil
	case "connectRefuse":
		return ConnectRefuse{Src: s.Src, Dst: s.Dst,
			Pattern: s.Pattern, Probability: s.Probability}, nil
	case "connectDelay":
		return ConnectDelay{Src: s.Src, Dst: s.Dst, Interval: millis(s.DelayMillis),
			Pattern: s.Pattern, Probability: s.Probability}, nil
	default:
		return nil, fmt.Errorf("unknown scenario type %q", s.Type)
	}
}

func (c checkSpec) toCheck() (Check, error) {
	switch c.Type {
	case "timeouts":
		if c.MaxLatencyMillis <= 0 {
			return nil, fmt.Errorf("timeouts check needs maxLatencyMillis")
		}
		return ExpectTimeouts(c.Service, millis(c.MaxLatencyMillis)), nil
	case "boundedRetries":
		return ExpectBoundedRetriesOpts(c.Src, c.Dst, c.MaxTries,
			checker.BoundedRetriesOptions{
				FailureThreshold: c.Threshold,
				Window:           millis(c.TdeltaMillis),
			}), nil
	case "circuitBreaker":
		if c.Threshold <= 0 || c.TdeltaMillis <= 0 {
			return nil, fmt.Errorf("circuitBreaker check needs threshold and tdeltaMillis")
		}
		return ExpectCircuitBreaker(c.Src, c.Dst, c.Threshold, millis(c.TdeltaMillis)), nil
	case "bulkhead":
		if c.Rate <= 0 {
			return nil, fmt.Errorf("bulkhead check needs rate")
		}
		return ExpectBulkhead(c.Src, c.SlowDst, c.Rate), nil
	case "noCalls":
		return ExpectNoCalls(c.Src, c.Dst), nil
	case "fallback":
		if c.OkFraction <= 0 || c.OkFraction > 1 {
			return nil, fmt.Errorf("fallback check needs okFraction in (0,1]")
		}
		return ExpectFallback(c.Service, c.OkFraction), nil
	case "streamFaults":
		return ExpectStreamFaults(c.Src, c.Dst, c.RuleIDPrefix, c.MinFired), nil
	default:
		return nil, fmt.Errorf("unknown check type %q", c.Type)
	}
}

func millis(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
