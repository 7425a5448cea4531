// Package explore implements Gremlin's coverage-guided search plane: it
// turns observed traces into an inventory of execution-indexed injection
// points and drives the campaign engine over the frontier of unexercised
// points until the fault space runs dry.
//
// The plane closes a loop the static enumerator cannot: campaign.Enumerate
// targets the edges of the declared graph, but faults land on call paths,
// not edges — one edge hosts many points (fan-out ordinals, retries), and
// some paths (fallback and retry branches) only exist while another fault
// is staged. The explorer works from evidence instead:
//
//  1. Inventory. A fault-free probe run is assembled into span trees
//     (internal/tracing) and canonicalized into deduplicated, EI-keyed
//     injection points. Only points observed reachable enter the search
//     space.
//  2. Frontier. Each round builds one unit per unexercised point — an
//     abort pinned to the point's execution index, staged together with
//     the enabling faults that revealed it — plus bounded multi-fault
//     combinations along observed critical paths, and runs them through
//     campaign.Run under the shared journal. After each unit the run's
//     traces are mined for points that only appeared under its faults;
//     they join the next frontier.
//  3. Convergence. Exploration ends when DryRounds consecutive rounds
//     discover nothing new (or MaxRounds bounds the loop). A killed run
//     resumes from the campaign journal: completed points are restored
//     from the journalled execution indexes, not re-run.
package explore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/core"
)

// Options tunes an exploration.
type Options struct {
	// ID names the exploration; it prefixes run IDs and request-ID
	// namespaces (like campaign.Options.ID). Defaults to "explore".
	ID string

	// JournalPath is the shared campaign journal every round appends to.
	// A killed exploration resumes from it. Empty disables persistence
	// (and with it, resume).
	JournalPath string

	// Load injects test traffic for one run, exactly as in
	// campaign.Options.Load: every synthetic request must carry a request
	// ID starting with idPrefix. Required — the probe and every frontier
	// unit drive it.
	Load func(ctx context.Context, idPrefix string) error

	// Cleanup reclaims a run's records after they have been harvested
	// (typically Store.ClearMatching). The explorer always mines a run's
	// traces before invoking it.
	Cleanup func(idPattern string)

	// Parallelism bounds each round's worker pool (default 2).
	Parallelism int

	// MaxRounds bounds the frontier loop (default 8).
	MaxRounds int

	// DryRounds is how many consecutive rounds must discover no new
	// points before the exploration converges (default 2).
	DryRounds int

	// MaxCombination bounds the size of multi-fault combination units
	// generated along observed critical paths (default 2; 1 disables
	// combos).
	MaxCombination int

	// MaxCombos bounds how many combination units are generated in total
	// (default 8).
	MaxCombos int

	// ErrorCode is the abort status injected at each point (default 503).
	ErrorCode int

	// LeaseTTL leases each run's staged faults (campaign.Options.LeaseTTL).
	LeaseTTL time.Duration

	// OnEntry observes each journal entry as it settles (progress
	// reporting; called from worker goroutines).
	OnEntry func(campaign.Entry)
}

func (o Options) withDefaults() Options {
	if o.ID == "" {
		o.ID = "explore"
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 2
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 8
	}
	if o.DryRounds <= 0 {
		o.DryRounds = 2
	}
	if o.MaxCombination <= 0 {
		o.MaxCombination = 2
	}
	if o.MaxCombos <= 0 {
		o.MaxCombos = 8
	}
	if o.ErrorCode == 0 {
		o.ErrorCode = http.StatusServiceUnavailable
	}
	return o
}

// Result is the outcome of an exploration.
type Result struct {
	// Scorecard aggregates every settled unit (this session and restored
	// ones) with Explore coverage counters filled in.
	Scorecard *campaign.Scorecard

	// Points is the final injection-point inventory, in EI order.
	Points []Point `json:"points"`

	// Rounds is how many frontier rounds this session ran; Converged
	// reports whether the frontier ran dry (rather than MaxRounds or
	// cancellation ending the loop).
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`

	// PointsPruned counts EI-equivalent duplicate candidates dropped at
	// inventory time, before any unit was built for them.
	PointsPruned int `json:"pointsPruned"`
}

// Revealed returns the points that were reachable only under an enabling
// fault — call paths absent from the fault-free baseline.
func (r *Result) Revealed() []Point {
	var out []Point
	for _, p := range r.Points {
		if len(p.RevealedBy) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Explore runs a coverage-guided exploration against the runner's
// deployment: probe, then frontier rounds until convergence. It stops
// early — returning everything settled so far and ctx.Err() — when ctx is
// cancelled; in-flight runs drain and journal first, so a later call with
// the same JournalPath resumes instead of repeating them.
func Explore(ctx context.Context, runner *core.Runner, opts Options) (*Result, error) {
	if opts.Load == nil {
		return nil, errors.New("explore: Options.Load is required")
	}
	o := opts.withDefaults()
	e := newExplorer(o, runner.Checker().Source())

	// Resume: completed units' pinned indexes become exercised points
	// before anything runs, so the frontier never rebuilds settled work.
	prior, err := campaign.LoadJournal(o.JournalPath)
	if err != nil {
		return nil, err
	}
	for _, en := range prior {
		if en.Status == campaign.StatusError {
			continue // errored units re-run, as in campaign resume
		}
		e.restore(en)
	}

	// Baseline probe: one fault-free load, mined for the initial point
	// inventory and the critical paths that seed combination units.
	if err := e.probe(ctx, runner); err != nil {
		return nil, err
	}

	rounds, dry, converged := 0, 0, false
	for rounds < o.MaxRounds && ctx.Err() == nil {
		rounds++
		units, faults := e.frontierUnits(runner.Graph())
		before := e.size()
		if len(units) > 0 {
			if err := e.runRound(ctx, runner, rounds, units, faults); err != nil {
				return nil, err
			}
		}
		if e.size() == before {
			dry++
		} else {
			dry = 0
		}
		if dry >= o.DryRounds {
			converged = true
			break
		}
	}

	res := &Result{
		Points:       e.snapshot(),
		Rounds:       rounds,
		Converged:    converged,
		PointsPruned: e.pruned,
	}
	sc := campaign.BuildScorecard(o.ID, runner.Graph(), e.sortedEntries())
	exercised, revealed := 0, 0
	for _, p := range res.Points {
		if p.Exercised {
			exercised++
		}
		if len(p.RevealedBy) > 0 {
			revealed++
		}
	}
	sc.Explore = &campaign.ExploreCoverage{
		PointsDiscovered: len(res.Points),
		PointsExercised:  exercised,
		PointsRevealed:   revealed,
		PointsPruned:     res.PointsPruned,
		Rounds:           rounds,
		Converged:        converged,
	}
	res.Scorecard = sc
	e.mu.Lock()
	jerr := e.journalErr
	e.mu.Unlock()
	if jerr != nil {
		return res, fmt.Errorf("explore: journalling discovery: %w", jerr)
	}
	return res, ctx.Err()
}

// probe drives one fault-free load under the exploration's own namespace
// and harvests the baseline inventory from its traces.
func (e *explorer) probe(ctx context.Context, runner *core.Runner) error {
	idPrefix := fmt.Sprintf("camp-%s-probe-", e.o.ID)
	pat := idPrefix + "*"
	if err := e.o.Load(ctx, idPrefix); err != nil {
		return fmt.Errorf("explore: probe load: %w", err)
	}
	if err := runner.Orchestrator().FlushAll(ctx); err != nil {
		return fmt.Errorf("explore: probe flush: %w", err)
	}
	e.harvest(pat, nil, 0)
	if e.o.Cleanup != nil {
		e.o.Cleanup(pat)
	}
	return nil
}

// runRound executes one frontier round through the campaign engine. The
// Cleanup hook is where discovery happens: it fires after a run's blast
// radius is computed but before its records are reclaimed, so the round's
// traces are mined for newly revealed points at exactly the right moment.
func (e *explorer) runRound(ctx context.Context, runner *core.Runner, round int, units []campaign.Unit, faults unitFaults) error {
	roundID := fmt.Sprintf("%s-r%d", e.o.ID, round)
	copts := campaign.Options{
		ID:          roundID,
		Parallelism: e.o.Parallelism,
		JournalPath: e.o.JournalPath,
		Load:        e.o.Load,
		LeaseTTL:    e.o.LeaseTTL,
		Cleanup: func(u campaign.Unit, pat string) {
			e.harvest(pat, faults[u.Key], round)
			if e.o.Cleanup != nil {
				e.o.Cleanup(pat)
			}
		},
		OnEntry: func(en campaign.Entry) {
			e.settle(en)
			if e.o.OnEntry != nil {
				e.o.OnEntry(en)
			}
		},
	}
	if _, err := campaign.Run(ctx, runner, units, copts); err != nil && ctx.Err() == nil {
		return fmt.Errorf("explore: round %d: %w", round, err)
	}
	return nil
}
