// Package campaign explores an application's fault space systematically:
// it enumerates scenario templates × targets × parameter grids from the
// application graph (Enumerate), executes the resulting recipes through a
// bounded worker pool (Run), and folds the outcomes into an aggregate
// resilience scorecard (BuildScorecard).
//
// Three properties distinguish a campaign from a loop over Runner.Run:
//
//   - Isolation. Concurrent runs share one data plane and one event store.
//     Each run confines its faults and assertions to a namespaced
//     request-ID pattern ("camp-<runID>-*") and injects load carrying the
//     matching prefix, so runs neither fault nor assert on each other's
//     traffic — no store clearing between steps.
//
//   - Feedback. Every unit carries a coverage signature (the canonical
//     form of the rules it installs). The scheduler skips units whose
//     signature has already executed, and prioritizes units faulting
//     not-yet-exercised edges — feedback-driven pruning and search in the
//     spirit of Cui et al.'s failure testing and FastFI's parallelism.
//
//   - Resumability. Outcomes append to a JSONL journal as they settle. A
//     killed campaign resumes by replaying the journal: completed and
//     skipped units are not re-run, in-flight ones (no entry) are.
package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/rules"
	"gremlin/internal/tracing"
)

// Options tunes campaign execution.
type Options struct {
	// ID names the campaign. It prefixes run IDs (and thus request-ID
	// namespaces), so two campaigns sharing a store should use distinct
	// IDs. Defaults to "camp".
	ID string

	// Parallelism bounds the worker pool (default 4).
	Parallelism int

	// JournalPath is the append-only JSONL journal; the campaign resumes
	// from its contents when the file already exists. Empty disables
	// persistence.
	JournalPath string

	// Load injects test traffic for one run. Every synthetic request must
	// carry a request ID starting with idPrefix so the run's faults hit it
	// and its assertions see it (loadgen.Options.IDPrefix does exactly
	// this). The context is cancelled when a live assertion fires (see
	// Observe); Load should wind down promptly (loadgen.Options.Context
	// does exactly this). Campaign cancellation does not cancel it —
	// in-flight runs drain and journal so resume skips them. Nil relies on
	// ambient traffic, which then must carry matching IDs by other means.
	Load func(ctx context.Context, idPrefix string) error

	// Observe, when set, watches each run's records live and aborts the
	// run's load as soon as an online assertion fires, instead of letting
	// a doomed experiment run to completion. The batch checks still
	// evaluate afterwards on whatever was collected.
	Observe *ObserveOptions

	// DroppedCount, when set, samples the data plane's cumulative count of
	// dropped observation records (e.g. summing proxy.Stats().LogDropped
	// over all agents, or one shared BufferedSink's Dropped). Runs during
	// which the count grows are journalled as lossy.
	DroppedCount func() int64

	// Cleanup, when set, is called after each run with the unit and the
	// run's request-ID pattern — typically Store.ClearMatching of the
	// pattern, reclaiming the run's records without disturbing concurrent
	// runs.
	Cleanup func(u Unit, idPattern string)

	// OnEntry, when set, observes each journal entry as it settles
	// (progress reporting; called from worker goroutines).
	OnEntry func(Entry)

	// RunObserver, when set, watches each executed run's lifecycle —
	// window open at rule installation, window close once the entry
	// settles. The telemetry plane's Recorder hooks fault windows here;
	// use CombineObservers to attach several.
	RunObserver RunObserver

	// LeaseTTL, when positive, leases each run's staged faults: the run
	// registers its rules under its run ID with this TTL (renewed in the
	// background for as long as the run lives), so a killed campaign
	// process can never leak faults — the orchestrator's anti-entropy
	// loop withdraws the orphaned rules when the lease lapses, and the
	// agents themselves expire them even if the whole control plane died.
	// Zero stages rules permanently (revert-on-completion only).
	LeaseTTL time.Duration
}

// ObserveOptions wires live assertion evaluation into a campaign.
type ObserveOptions struct {
	// Feed taps the event stream (checker.StoreFeed for an in-process
	// store, checker.ClientFeed for a remote one).
	Feed checker.Feed

	// Checks builds the live bounds for one unit, scoped to the run's
	// request-ID pattern. Returning nil skips live evaluation for that
	// unit.
	Checks func(u Unit, idPattern string) []*checker.Bound
}

func (o Options) withDefaults() Options {
	if o.ID == "" {
		o.ID = "camp"
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
	return o
}

// Run executes a campaign over units against the runner's deployment and
// returns the aggregate scorecard. It stops early — with the scorecard of
// everything settled so far and ctx.Err() — when ctx is cancelled;
// in-flight runs complete and are journalled first.
func Run(ctx context.Context, runner *core.Runner, units []Unit, opts Options) (*Scorecard, error) {
	o := opts.withDefaults()

	prior, err := LoadJournal(o.JournalPath)
	if err != nil {
		return nil, err
	}
	s := newSched(units, prior)

	j, err := openJournal(o.JournalPath)
	if err != nil {
		return nil, err
	}
	defer j.close()

	entries := make([]Entry, 0, len(units))
	for _, e := range prior {
		if _, known := s.unitIdx[e.Unit]; known && e.Status != StatusError {
			entries = append(entries, e)
		}
	}

	var (
		mu         sync.Mutex
		journalErr error
	)
	settle := func(e Entry) {
		err := j.append(e)
		mu.Lock()
		entries = append(entries, e)
		if err != nil && journalErr == nil {
			journalErr = err
		}
		mu.Unlock()
		if o.OnEntry != nil {
			o.OnEntry(e)
		}
	}

	workers := o.Parallelism
	if n := s.remaining(); workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				idx, dupOf, ok := s.next()
				if !ok {
					return
				}
				u := units[idx]
				if dupOf != "" {
					settle(Entry{
						Campaign: o.ID, Unit: u.Key, Kind: u.Kind,
						Service: u.Service, Target: u.Target,
						Status: StatusSkipped, Signature: u.Signature,
						Edges: u.Edges, EIs: u.EIs,
						Reason: "redundant with " + dupOf,
					})
					continue
				}
				settle(runUnit(ctx, runner, u, idx, o))
			}
		}()
	}
	wg.Wait()

	sc := BuildScorecard(o.ID, runner.Graph(), entries)
	if journalErr != nil {
		return sc, journalErr
	}
	return sc, ctx.Err()
}

// runUnit executes one unit under its own request-ID namespace and returns
// its journal entry. Operational failures become error entries (re-run on
// resume) rather than aborting the campaign.
func runUnit(ctx context.Context, runner *core.Runner, u Unit, idx int, o Options) Entry {
	runID := fmt.Sprintf("%s-%d", o.ID, idx)
	idPrefix := "camp-" + runID + "-"
	pat := idPrefix + "*"
	e := Entry{
		Campaign: o.ID, Unit: u.Key, Kind: u.Kind,
		Service: u.Service, Target: u.Target,
		RunID: runID, Signature: u.Signature, Edges: u.Edges, EIs: u.EIs,
	}

	recipe := u.Recipe
	recipe.Pattern = pat

	// Live observation: a monitor over the run's namespaced records whose
	// first violation cancels the load context, aborting the experiment
	// early. The subscription races the very first records by a goroutine
	// hop at most — rule installation sits between watch start and load
	// start, and violations of interest repeat throughout a faulted run.
	//
	// loadCtx deliberately does NOT derive from ctx: cancelling the
	// campaign stops dispatching new units while in-flight runs drain and
	// journal cleanly (the resume contract). Only a live violation cuts a
	// run's load short.
	loadCtx, cancelLoad := context.WithCancel(context.Background())
	defer cancelLoad()
	var (
		monitor   *checker.Monitor
		watchDone chan struct{}
	)
	if o.Observe != nil && o.Observe.Feed != nil && o.Observe.Checks != nil {
		if checks := o.Observe.Checks(u, pat); len(checks) > 0 {
			monitor = checker.NewMonitor(checks, func(checker.Violation) { cancelLoad() })
			watchCtx, stopWatch := context.WithCancel(context.Background())
			watchDone = make(chan struct{})
			go func() {
				defer close(watchDone)
				_ = checker.Watch(watchCtx, o.Observe.Feed, pat, monitor, true)
			}()
			defer func() { stopWatch(); <-watchDone }()
		}
	}

	var droppedBefore int64
	if o.DroppedCount != nil {
		droppedBefore = o.DroppedCount()
	}
	// The observer's window opens when the translated rules are about to
	// install and closes when the entry settles; runs that never reach
	// installation (translation errors) open no window.
	observing := false
	finishRun := func(e Entry) {
		if observing {
			o.RunObserver.RunFinished(u, runID, e)
		}
	}
	ropts := core.RunOptions{
		AfterTranslate: func(rs []rules.Rule) {
			e.Edges = edgesOf(rs)
			if o.RunObserver != nil {
				observing = true
				o.RunObserver.RunStarted(u, runID, rs)
			}
		},
		Owner:    runID,
		LeaseTTL: o.LeaseTTL,
	}
	if o.Load != nil {
		ropts.Load = func() error {
			err := o.Load(loadCtx, idPrefix)
			if monitor != nil && monitor.Violated() {
				// The load was cut short on purpose; the violation, not the
				// cancellation, is the story.
				return nil
			}
			return err
		}
	}
	if o.LeaseTTL > 0 {
		// Heartbeat the lease while the run lives, so runs longer than
		// the TTL keep their faults staged; only a crash stops renewal.
		interval := o.LeaseTTL / 3
		if interval <= 0 {
			interval = time.Millisecond
		}
		stopRenew := make(chan struct{})
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-stopRenew:
					return
				case <-t.C:
					// Fails harmlessly before the rules are staged and
					// after they are reverted.
					_ = runner.Orchestrator().RenewLease(runID, o.LeaseTTL)
				}
			}
		}()
		defer close(stopRenew)
	}
	// The run itself is never cut short by campaign cancellation (the
	// resume contract: in-flight runs drain, revert, and journal cleanly),
	// so orchestration uses a fresh context rather than ctx.
	report, err := runner.Run(context.Background(), recipe, ropts)
	// Blast radius must be computed before cleanup reclaims the run's
	// records. An analysis error is not worth failing the run over; the
	// entry simply carries no blast fields.
	if traces, terr := tracing.FromSource(runner.Checker().Source(),
		eventlog.Query{IDPattern: pat}); terr == nil {
		blast := tracing.BlastRadius(traces)
		e.BlastReached, e.BlastFailed = blast.Reached, blast.Failed
	}
	if n, cerr := eventlog.CountRecords(runner.Checker().Source(),
		eventlog.Query{IDPattern: pat}); cerr == nil {
		e.RecordCount = n
	}
	if o.Cleanup != nil {
		o.Cleanup(u, pat)
	}
	if o.DroppedCount != nil {
		e.LogsDropped = o.DroppedCount() - droppedBefore
	}
	if monitor != nil {
		if v, ok := monitor.FirstViolation(); ok {
			e.LiveViolation = v.String()
		}
	}
	if err != nil {
		e.Status, e.Reason = StatusError, err.Error()
		finishRun(e)
		return e
	}
	e.Results = report.Results
	e.ElapsedMillis = report.TotalTime().Milliseconds()
	if report.Passed() && e.LiveViolation == "" {
		e.Status = StatusPassed
	} else {
		e.Status = StatusFailed
	}
	finishRun(e)
	return e
}

// sched is the feedback-driven scheduler: a priority pick over pending
// units (most not-yet-exercised edges first, then enumeration order, which
// puts assertion-rich templates ahead of generic ones) plus the executed-
// signature set that prunes redundant units at dispatch time.
type sched struct {
	mu        sync.Mutex
	units     []Unit
	pending   []int
	unitIdx   map[string]int
	sigOwner  map[string]string
	exercised map[graph.Edge]bool
}

func newSched(units []Unit, prior []Entry) *sched {
	s := &sched{
		units:     units,
		unitIdx:   make(map[string]int, len(units)),
		sigOwner:  make(map[string]string),
		exercised: make(map[graph.Edge]bool),
	}
	for i, u := range units {
		s.unitIdx[u.Key] = i
	}
	done := make(map[string]bool, len(prior))
	for _, e := range prior {
		if _, known := s.unitIdx[e.Unit]; !known {
			continue
		}
		if e.Status == StatusError {
			continue // re-run errored units
		}
		if e.Status == StatusTelemetry {
			continue // annotation, not an outcome: never marks a unit done
		}
		done[e.Unit] = true
		if e.Status == StatusSkipped {
			continue
		}
		if e.Signature != "" {
			s.sigOwner[e.Signature] = e.Unit
		}
		for _, edge := range e.Edges {
			s.exercised[edge] = true
		}
	}
	for i, u := range units {
		if !done[u.Key] {
			s.pending = append(s.pending, i)
		}
	}
	return s
}

func (s *sched) remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// next pops the highest-priority pending unit and atomically claims its
// signature. dupOf names the prior claimant when the unit is redundant
// (the caller journals a skip instead of running it).
func (s *sched) next() (idx int, dupOf string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return 0, "", false
	}
	best, bestScore := 0, -1
	for pi, ui := range s.pending {
		score := 0
		for _, e := range s.units[ui].Edges {
			if !s.exercised[e] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = pi, score
		}
	}
	idx = s.pending[best]
	s.pending = append(s.pending[:best], s.pending[best+1:]...)

	u := s.units[idx]
	// A unit without a signature (not produced by Enumerate/Finalize) is
	// never treated as redundant — an empty string must not become a
	// signature class that swallows every unsigned unit after the first.
	if u.Signature != "" {
		if owner, dup := s.sigOwner[u.Signature]; dup {
			return idx, owner, true
		}
		s.sigOwner[u.Signature] = u.Key
	}
	// Mark edges at dispatch, not completion, so concurrent workers
	// spread across the graph instead of piling onto the same hot edges.
	for _, e := range u.Edges {
		s.exercised[e] = true
	}
	return idx, "", true
}
