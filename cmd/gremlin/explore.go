package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/explore"
)

// runExplore runs coverage-guided fault exploration against a live
// deployment: it probes the application fault-free to inventory its
// injection points by execution index, then iteratively faults each
// unexercised point — replaying the enabling faults that revealed it — and
// mines every run's traces for call paths that only exist under failure
// (retries, fallbacks), until the frontier runs dry.
//
// Progress appends to the campaign JSONL journal, so an interrupted
// exploration (Ctrl-C, crash) resumes where it left off without re-running
// completed points:
//
//	gremlin explore \
//	    -graph graph.json -registry registry.json \
//	    -store http://127.0.0.1:9200 -load-url http://127.0.0.1:8080 \
//	    -journal explore.jsonl -out scorecard.json
func runExplore(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin explore", flag.ContinueOnError)
	d := deploymentFlags(fs, withLoad)
	var (
		requests    = fs.Int("requests", 20, "test requests per run")
		concurrency = fs.Int("concurrency", 2, "load concurrency within one run")
		parallelism = fs.Int("parallelism", 2, "concurrent runs within one frontier round")
		id          = fs.String("id", "explore", "exploration ID (namespaces request IDs and journal keys)")
		journalPath = fs.String("journal", "", "JSONL journal for resume (optional)")
		outPath     = fs.String("out", "", "write the scorecard JSON here (optional)")
		mdPath      = fs.String("markdown", "", "write the Markdown scorecard here (default stdout)")
		maxRounds   = fs.Int("max-rounds", 8, "bound on frontier rounds")
		dryRounds   = fs.Int("dry-rounds", 2, "consecutive rounds with no new points before convergence")
		maxCombo    = fs.Int("max-combination", 2, "largest multi-fault combination along critical paths (1 disables)")
		maxCombos   = fs.Int("max-combos", 8, "total multi-fault combination units generated")
		errorCode   = fs.Int("error-code", 503, "abort status injected at each point")
		lease       = fs.Duration("lease", 30*time.Second, "lease TTL for each run's staged faults (0 disables leasing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := d.open(); err != nil {
		return err
	}

	// Cancelling ctx (Ctrl-C) stops dispatching; in-flight runs drain and
	// are journalled, so a re-run with the same -journal resumes instead
	// of starting over.
	res, runErr := explore.Explore(ctx, d.runner, explore.Options{
		ID:             *id,
		JournalPath:    *journalPath,
		Parallelism:    *parallelism,
		MaxRounds:      *maxRounds,
		DryRounds:      *dryRounds,
		MaxCombination: *maxCombo,
		MaxCombos:      *maxCombos,
		ErrorCode:      *errorCode,
		LeaseTTL:       *lease,
		Load:           d.load(*requests, *concurrency),
		Cleanup:        d.reclaim,
		OnEntry: func(e campaign.Entry) {
			fmt.Printf("  %-7s %-14s %s\n", e.Status, e.Kind, e.Unit)
		},
	})
	interrupted := errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		return runErr
	}

	sc := res.Scorecard
	if err := writeScorecard(sc, *mdPath, *outPath); err != nil {
		return err
	}
	if revealed := res.Revealed(); len(revealed) > 0 {
		fmt.Printf("\npoints revealed only under fault:\n")
		for _, p := range revealed {
			fmt.Printf("  %s (revealed by %v, round %d, exercised=%v)\n",
				p.EI, p.RevealedBy, p.Round, p.Exercised)
		}
	}

	if interrupted {
		return fmt.Errorf("gremlin explore: interrupted after %d rounds — rerun with the same -journal to resume",
			res.Rounds)
	}
	if !res.Converged {
		return fmt.Errorf("gremlin explore: frontier not dry after %d rounds (raise -max-rounds)", res.Rounds)
	}
	if sc.Errors > 0 {
		return fmt.Errorf("gremlin explore: %d units hit operational errors", sc.Errors)
	}
	if sc.Failed > 0 {
		return fmt.Errorf("gremlin explore: %d of %d executed units failed assertions", sc.Failed, sc.Executed)
	}
	return nil
}
