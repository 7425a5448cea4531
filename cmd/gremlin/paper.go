package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gremlin/internal/experiments"
)

// figures are the paper's evaluation artifacts (§7) in print order, keyed
// by their -fig value.
var figures = []struct {
	key, name string
	run       func(experiments.Options) error
}{
	{"table1", "table 1", printed(experiments.Table1, experiments.PrintTable1)},
	{"5", "figure 5", printed(experiments.Figure5, experiments.PrintFigure5)},
	{"6", "figure 6", printed(experiments.Figure6, experiments.PrintFigure6)},
	{"7", "figure 7", printed(experiments.Figure7, experiments.PrintFigure7)},
	{"8", "figure 8", printed(experiments.Figure8, experiments.PrintFigure8)},
}

// printed runs an artifact's generator and prints its series to stdout.
func printed[T any](gen func(experiments.Options) (T, error), print func(io.Writer, T)) func(experiments.Options) error {
	return func(opts experiments.Options) error {
		v, err := gen(opts)
		if err != nil {
			return err
		}
		print(os.Stdout, v)
		return nil
	}
}

// runPaper regenerates the paper's evaluation (§7) against live
// in-process deployments and prints the series that EXPERIMENTS.md
// records:
//
//	Table 1  — historical outages replayed (fragile FAIL / hardened PASS)
//	Figure 5 — WordPress response-time CDFs under injected delays
//	Figure 6 — aborted-then-delayed CDFs (circuit-breaker test)
//	Figure 7 — orchestration + assertion time vs. application size
//	Figure 8 — proxy rule-matching overhead CDFs
//
// Usage:
//
//	gremlin paper                 # all figures at laptop scale (0.1x delays)
//	gremlin paper -fig 7          # one figure
//	gremlin paper -scale 1        # paper-scale delays (slow: Figure 5 alone
//	                              # injects 100 requests behind 1-4 s delays)
//	gremlin paper -requests 10000 # paper-scale request counts
func runPaper(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin paper", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: table1 | 5 | 6 | 7 | 8 | all")
	scale := fs.Float64("scale", 0.1, "multiplier on the paper's injected delays (1 = paper scale)")
	requests := fs.Int("requests", 0, "override per-point request count (0 = scaled defaults)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{Scale: *scale, Requests: *requests, Seed: *seed}

	matched := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.key {
			continue
		}
		matched = true
		// Cancellation stops cleanly at the next figure boundary — each
		// figure tears down its own in-process deployment, so interrupting
		// between figures leaks nothing.
		if ctx.Err() != nil {
			return fmt.Errorf("gremlin paper: interrupted before %s", f.name)
		}
		start := time.Now()
		if err := f.run(opts); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Printf("  [%s regenerated in %s]\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		return fmt.Errorf("gremlin paper: unknown figure %q", *fig)
	}
	return nil
}
