// Command gremlin-watch tails a deployment's event stream and evaluates
// online assertions against it, exiting non-zero the moment one is
// violated — the live counterpart of the batch Assertion Checker. Point it
// at the same store a recipe or campaign run ships to (scoped to the run's
// request-ID pattern) and it flags the failure while the experiment is
// still running, instead of after the post-hoc check.
//
// Usage:
//
//	gremlin-watch -store http://127.0.0.1:9200 -pattern 'test-*' \
//	    -assert asserts.json
//	gremlin-watch -store http://127.0.0.1:9200 -pattern 'camp-run-3-*' \
//	    -max-failures 0 -max-latency-p99 250ms -window 10s -duration 2m
//
// The -assert file is a JSON array of checker.Spec objects, rejected on
// unknown fields or meaningless bounds; -max-failures and -max-latency-p99
// are shorthands for the two most common specs (a checkStatus on every
// failure reply and a withRule p99 replyLatency, both over -window).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gremlin/internal/checker"
	"gremlin/internal/eventlog"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gremlin-watch", flag.ContinueOnError)
	var (
		storeURL    = fs.String("store", "", "event store URL (required)")
		pattern     = fs.String("pattern", "*", "request-ID pattern to tail (glob, or \"re:\" prefix for a regexp)")
		assertPath  = fs.String("assert", "", "JSON file of assertion specs (array of checker.Spec)")
		maxFailures = fs.Int("max-failures", -1, "violate after more than this many failure replies (-1 disables)")
		maxP99      = fs.Duration("max-latency-p99", 0, "violate when the p99 reply latency exceeds this (0 disables)")
		window      = fs.Duration("window", 10*time.Second, "sliding window for -max-failures and -max-latency-p99")
		duration    = fs.Duration("duration", 0, "stop watching after this long (0 = until violation or interrupt)")
		quiet       = fs.Bool("quiet", false, "print nothing but the violation")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeURL == "" {
		return errors.New("gremlin-watch: -store is required")
	}

	// The stream subscription already scopes records to -pattern, so the
	// shorthand bounds filter on nothing further.
	var specs []checker.Spec
	if *assertPath != "" {
		f, err := os.Open(*assertPath)
		if err != nil {
			return err
		}
		specs, err = checker.LoadSpecs(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *assertPath, err)
		}
	}
	windowMillis := float64(*window) / float64(time.Millisecond)
	if *maxFailures >= 0 {
		specs = append(specs, checker.Spec{Type: "checkStatus", Status: -1,
			Max: float64(*maxFailures), WindowMillis: windowMillis})
	}
	if *maxP99 > 0 {
		specs = append(specs, checker.Spec{Type: "replyLatency", Quantile: 0.99, WithRule: true,
			MaxLatencyMillis: float64(*maxP99) / float64(time.Millisecond), WindowMillis: windowMillis})
	}
	if len(specs) == 0 {
		return errors.New("gremlin-watch: no assertions — pass -assert, -max-failures, or -max-latency-p99")
	}
	checks, err := checker.BuildAll(specs)
	if err != nil {
		return fmt.Errorf("gremlin-watch: %w", err)
	}

	client := eventlog.NewClient(*storeURL, nil)
	if !client.Healthy() {
		return fmt.Errorf("gremlin-watch: event store %s not reachable", *storeURL)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	if !*quiet {
		fmt.Printf("gremlin-watch: tailing %s pattern %q with %d assertions\n",
			*storeURL, *pattern, len(checks))
	}
	monitor := checker.NewMonitor(checks, nil)
	err = checker.Watch(ctx, checker.ClientFeed(client), *pattern, monitor, true)

	if v, ok := monitor.FirstViolation(); ok {
		return fmt.Errorf("gremlin-watch: VIOLATION after %d records: %s", monitor.Observed(), v)
	}
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if !*quiet {
		fmt.Printf("gremlin-watch: no violation in %d records\n", monitor.Observed())
	}
	return nil
}
