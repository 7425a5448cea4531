// Command gremlin-explore runs coverage-guided fault exploration against a
// live deployment: it probes the application fault-free to inventory its
// injection points by execution index, then iteratively faults each
// unexercised point — replaying the enabling faults that revealed it — and
// mines every run's traces for call paths that only exist under failure
// (retries, fallbacks), until the frontier runs dry.
//
// Progress appends to the campaign JSONL journal, so an interrupted
// exploration (Ctrl-C, crash) resumes where it left off without re-running
// completed points:
//
//	gremlin-explore \
//	    -graph graph.json -registry registry.json \
//	    -store http://127.0.0.1:9200 -load-url http://127.0.0.1:8080 \
//	    -journal explore.jsonl -out scorecard.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/explore"
	"gremlin/internal/graph"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gremlin-explore", flag.ContinueOnError)
	var (
		graphPath    = fs.String("graph", "", "application graph JSON file: [{\"src\":..,\"dst\":..}] (required)")
		registryPath = fs.String("registry", "", "registry JSON file: [{\"service\":..,\"addr\":..,\"agentControlUrl\":..}] (required)")
		storeURL     = fs.String("store", "", "event store URL (required)")
		loadURL      = fs.String("load-url", "", "URL to inject test load at (required)")
		requests     = fs.Int("requests", 20, "test requests per run")
		concurrency  = fs.Int("concurrency", 2, "load concurrency within one run")
		parallelism  = fs.Int("parallelism", 2, "concurrent runs within one frontier round")
		id           = fs.String("id", "explore", "exploration ID (namespaces request IDs and journal keys)")
		journalPath  = fs.String("journal", "", "JSONL journal for resume (optional)")
		outPath      = fs.String("out", "", "write the scorecard JSON here (optional)")
		mdPath       = fs.String("markdown", "", "write the Markdown scorecard here (default stdout)")
		maxRounds    = fs.Int("max-rounds", 8, "bound on frontier rounds")
		dryRounds    = fs.Int("dry-rounds", 2, "consecutive rounds with no new points before convergence")
		maxCombo     = fs.Int("max-combination", 2, "largest multi-fault combination along critical paths (1 disables)")
		maxCombos    = fs.Int("max-combos", 8, "total multi-fault combination units generated")
		errorCode    = fs.Int("error-code", 503, "abort status injected at each point")
		lease        = fs.Duration("lease", 30*time.Second, "lease TTL for each run's staged faults (0 disables leasing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for name, v := range map[string]string{
		"-graph": *graphPath, "-registry": *registryPath, "-store": *storeURL, "-load-url": *loadURL,
	} {
		if v == "" {
			return fmt.Errorf("gremlin-explore: %s is required", name)
		}
	}

	graphRaw, err := os.ReadFile(*graphPath)
	if err != nil {
		return err
	}
	var edges []graph.Edge
	if err := json.Unmarshal(graphRaw, &edges); err != nil {
		return fmt.Errorf("parse %s: %w", *graphPath, err)
	}
	g := graph.FromEdges(edges)

	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}

	storeClient := eventlog.NewClient(*storeURL, nil)
	if !storeClient.Healthy() {
		return fmt.Errorf("gremlin-explore: event store %s not reachable", *storeURL)
	}
	runner := core.NewRunner(g, orchestrator.New(reg), storeClient, core.ClearerFunc(func() int {
		n, err := storeClient.Clear()
		if err != nil {
			log.Printf("clear store: %v", err)
		}
		return n
	}))

	// Ctrl-C stops dispatching; in-flight runs drain and are journalled, so
	// a re-run with the same -journal resumes instead of starting over.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	opts := explore.Options{
		ID:             *id,
		JournalPath:    *journalPath,
		Parallelism:    *parallelism,
		MaxRounds:      *maxRounds,
		DryRounds:      *dryRounds,
		MaxCombination: *maxCombo,
		MaxCombos:      *maxCombos,
		ErrorCode:      *errorCode,
		LeaseTTL:       *lease,
		Load: func(ctx context.Context, idPrefix string) error {
			_, err := loadgen.Run(*loadURL, loadgen.Options{
				N: *requests, Concurrency: *concurrency, IDPrefix: idPrefix,
				Context: ctx,
				RNG:     rand.New(rand.NewSource(time.Now().UnixNano())),
			})
			return err
		},
		Cleanup: func(pat string) {
			if _, err := storeClient.ClearMatching(pat); err != nil {
				log.Printf("reclaim %s: %v", pat, err)
			}
		},
		OnEntry: func(e campaign.Entry) {
			fmt.Printf("  %-7s %-14s %s\n", e.Status, e.Kind, e.Unit)
		},
	}

	res, runErr := explore.Explore(ctx, runner, opts)
	if runErr != nil && runErr != context.Canceled {
		return runErr
	}

	sc := res.Scorecard
	md := sc.Markdown()
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Print("\n" + md)
	}
	if revealed := res.Revealed(); len(revealed) > 0 {
		fmt.Printf("\npoints revealed only under fault:\n")
		for _, p := range revealed {
			fmt.Printf("  %s (revealed by %v, round %d, exercised=%v)\n",
				p.EI, p.RevealedBy, p.Round, p.Exercised)
		}
	}
	if *outPath != "" {
		b, err := sc.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, b, 0o644); err != nil {
			return err
		}
	}

	if runErr == context.Canceled {
		return fmt.Errorf("gremlin-explore: interrupted after %d rounds — rerun with the same -journal to resume",
			res.Rounds)
	}
	if !res.Converged {
		return fmt.Errorf("gremlin-explore: frontier not dry after %d rounds (raise -max-rounds)", res.Rounds)
	}
	if sc.Errors > 0 {
		return fmt.Errorf("gremlin-explore: %d units hit operational errors", sc.Errors)
	}
	if sc.Failed > 0 {
		return fmt.Errorf("gremlin-explore: %d of %d executed units failed assertions", sc.Failed, sc.Executed)
	}
	return nil
}
