package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gremlin/internal/agentapi"
	"gremlin/internal/campaign"
	"gremlin/internal/eventlog"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
)

// runStatus prints each agent's rule-set status — generation, content
// hash, rule count, and whether a self-expiry lease is armed — either for
// one agent (-agent) or for every agent in a registry file (-registry).
func runStatus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin status", flag.ContinueOnError)
	var (
		agentURL      = fs.String("agent", "", "agent control URL")
		registryPath  = fs.String("registry", "", "registry JSON file (all agents)")
		storeURL      = fs.String("store", "", "event store URL (also report store topology and WAL durability)")
		scorecardPath = fs.String("scorecard", "", "campaign scorecard JSON; reports explore point coverage when present")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var urls []string
	switch {
	case *agentURL != "":
		urls = []string{*agentURL}
	case *registryPath != "":
		reg, err := registry.LoadFile(*registryPath)
		if err != nil {
			return err
		}
		urls, err = registry.AllAgentURLs(reg)
		if err != nil {
			return err
		}
	default:
		if *storeURL == "" && *scorecardPath == "" {
			return fmt.Errorf("gremlin status: -agent, -registry, -store or -scorecard is required")
		}
	}

	if *scorecardPath != "" {
		if err := printScorecardStatus(*scorecardPath); err != nil {
			return err
		}
	}

	failed := 0
	if *storeURL != "" {
		info, err := eventlog.NewClient(*storeURL, nil).Info()
		if err != nil {
			fmt.Printf("store %s: UNREACHABLE (%v)\n", *storeURL, err)
			failed++
		} else {
			fmt.Printf("store %s: records=%d shards=%d subscribers=%d subscriberDropped=%d %s\n",
				*storeURL, info.Records, info.Shards,
				info.Subscribers, info.SubscriberDropped, describeDurability(info))
		}
	}
	for _, url := range urls {
		body, err := agentapi.New(url, nil).GetRuleSet(ctx)
		if err != nil {
			fmt.Printf("%s: UNREACHABLE (%v)\n", url, err)
			failed++
			continue
		}
		lease := "permanent"
		if body.Leased {
			lease = "leased"
		}
		// Drop counters ride along from /v1/info: truncated execution
		// indexes and shed log records silently skew every downstream
		// verdict, so status must show them.
		drops := ""
		if info, ierr := agentapi.New(url, nil).Info(ctx); ierr == nil {
			drops = fmt.Sprintf(" eiTruncated=%d logDropped=%d",
				info.Stats.EITruncated, info.Stats.LogDropped)
		}
		fmt.Printf("%s: generation=%d rules=%d %s hash=%s%s\n",
			url, body.Generation, len(body.Rules), lease, body.Hash, drops)
	}
	if failed > 0 {
		return fmt.Errorf("gremlin status: %d of %d agents unreachable", failed, len(urls))
	}
	return nil
}

// printScorecardStatus summarizes a campaign scorecard file: the pass/fail
// headline, and — when the campaign was an exploration — the point-coverage
// counters the explore plane journalled (discovered, exercised, revealed
// only under fault, pruned as EI-equivalent, rounds, convergence).
func printScorecardStatus(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gremlin status: %w", err)
	}
	var sc campaign.Scorecard
	if err := json.Unmarshal(data, &sc); err != nil {
		return fmt.Errorf("gremlin status: parse %s: %w", path, err)
	}
	fmt.Printf("campaign %s: units=%d passed=%d failed=%d errors=%d skipped=%d\n",
		sc.Campaign, sc.Units, sc.Passed, sc.Failed, sc.Errors, sc.Skipped)
	if x := sc.Explore; x != nil {
		state := "frontier not yet dry"
		if x.Converged {
			state = "converged"
		}
		fmt.Printf("explore: points discovered=%d exercised=%d revealed=%d pruned=%d rounds=%d (%s)\n",
			x.PointsDiscovered, x.PointsExercised, x.PointsRevealed, x.PointsPruned, x.Rounds, state)
	}
	return nil
}

// runFleet lists the live members of a dynamic registry server: one line
// per instance with service, replica index, health state, lease age, and
// the agent's current rule-set generation. With -expect N the verb exits
// non-zero when fewer than N instances are live — a scriptable membership
// check for CI smoke tests and deploy gates.
func runFleet(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin fleet", flag.ContinueOnError)
	var (
		regURL = fs.String("registry", "", "dynamic registry server URL (required)")
		expect = fs.Int("expect", 0, "exit non-zero unless at least this many instances are live")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *regURL == "" {
		return fmt.Errorf("gremlin fleet: -registry is required")
	}
	members, err := registry.NewClient(*regURL, nil).Members()
	if err != nil {
		return fmt.Errorf("gremlin fleet: list members: %w", err)
	}

	now := time.Now()
	for _, m := range members {
		health := m.Health
		if health == "" {
			health = "unknown"
		}
		gen := "-"
		if m.AgentControlURL != "" {
			if body, err := agentapi.New(m.AgentControlURL, nil).GetRuleSet(ctx); err == nil {
				gen = fmt.Sprintf("%d", body.Generation)
			} else {
				gen = "unreachable"
			}
		}
		fmt.Printf("%-24s replica=%-3d %-24s %-8s lease=%-8s gen=%s\n",
			m.Service, m.Replica, m.Addr, health,
			m.LeaseAge(now).Round(time.Millisecond), gen)
	}
	fmt.Printf("%d live instances\n", len(members))
	if *expect > 0 && len(members) < *expect {
		return fmt.Errorf("gremlin fleet: %d live instances, expected at least %d", len(members), *expect)
	}
	return nil
}

// runDrift compares every agent's installed rule set against declared
// desired state — the rules in -file, or "no faults anywhere" when -file
// is omitted — and reports which agents have drifted. It is read-only
// unless -repair is set, in which case a reconcile pass converges the
// drifted agents. A non-converged fleet is a non-zero exit.
func runDrift(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin drift", flag.ContinueOnError)
	var (
		registryPath = fs.String("registry", "", "registry JSON file (required)")
		file         = fs.String("file", "", "desired rules JSON file (default: empty — no faults expected)")
		repair       = fs.Bool("repair", false, "converge drifted agents instead of only reporting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *registryPath == "" {
		return fmt.Errorf("gremlin drift: -registry is required")
	}
	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}
	orch := orchestrator.New(reg)
	if *file != "" {
		batch, err := readRules(*file)
		if err != nil {
			return err
		}
		if err := orch.StageOwner("gremlin drift", batch, 0); err != nil {
			return err
		}
	}

	var rep *orchestrator.Report
	if *repair {
		rep, err = orch.Reconcile(ctx)
	} else {
		rep, err = orch.Drift(ctx)
	}
	if err != nil {
		return err
	}
	fmt.Print(rep.Describe())
	if !rep.Converged() {
		return fmt.Errorf("gremlin drift: fleet has not converged")
	}
	fmt.Println("converged")
	return nil
}
