package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"slices"

	"gremlin/internal/agentapi"
	"gremlin/internal/rules"
)

// agentCommand runs one of the verbs that address a single agent's
// control API (-agent): info, rules, install, remove, clear, flush.
func agentCommand(ctx context.Context, sub string, args []string) error {
	fs := flag.NewFlagSet("gremlin "+sub, flag.ContinueOnError)
	agentURL := fs.String("agent", "", "agent control URL (required)")
	file := fs.String("file", "", "rules JSON file (install)")
	id := fs.String("id", "", "rule ID (remove)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agentURL == "" {
		return fmt.Errorf("gremlin %s: -agent is required", sub)
	}
	client := agentapi.New(*agentURL, nil)

	switch sub {
	case "info":
		info, err := client.Info(ctx)
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(info, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	case "rules":
		set, err := client.GetRuleSet(ctx)
		if err != nil {
			return err
		}
		for _, r := range set.Rules {
			fmt.Println(r)
		}
		fmt.Printf("%d rules installed at generation %d\n", len(set.Rules), set.Generation)
	case "install":
		if *file == "" {
			return fmt.Errorf("gremlin install: -file is required")
		}
		batch, err := readRules(*file)
		if err != nil {
			return err
		}
		// The agent rejects a set with duplicate IDs, so an ID already
		// installed fails the whole batch.
		gen, err := editRules(ctx, client, func(cur []rules.Rule) ([]rules.Rule, error) {
			return append(cur, batch...), nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("installed %d rules at generation %d\n", len(batch), gen)
	case "remove":
		if *id == "" {
			return fmt.Errorf("gremlin remove: -id is required")
		}
		gen, err := editRules(ctx, client, func(cur []rules.Rule) ([]rules.Rule, error) {
			n := len(cur)
			if cur = slices.DeleteFunc(cur, func(r rules.Rule) bool { return r.ID == *id }); len(cur) == n {
				return nil, fmt.Errorf("rule %q not installed", *id)
			}
			return cur, nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("removed rule %s at generation %d\n", *id, gen)
	case "clear":
		n, err := client.ClearRules(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("removed %d rules\n", n)
	case "flush":
		if err := client.Flush(ctx); err != nil {
			return err
		}
		fmt.Println("flushed")
	}
	return nil
}

// editRules replaces an agent's rule set with edit(installed rules) at the
// next generation, compare-and-swapped on the generation it read, and
// returns the new generation. A leased rule set is refused: its owner
// renews it, and a PUT without a TTL would disarm the lease.
func editRules(ctx context.Context, client *agentapi.Client, edit func([]rules.Rule) ([]rules.Rule, error)) (uint64, error) {
	cur, err := client.GetRuleSet(ctx)
	if err != nil {
		return 0, err
	}
	if cur.Leased {
		return 0, fmt.Errorf("agent %s holds a leased rule set (generation %d); editing it would disarm its owner's lease",
			client.BaseURL(), cur.Generation)
	}
	next, err := edit(cur.Rules)
	if err != nil {
		return 0, err
	}
	st, err := client.PutRuleSet(ctx, rules.RuleSet{Generation: cur.Generation + 1, Rules: next}, cur.Generation)
	return st.Generation, err
}
