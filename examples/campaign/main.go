// Command campaign sweeps an entire application's fault space in one go:
// it enumerates scenario templates × targets × parameter grids from the
// graph of a live 7-service binary tree, executes the plan through a
// parallel worker pool — each run confined to its own request-ID
// namespace, so runs never fault or assert on each other's traffic — and
// prints the aggregate per-edge resilience scorecard.
//
// Along the way it demonstrates the engine's two efficiency levers:
// coverage signatures prune scenarios that would inject indistinguishable
// faults (crashing a leaf ≡ severing its only inbound edge), and the
// JSONL journal makes the campaign resumable after a kill.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gremlin"
	"gremlin/internal/loadgen"
	"gremlin/internal/topology"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("=== Gremlin campaign: systematic fault-space sweep ===")

	// A 7-service binary tree (tree-0 fans out to tree-1/tree-2, and so
	// on), every call flowing through sidecar Gremlin agents.
	spec := topology.BinaryTree(2, 0)
	spec.RNG = rand.New(rand.NewSource(7))
	app, err := topology.Build(spec)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := app.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "close:", cerr)
		}
	}()

	// Enumerate the fault space: overload and crash per service (with the
	// full resilience-pattern assertions), hang per service, partitions,
	// and a sever + delay grid per edge, plus two seeded chaos draws.
	units, err := gremlin.EnumerateCampaign(app.Graph, gremlin.EnumerateOptions{
		Generate: gremlin.GenerateOptions{
			SkipServices: []string{topology.EdgeService},
			MaxLatency:   5 * time.Second,
		},
		HangInterval:  200 * time.Millisecond,
		EdgeDelays:    []time.Duration{30 * time.Millisecond},
		Chaos:         2,
		ChaosSeed:     42,
		ChaosMaxDelay: 30 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	byKind := map[string]int{}
	for _, u := range units {
		byKind[u.Kind]++
	}
	fmt.Printf("\nenumerated %d units over %d services / %d edges:\n",
		len(units), len(app.Graph.Services()), len(app.Graph.Edges()))
	for _, k := range []string{"overload", "crash", "hang", "partition", "sever", "delay", "chaos"} {
		if byKind[k] > 0 {
			fmt.Printf("  %-9s × %d\n", k, byKind[k])
		}
	}

	runner := gremlin.NewRunner(app.Graph, gremlin.NewOrchestrator(app.Registry), app.Store, app.Store)
	journal := filepath.Join(os.TempDir(), fmt.Sprintf("gremlin-campaign-%d.jsonl", os.Getpid()))
	defer os.Remove(journal)

	fmt.Println("\nrunning with parallelism 3 (isolated by request-ID namespace):")
	var n atomic.Int64
	var loadSeed atomic.Int64
	sc, err := gremlin.RunCampaign(context.Background(), runner, units, gremlin.CampaignOptions{
		ID:          "demo",
		Parallelism: 3,
		JournalPath: journal,
		Load: func(ctx context.Context, idPrefix string) error {
			_, err := loadgen.Run(app.EntryURL(), loadgen.Options{
				N: 6, Concurrency: 2, IDPrefix: idPrefix,
				Context: ctx,
				RNG:     rand.New(rand.NewSource(loadSeed.Add(1))),
			})
			return err
		},
		DroppedCount: func() int64 {
			var sum int64
			for _, svc := range app.Services() {
				if a := app.Agent(svc); a != nil {
					sum += a.Stats().LogDropped
				}
			}
			return sum
		},
		Cleanup: func(_ gremlin.CampaignUnit, pat string) { _, _ = app.Store.ClearMatching(pat) },
		OnEntry: func(e gremlin.CampaignEntry) {
			fmt.Printf("  [%2d/%d] %-7s %-9s %s\n", n.Add(1), len(units), e.Status, e.Kind, e.Unit)
		},
	})
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Print(sc.Markdown())
	fmt.Printf("\n%d of %d units were pruned as redundant — e.g. crashing a leaf\n", sc.Skipped, sc.Units)
	fmt.Println("service installs the same rules as severing its only inbound edge,")
	fmt.Println("so one verdict covers both. Kill this program midway and rerun with")
	fmt.Println("the same journal path: completed units are not re-executed.")
	return nil
}
