// Command gremlin is the one program behind both of Gremlin's roles: the
// data plane (a sidecar agent, the event-log store, a demo deployment)
// and the control plane the operator drives — rule management, recipe
// runs, campaigns, coverage-guided exploration, live watching, tracing,
// telemetry and the paper's evaluation. Each role is a verb:
//
//	gremlin agent -config agent.json
//	gremlin run -recipe r.json -graph g.json -registry reg.json -store URL
//	gremlin help
//
// main derives one context from SIGINT/SIGTERM and hands it to every verb:
// the serve verbs block on it, the others stop their load or their
// dispatch when it is cancelled.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gremlin/internal/campaign"
	"gremlin/internal/checker"
	"gremlin/internal/core"
	"gremlin/internal/eventlog"
	"gremlin/internal/graph"
	"gremlin/internal/loadgen"
	"gremlin/internal/orchestrator"
	"gremlin/internal/registry"
	"gremlin/internal/rules"
)

// verb is one subcommand: its name, the usage section it is listed
// under, a one-line summary, and the function that parses its flags and
// runs it.
type verb struct {
	name, group, summary string
	run                  func(ctx context.Context, args []string) error
}

// verbs is the command table, in usage order.
var verbs = []verb{
	{"agent", "data plane", "run a sidecar agent from a JSON config (-config)", func(ctx context.Context, args []string) error {
		return runAgent(ctx, args, os.Stdout)
	}},
	{"logstore", "data plane", "run the event-log store server (-shards, -data-dir, -fsync)", func(ctx context.Context, args []string) error {
		return runLogstore(ctx, args, os.Stdout)
	}},
	{"demo", "data plane", "spin up a demo topology with agents and a store to experiment against", runDemo},

	agentVerb("info", "show agent identity, routes and rule-set generation"),
	agentVerb("rules", "list installed rules and their generation"),
	agentVerb("install", "add rules from -file at the next generation (refused on a leased set)"),
	agentVerb("remove", "remove one rule by -id, likewise"),
	agentVerb("clear", "remove all rules"),
	agentVerb("flush", "flush buffered observations to the store"),

	{"status", "fleet", "rule-set generation/hash/lease per agent, store durability, scorecard coverage", runStatus},
	{"fleet", "fleet", "list a dynamic registry's live instances; -expect N fails when membership is short", runFleet},
	{"drift", "fleet", "compare agents against desired state (-file); -repair converges; non-zero on drift", runDrift},

	storeVerb("query", "print records (-src -dst -kind -pattern -limit)"),
	storeVerb("stats", "record count, shard count and WAL durability"),
	storeVerb("wipe", "drop all records"),

	{"run", "recipes", "execute a recipe file end to end: stage, load, assert, revert", runRecipe},
	{"autorun", "recipes", "generate a test plan from the graph and run it as a chain", runAutorun},
	{"chaos", "recipes", "randomized fault injection, the Chaos Monkey baseline (no assertions)", runChaos},

	{"campaign", "campaigns", "sweep the fault space: enumerate, run in parallel, prune, journal, scorecard", runCampaign},
	{"explore", "campaigns", "coverage-guided search over injection points until the frontier runs dry", runExplore},

	{"watch", "observe", "tail a run's event stream; exit non-zero on the first assertion violation", runWatch},
	{"trace", "observe", "assemble records into causal traces: waterfall, critical path, attribution", func(_ context.Context, args []string) error {
		return runTrace(args, os.Stdout)
	}},
	{"top", "observe", "live dashboard over the fleet's metrics: rate, errors, latency, fault windows", runTop},

	{"paper", "evaluation", "regenerate the paper's Table 1 and Figures 5-8 (-fig)", runPaper},
}

func agentVerb(name, summary string) verb {
	return verb{name, "agent (-agent <control URL>)", summary, func(ctx context.Context, args []string) error {
		return agentCommand(ctx, name, args)
	}}
}

func storeVerb(name, summary string) verb {
	return verb{name, "store (-store <URL>)", summary, func(_ context.Context, args []string) error {
		return storeCommand(name, args)
	}}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		log.Fatal(err)
	}
}

// run dispatches one command line to its verb.
func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return errors.New("gremlin: missing verb")
	}
	switch args[0] {
	case "help", "-h", "--help":
		usage(os.Stdout)
		return nil
	}
	for _, v := range verbs {
		if v.name == args[0] {
			return v.run(ctx, args[1:])
		}
	}
	usage(os.Stderr)
	return fmt.Errorf("gremlin: unknown verb %q", args[0])
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: gremlin <verb> [flags]")
	group := ""
	for _, v := range verbs {
		if v.group != group {
			group = v.group
			fmt.Fprintf(w, "\n%s:\n", group)
		}
		fmt.Fprintf(w, "  %-9s %s\n", v.name, v.summary)
	}
	fmt.Fprintln(w, "\n'gremlin <verb> -h' lists a verb's flags.")
}

// Which of a deployment's flags a runner verb declares and requires; the
// value counts the required flags past -registry.
const (
	graphOnly = iota // -graph, -registry
	withStore        // and -store; -load-url optional
	withLoad         // and -store and -load-url
)

// deployment is the live application a runner verb drives: the flags
// that name it, and what open loads from them.
type deployment struct {
	verb                                       string
	need                                       int
	graphPath, registryPath, storeURL, loadURL string

	graph    *graph.Graph
	registry *registry.Dynamic
	store    *eventlog.Client
	runner   *core.Runner
}

// deploymentFlags declares on fs the flags that name a deployment, as
// many as need asks for.
func deploymentFlags(fs *flag.FlagSet, need int) *deployment {
	d := &deployment{verb: fs.Name(), need: need}
	fs.StringVar(&d.graphPath, "graph", "", `application graph JSON file: [{"src":..,"dst":..}] (required)`)
	fs.StringVar(&d.registryPath, "registry", "", `registry JSON file: [{"service":..,"addr":..,"agentControlUrl":..}] (required)`)
	if need >= withStore {
		fs.StringVar(&d.storeURL, "store", "", "event store URL (required)")
		loadNote := "(optional)"
		if need == withLoad {
			loadNote = "(required)"
		}
		fs.StringVar(&d.loadURL, "load-url", "", "URL to inject test load at "+loadNote)
	}
	return d
}

// open checks the required flags and loads the graph and the registry.
// A verb that asserts also gets the store, which must answer before a
// runner is built: a fault staged while verdicts cannot be read is a
// live fault with no possible verdict.
func (d *deployment) open() error {
	required := [][2]string{{"-graph", d.graphPath}, {"-registry", d.registryPath}, {"-store", d.storeURL}, {"-load-url", d.loadURL}}
	for _, f := range required[:2+d.need] {
		if f[1] == "" {
			return fmt.Errorf("%s: %s is required", d.verb, f[0])
		}
	}
	raw, err := os.ReadFile(d.graphPath)
	if err != nil {
		return err
	}
	var edges []graph.Edge
	if err := json.Unmarshal(raw, &edges); err != nil {
		return fmt.Errorf("parse %s: %w", d.graphPath, err)
	}
	d.graph = graph.FromEdges(edges)
	if d.registry, err = registry.LoadFile(d.registryPath); err != nil {
		return err
	}
	if d.need == graphOnly {
		return nil
	}
	d.store = eventlog.NewClient(d.storeURL, nil)
	if !d.store.Healthy() {
		return fmt.Errorf("%s: event store %s not reachable", d.verb, d.storeURL)
	}
	d.runner = core.NewRunner(d.graph, orchestrator.New(d.registry), d.store, core.ClearerFunc(func() int {
		n, err := d.store.Clear()
		if err != nil {
			log.Printf("clear store: %v", err)
		}
		return n
	}))
	return nil
}

// load drives n requests per run at -load-url, stamped with the run's
// request-ID prefix (campaign and explore units).
func (d *deployment) load(n, concurrency int) func(ctx context.Context, idPrefix string) error {
	return func(ctx context.Context, idPrefix string) error {
		_, err := loadgen.Run(d.loadURL, loadgen.Options{
			N: n, Concurrency: concurrency, IDPrefix: idPrefix,
			Context: ctx,
			RNG:     rand.New(rand.NewSource(time.Now().UnixNano())),
		})
		return err
	}
}

// reclaim drops a settled run's records from the store.
func (d *deployment) reclaim(pattern string) {
	if _, err := d.store.ClearMatching(pattern); err != nil {
		log.Printf("reclaim %s: %v", pattern, err)
	}
}

// writeScorecard writes sc as Markdown to mdPath (stdout when empty) and
// as JSON to outPath when one is given.
func writeScorecard(sc *campaign.Scorecard, mdPath, outPath string) error {
	md := sc.Markdown()
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Print("\n" + md)
	}
	if outPath == "" {
		return nil
	}
	b, err := sc.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

// loadSpecs reads a JSON file of checker specs; a spec with an unknown
// field or a meaningless bound is an error naming the file.
func loadSpecs(path string) ([]checker.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	specs, err := checker.LoadSpecs(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return specs, nil
}

// readRules reads a JSON array of rules.
func readRules(path string) ([]rules.Rule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var batch []rules.Rule
	if err := json.Unmarshal(raw, &batch); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return batch, nil
}

// closeKeep runs close and keeps its error in *err unless *err already
// holds one: deferred, it releases a resource on every return path.
func closeKeep(err *error, close func() error) {
	if cerr := close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
