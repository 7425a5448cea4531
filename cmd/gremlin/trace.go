package main

import (
	"flag"
	"fmt"
	"io"

	"gremlin/internal/eventlog"
	"gremlin/internal/tracing"
)

// runTrace assembles causal traces from a Gremlin event log and renders
// them to out: ASCII waterfalls with critical-path and fault-attribution
// analysis, or JSON/DOT for machine consumption.
//
// Records come from a JSONL dump (-file, as written by gremlin logstore
// -persist or Store.SaveFile) or a live store (-store URL).
//
//	gremlin trace -file events.jsonl -pattern 'test-*'
//	gremlin trace -store http://127.0.0.1:9200 -format dot > traces.dot
func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gremlin trace", flag.ContinueOnError)
	file := fs.String("file", "", "JSON Lines event-log dump to read")
	storeURL := fs.String("store", "", "live event store URL to query (alternative to -file)")
	patternFlag := fs.String("pattern", "", "request-ID pattern to select flows (glob or re:, empty for all)")
	format := fs.String("format", "waterfall", "output format: waterfall, json, or dot")
	obsGraph := fs.Bool("obs-graph", false, "also print the observed dependency graph as DOT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*file == "") == (*storeURL == "") {
		return fmt.Errorf("gremlin trace: exactly one of -file or -store is required")
	}

	var source eventlog.Source
	if *file != "" {
		store := eventlog.NewStore()
		n, err := store.LoadFile(*file)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("gremlin trace: %s holds no records", *file)
		}
		source = store
	} else {
		source = eventlog.NewClient(*storeURL, nil)
	}

	traces, err := tracing.FromSource(source, eventlog.Query{IDPattern: *patternFlag})
	if err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("gremlin trace: no traces match pattern %q", *patternFlag)
	}

	switch *format {
	case "waterfall":
		for i, t := range traces {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, tracing.Waterfall(t))
			fmt.Fprint(out, tracing.RenderCriticalPath(t))
		}
	case "json":
		data, err := tracing.JSON(traces)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", data)
	case "dot":
		fmt.Fprint(out, tracing.DOT(traces))
	default:
		return fmt.Errorf("gremlin trace: unknown format %q (want waterfall, json, or dot)", *format)
	}

	if *obsGraph {
		fmt.Fprintln(out)
		fmt.Fprint(out, tracing.ObservedGraph(traces).DOT())
	}
	return nil
}
