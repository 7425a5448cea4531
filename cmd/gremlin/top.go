package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gremlin/internal/httpx"
	"gremlin/internal/registry"
	"gremlin/internal/telemetry"
)

// runTop is a live terminal dashboard over the telemetry plane:
// per-service request rate, error ratio, and latency quantile columns,
// active fault windows, and violation flashes for units that just failed.
//
// Two modes:
//
//	gremlin top -attach http://127.0.0.1:9200
//	    consume a running telemetry server's SSE snapshot stream
//	    (gremlin campaign -telemetry-listen starts one).
//
//	gremlin top -registry registry.json [-store URL]
//	    scrape the fleet's agents (and optionally the store) directly
//	    and compute snapshots locally.
//
// -format html renders a static HTML report with inline SVG sparklines
// instead of the live view (scrape mode only — the report needs the raw
// series, which the SSE stream does not carry).
func runTop(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin top", flag.ContinueOnError)
	var (
		attach       = fs.String("attach", "", "telemetry server base URL to stream snapshots from")
		registryPath = fs.String("registry", "", "registry JSON file; scrape its agents directly")
		storeURL     = fs.String("store", "", "event store base URL to scrape alongside the agents")
		interval     = fs.Duration("interval", time.Second, "scrape/refresh interval")
		window       = fs.Duration("window", 5*time.Second, "trailing window for rate and quantile columns")
		frames       = fs.Int("frames", 0, "render this many frames then exit (0 = until interrupted)")
		plain        = fs.Bool("plain", false, "no ANSI clear/highlight; print frames sequentially")
		format       = fs.String("format", "text", "output format: text (live dashboard) or html (static report)")
		htmlOut      = fs.String("out", "", "write the html report here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*attach == "") == (*registryPath == "") {
		return fmt.Errorf("gremlin top: exactly one of -attach or -registry is required")
	}
	if *format != "text" && *format != "html" {
		return fmt.Errorf("gremlin top: unknown -format %q", *format)
	}
	out := os.Stdout

	if *attach != "" {
		if *format == "html" {
			return fmt.Errorf("gremlin top: -format html needs raw series: use -registry mode")
		}
		return attachLoop(ctx, *attach, *frames, *plain, out)
	}

	reg, err := registry.LoadFile(*registryPath)
	if err != nil {
		return err
	}
	targets, err := telemetry.FleetTargets(reg, *storeURL)
	if err != nil {
		return err
	}
	store := telemetry.NewSeriesStore(0)
	scraper := telemetry.NewScraper(store, targets, telemetry.ScrapeOptions{Interval: *interval})

scrape:
	for frame := 1; ; frame++ {
		scraper.ScrapeOnce(ctx)
		if *format == "text" {
			snap := telemetry.BuildSnapshot(store, nil, scraper, *window, 10*time.Second)
			printFrame(out, renderSnapshot(snap, *plain), *plain)
		}
		if *frames > 0 && frame >= *frames {
			break
		}
		select {
		case <-ctx.Done():
			break scrape
		case <-time.After(*interval):
		}
	}
	if *format == "html" {
		report := telemetry.HTMLReport("gremlin top — fleet telemetry", store, nil, nil)
		if *htmlOut == "" {
			fmt.Fprint(out, report)
			return nil
		}
		return os.WriteFile(*htmlOut, []byte(report), 0o644)
	}
	return nil
}

// errFramesDone ends attachLoop's stream once -frames are rendered.
var errFramesDone = errors.New("frames rendered")

// attachLoop consumes the telemetry server's SSE stream and renders each
// pushed snapshot.
func attachLoop(ctx context.Context, base string, frames int, plain bool, out io.Writer) error {
	c := httpx.Client{BaseURL: strings.TrimRight(base, "/"), HTTP: http.DefaultClient}
	resp, err := c.Do(ctx, http.MethodGet, "/v1/stream", nil)
	if err != nil {
		return fmt.Errorf("attach %s: %w", base, err)
	}
	defer resp.Body.Close()
	frame := 0
	err = httpx.ReadEvents(resp.Body, func(_ string, data []byte) error {
		var snap telemetry.Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return nil
		}
		frame++
		printFrame(out, renderSnapshot(snap, plain), plain)
		if frames > 0 && frame >= frames {
			return errFramesDone
		}
		return nil
	})
	if err == nil || errors.Is(err, errFramesDone) || ctx.Err() != nil {
		return nil // the server closed, -frames were shown, or interrupted
	}
	return fmt.Errorf("stream: %w", err)
}

func printFrame(out io.Writer, body string, plain bool) {
	if !plain {
		// Clear and home before every frame, the first one included.
		fmt.Fprint(out, "\x1b[2J\x1b[H")
	}
	fmt.Fprint(out, body)
}

// renderSnapshot renders one dashboard frame.
func renderSnapshot(s telemetry.Snapshot, plain bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gremlin top  %s  window=%s  targets=%d scrapes=%d errors=%d stale=%d\n",
		s.At.Format("15:04:05"), time.Duration(s.WindowMillis)*time.Millisecond,
		len(s.Scraper.Targets), s.Scraper.Scrapes, s.Scraper.Errors, s.Scraper.StaleTargets)
	b.WriteString("\nSERVICE           RATE/s    ERR%   P50(ms)   P99(ms)\n")
	for _, svc := range s.Services {
		p50, p99 := "—", "—"
		if svc.HasLatency {
			p50 = fmt.Sprintf("%.1f", svc.P50Millis)
			p99 = fmt.Sprintf("%.1f", svc.P99Millis)
		}
		fmt.Fprintf(&b, "%-16s %7.1f  %5.1f%%  %8s  %8s\n",
			svc.Service, svc.Rate, 100*svc.ErrorRatio, p50, p99)
	}
	if len(s.Active) > 0 {
		b.WriteString("\nACTIVE FAULT WINDOWS\n")
		for _, w := range s.Active {
			fmt.Fprintf(&b, "  %-32s %-10s %s  %s elapsed\n",
				w.Unit, w.Kind, w.Target, time.Since(w.Start).Truncate(time.Second))
		}
	}
	if len(s.Recent) > 0 {
		b.WriteString("\nRECENT WINDOWS\n")
		for _, w := range s.Recent {
			line := fmt.Sprintf("  %-32s %-10s %s  %s", w.Unit, w.Kind, w.Target, w.Status)
			if w.Status == "failed" {
				// Violation flash: inverse video on terminals, a marker
				// either way so the state never rides on styling alone.
				line += "  ✕ VIOLATION"
				if !plain {
					line = "\x1b[7m" + line + "\x1b[0m"
				}
			}
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}
