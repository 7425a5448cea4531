// gremlin-top is a live terminal dashboard over the telemetry plane:
// per-service request rate, error ratio, and latency quantile columns,
// active fault windows, and violation flashes for units that just failed.
//
// Two modes:
//
//	gremlin-top -attach http://127.0.0.1:9200
//	    consume a running telemetry server's SSE snapshot stream
//	    (gremlin-campaign -telemetry-listen starts one).
//
//	gremlin-top -registry registry.json [-store URL]
//	    scrape the fleet's agents (and optionally the store) directly
//	    and compute snapshots locally.
//
// -format html renders a static HTML report with inline SVG sparklines
// instead of the live view (scrape mode only — the report needs the raw
// series, which the SSE stream does not carry).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gremlin/internal/registry"
	"gremlin/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gremlin-top:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("gremlin-top", flag.ContinueOnError)
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
		return fmt.Errorf("exactly one of -attach or -registry is required")
	}
	if *format != "text" && *format != "html" {
		return fmt.Errorf("unknown -format %q", *format)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *attach != "" {
		if *format == "html" {
			return fmt.Errorf("-format html needs raw series: use -registry mode")
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

	frame := 0
	for {
		scraper.ScrapeOnce(ctx)
		frame++
		if *format == "text" {
			snap := telemetry.BuildSnapshot(store, nil, scraper, *window, 10*time.Second)
			printFrame(out, renderSnapshot(snap, *plain), *plain, frame == 1)
		}
		if *frames > 0 && frame >= *frames {
			break
		}
		select {
		case <-ctx.Done():
			frame = -1
		case <-time.After(*interval):
		}
		if frame < 0 {
			break
		}
	}
	if *format == "html" {
		report := telemetry.HTMLReport("gremlin-top — fleet telemetry", store, nil, nil)
		if *htmlOut == "" {
			fmt.Fprint(out, report)
			return nil
		}
		return os.WriteFile(*htmlOut, []byte(report), 0o644)
	}
	return nil
}

// attachLoop consumes the telemetry server's SSE stream and renders each
// pushed snapshot.
func attachLoop(ctx context.Context, base string, frames int, plain bool, out *os.File) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(base, "/")+"/v1/stream", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("attach %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("attach %s: status %d", base, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	frame := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			continue
		}
		frame++
		printFrame(out, renderSnapshot(snap, plain), plain, frame == 1)
		if frames > 0 && frame >= frames {
			return nil
		}
	}
	if ctx.Err() != nil {
		return nil // interrupted: a clean exit
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

func printFrame(out *os.File, body string, plain, first bool) {
	if !plain {
		// Clear and home between frames; the first frame also clears
		// whatever was on screen.
		fmt.Fprint(out, "\x1b[2J\x1b[H")
		_ = first
	}
	fmt.Fprint(out, body)
}

// renderSnapshot renders one dashboard frame.
func renderSnapshot(s telemetry.Snapshot, plain bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gremlin-top  %s  window=%s  targets=%d scrapes=%d errors=%d stale=%d\n",
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
