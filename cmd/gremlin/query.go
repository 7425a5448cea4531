package main

import (
	"flag"
	"fmt"
	"time"

	"gremlin/internal/eventlog"
)

// storeCommand runs one of the verbs that address the event store
// (-store): query, stats, wipe.
func storeCommand(sub string, args []string) error {
	fs := flag.NewFlagSet("gremlin "+sub, flag.ContinueOnError)
	var (
		storeURL = fs.String("store", "", "event store URL (required)")
		src      = fs.String("src", "", "filter by source service")
		dst      = fs.String("dst", "", "filter by destination service")
		kind     = fs.String("kind", "", "filter by kind: request|reply")
		pat      = fs.String("pattern", "", "filter by request-ID pattern")
		limit    = fs.Int("limit", 100, "maximum records to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeURL == "" {
		return fmt.Errorf("gremlin %s: -store is required", sub)
	}
	client := eventlog.NewClient(*storeURL, nil)

	switch sub {
	case "query":
		recs, err := client.Select(eventlog.Query{
			Src: *src, Dst: *dst, Kind: eventlog.Kind(*kind), IDPattern: *pat, Limit: *limit,
		})
		if err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Printf("%s %-8s %s->%s id=%s status=%d latency=%.1fms fault=%q\n",
				r.Timestamp.Format(time.RFC3339Nano), r.Kind, r.Src, r.Dst,
				r.RequestID, r.Status, r.LatencyMillis, r.FaultAction)
		}
		fmt.Printf("%d records\n", len(recs))
	case "stats":
		info, err := client.Info()
		if err != nil {
			return err
		}
		fmt.Printf("%d records across %d shards, %s\n",
			info.Records, info.Shards, describeDurability(info))
	case "wipe":
		n, err := client.Clear()
		if err != nil {
			return err
		}
		fmt.Printf("dropped %d records\n", n)
	}
	return nil
}

// describeDurability renders a StoreInfo's WAL configuration for humans.
func describeDurability(info eventlog.StoreInfo) string {
	if !info.Persistent {
		return "volatile"
	}
	s := "wal fsync=" + info.Fsync
	if info.FsyncIntervalMillis > 0 {
		s += fmt.Sprintf("/%dms", info.FsyncIntervalMillis)
	}
	return s + " dir=" + info.DataDir
}
