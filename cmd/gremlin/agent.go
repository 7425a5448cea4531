package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/httpx"
	"gremlin/internal/proxy"
	"gremlin/internal/registry"
)

// agentConfig is the agent verb's JSON config, mirroring the paper's
// "localhost:<port> -> (list of remotehost[:remoteport])" dependency
// mappings:
//
//	{
//	  "service": "serviceA",
//	  "control": "127.0.0.1:9001",
//	  "logstore": "http://127.0.0.1:9200",
//	  "routes": [
//	    {"dst": "serviceB", "listenAddr": "127.0.0.1:7001",
//	     "targets": ["10.0.0.2:8080", "10.0.0.3:8080"]}
//	  ],
//	  "l4": [
//	    {"dst": "db", "listenAddr": "127.0.0.1:7002",
//	     "targets": ["10.0.0.4:5432"]}
//	  ]
//	}
//
// "routes" are HTTP dependencies served by the L7 proxy; "l4" lists raw-TCP
// dependencies (databases, caches) served by stream relays that inject
// connection-level faults (sever, half-open, throttle, connect-refuse).
// The -l4 flag appends ad-hoc relays without a config edit.
type agentConfig struct {
	Service  string          `json:"service"`
	AgentID  string          `json:"agentId,omitempty"`
	Control  string          `json:"control"`
	LogStore string          `json:"logstore,omitempty"`
	Routes   []proxy.Route   `json:"routes"`
	L4       []proxy.L4Route `json:"l4,omitempty"`

	// ServiceAddr is the co-located microservice's own listen address,
	// registered (with -registry) so dependents and health checkers can
	// reach the workload this agent fronts.
	ServiceAddr string `json:"serviceAddr,omitempty"`

	// Replica is this instance's replica index within its service.
	Replica int `json:"replica,omitempty"`
}

// l4Flags collects repeated -l4 dst=listen=target[,target...] values.
type l4Flags []proxy.L4Route

func (f *l4Flags) String() string { return fmt.Sprintf("%v", []proxy.L4Route(*f)) }

func (f *l4Flags) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return fmt.Errorf("want dst=listenAddr=target[,target...], got %q", v)
	}
	*f = append(*f, proxy.L4Route{
		Dst:        parts[0],
		ListenAddr: parts[1],
		Targets:    strings.Split(parts[2], ","),
	})
	return nil
}

// runAgent runs a standalone Gremlin agent until ctx is cancelled: the
// sidecar Layer-7 proxy through which a microservice reaches its
// dependencies. The agent injects faults on messages matching its
// installed rules and ships observations to the event-log store.
//
//	gremlin agent -config agent.json
//	gremlin agent -config agent.json -l4 db=127.0.0.1:7002=10.0.0.4:5432
func runAgent(ctx context.Context, args []string) (err error) {
	fs := flag.NewFlagSet("gremlin agent", flag.ContinueOnError)
	configPath := fs.String("config", "", "path to the agent JSON config (required)")
	flushEvery := fs.Duration("flush", 2*time.Second, "interval for flushing buffered observations")
	pprofAddr := fs.String("pprof", "", "listen address for /debug/pprof/ endpoints (disabled when empty)")
	registryURL := fs.String("registry", "", "dynamic registry server URL; the agent registers itself and heartbeats its lease (disabled when empty)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "registration lease TTL when -registry is set")
	var l4 l4Flags
	fs.Var(&l4, "l4", "add a stream relay: dst=listenAddr=target[,target...] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		fs.Usage()
		return fmt.Errorf("gremlin agent: -config is required")
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg agentConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return fmt.Errorf("gremlin agent: parse %s: %w", *configPath, err)
	}

	// Deferred closes run in reverse: the agent stops logging before the
	// sink ships what it still buffers.
	var sink eventlog.Sink
	if cfg.LogStore != "" {
		client := eventlog.NewClient(cfg.LogStore, nil)
		if !client.Healthy() {
			log.Printf("warning: log store %s not reachable yet; observations will be buffered", cfg.LogStore)
		}
		// The sink's own background flusher ships on size or interval, so no
		// extra plumbing is needed to get observations to the store promptly
		// under light traffic.
		buffered := eventlog.NewBufferedSinkOpts(client, eventlog.BufferOptions{
			Size:     256,
			Interval: *flushEvery,
		})
		defer closeKeep(&err, buffered.Close)
		sink = buffered
	}

	agent, err := proxy.New(proxy.Config{
		ServiceName: cfg.Service,
		AgentID:     cfg.AgentID,
		ControlAddr: cfg.Control,
		Routes:      cfg.Routes,
		L4Routes:    append(cfg.L4, l4...),
		Sink:        sink,
	})
	if err != nil {
		return err
	}
	defer closeKeep(&err, agent.Close)
	agent.Start()
	fmt.Printf("gremlin agent for service %q\n", cfg.Service)
	fmt.Printf("  control API: %s\n", agent.ControlURL())
	if *pprofAddr != "" {
		dbg, err := httpx.StartPprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("  pprof: %s/debug/pprof/\n", dbg.URL())
	}
	for _, r := range cfg.Routes {
		addr, err := agent.RouteAddr(r.Dst)
		if err != nil {
			return err
		}
		fmt.Printf("  route %s -> %v via %s\n", r.Dst, r.Targets, addr)
	}
	for _, r := range append(cfg.L4, l4...) {
		addr, err := agent.L4RouteAddr(r.Dst)
		if err != nil {
			return err
		}
		fmt.Printf("  l4 relay %s -> %v via %s\n", r.Dst, r.Targets, addr)
	}

	if *registryURL != "" {
		addr := cfg.ServiceAddr
		if addr == "" {
			// Without a workload address, register the agent's own control
			// endpoint host so membership at least reflects the sidecar.
			addr = strings.TrimPrefix(agent.ControlURL(), "http://")
		}
		stopHeartbeat := registry.NewClient(*registryURL, nil).Heartbeat(registry.Instance{
			Service:         cfg.Service,
			Addr:            addr,
			AgentControlURL: agent.ControlURL(),
			Replica:         cfg.Replica,
		}, *leaseTTL, *leaseTTL/3)
		defer stopHeartbeat()
		fmt.Printf("  registered with %s (lease %s, heartbeat %s)\n", *registryURL, *leaseTTL, *leaseTTL/3)
	}

	<-ctx.Done()
	fmt.Println("shutting down")
	return nil
}
