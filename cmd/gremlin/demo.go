package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"gremlin/internal/eventlog"
	"gremlin/internal/topology"
)

// runDemo spins up one of the repository's demo applications — services,
// sidecar Gremlin agents, a registry, and an event store — and keeps it
// running until ctx is cancelled, so the operator can experiment with the
// other verbs and ad-hoc load.
//
//	gremlin demo -topology wordpress
//	gremlin demo -topology tree -depth 3
//	gremlin demo -topology enterprise
//	gremlin demo -topology messagebus
func runDemo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gremlin demo", flag.ContinueOnError)
	topo := fs.String("topology", "wordpress", "tree | wordpress | enterprise | messagebus | twoservices")
	depth := fs.Int("depth", 2, "binary tree depth (tree topology)")
	storeAddr := fs.String("store-addr", "127.0.0.1:0", "listen address for the event store server")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec topology.Spec
	switch *topo {
	case "tree":
		spec = topology.BinaryTree(*depth, 0)
	case "wordpress":
		spec = topology.WordPress(topology.WordPressOptions{})
	case "enterprise":
		spec = topology.Enterprise(topology.EnterpriseOptions{})
	case "messagebus":
		spec = topology.MessageBus(topology.MessageBusOptions{})
	case "twoservices":
		spec = topology.TwoServices(5, 2*time.Millisecond)
	default:
		return fmt.Errorf("gremlin demo: unknown topology %q", *topo)
	}

	app, err := topology.Build(spec)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := app.Close(); cerr != nil {
			log.Printf("close app: %v", cerr)
		}
	}()

	storeServer, err := eventlog.NewServer(*storeAddr, app.Store)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := storeServer.Close(); cerr != nil {
			log.Printf("close store: %v", cerr)
		}
	}()

	fmt.Printf("topology %q is up\n\n", *topo)
	fmt.Printf("  test-load entry : %s   (stamp requests with %s: test-<n>)\n",
		app.EntryURL(), "X-Gremlin-ID")
	fmt.Printf("  event store     : %s\n\n", storeServer.URL())
	fmt.Println("  services:")
	for _, name := range app.Services() {
		u, err := app.ServiceURL(name)
		if err != nil {
			return err
		}
		agentInfo := "no agent (leaf)"
		if a := app.Agent(name); a != nil {
			agentInfo = "agent " + a.ControlURL()
		}
		fmt.Printf("    %-20s %-28s %s\n", name, u, agentInfo)
	}
	fmt.Printf("    %-20s %-28s agent %s\n", topology.EdgeService, app.EntryURL(), app.Agent(topology.EdgeService).ControlURL())
	fmt.Println("\n  application graph:")
	fmt.Print(indent(app.Graph.DOT(), "    "))
	fmt.Println("\nctrl-c to stop")

	<-ctx.Done()
	fmt.Println("shutting down")
	return nil
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += prefix + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += prefix + s[start:]
	}
	return out
}
