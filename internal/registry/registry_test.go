package registry

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStaticAddInstancesServices(t *testing.T) {
	r := NewStatic(
		Instance{Service: "a", Addr: "1.1.1.1:80", AgentControlURL: "http://1.1.1.1:9000"},
		Instance{Service: "a", Addr: "1.1.1.2:80", AgentControlURL: "http://1.1.1.2:9000"},
		Instance{Service: "b", Addr: "1.1.2.1:80"},
	)
	got, err := r.Instances("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Instances(a) = %d, want 2", len(got))
	}
	services, err := r.Services()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(services, want) {
		t.Fatalf("Services = %v", services)
	}
}

func TestStaticUnknownService(t *testing.T) {
	r := NewStatic()
	if _, err := r.Instances("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v", err)
	}
}

func TestStaticAddReplacesSameAddr(t *testing.T) {
	r := NewStatic()
	r.Add(Instance{Service: "a", Addr: "x:1", AgentControlURL: "http://old"})
	r.Add(Instance{Service: "a", Addr: "x:1", AgentControlURL: "http://new"})
	got, err := r.Instances("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AgentControlURL != "http://new" {
		t.Fatalf("got %+v", got)
	}
}

func TestStaticRemove(t *testing.T) {
	r := NewStatic(Instance{Service: "a", Addr: "x:1"})
	if !r.Remove("a", "x:1") {
		t.Fatal("Remove = false")
	}
	if r.Remove("a", "x:1") {
		t.Fatal("second Remove = true")
	}
	if _, err := r.Instances("a"); !errors.Is(err, ErrUnknownService) {
		t.Fatal("service with no instances should be unknown")
	}
}

func TestStaticInstancesCopy(t *testing.T) {
	r := NewStatic(Instance{Service: "a", Addr: "x:1"})
	got, err := r.Instances("a")
	if err != nil {
		t.Fatal(err)
	}
	got[0].Addr = "mutated"
	again, err := r.Instances("a")
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Addr != "x:1" {
		t.Fatal("Instances leaked internal state")
	}
}

func TestStaticConcurrent(t *testing.T) {
	r := NewStatic()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := Instance{Service: "svc", Addr: string(rune('a'+w)) + ":1"}
			for i := 0; i < 100; i++ {
				r.Add(in)
				_, _ = r.Instances("svc")
				_, _ = r.Services()
			}
		}(w)
	}
	wg.Wait()
	got, err := r.Instances("svc")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("got %d instances, want 8", len(got))
	}
}

func TestAgentURLs(t *testing.T) {
	// Instances come back in (replica, addr) order, not insertion order,
	// so the URLs are first-seen in that order: agent2 is listed last
	// although it registered first.
	r := NewStatic(
		Instance{Service: "a", Addr: "x:3", AgentControlURL: "http://agent2"},
		Instance{Service: "a", Addr: "x:1", AgentControlURL: "http://agent1"},
		Instance{Service: "a", Addr: "x:2", AgentControlURL: "http://agent1"}, // shared agent
		Instance{Service: "a", Addr: "x:4"},                                   // agentless
	)
	urls, err := AgentURLs(r, "a")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://agent1", "http://agent2"}; !reflect.DeepEqual(urls, want) {
		t.Fatalf("AgentURLs = %v", urls)
	}
	if _, err := AgentURLs(r, "ghost"); err == nil {
		t.Fatal("want error")
	}
}

func TestAllAgentURLs(t *testing.T) {
	r := NewStatic(
		Instance{Service: "a", Addr: "x:1", AgentControlURL: "http://agent1"},
		Instance{Service: "b", Addr: "x:2", AgentControlURL: "http://agent2"},
		Instance{Service: "c", Addr: "x:3", AgentControlURL: "http://agent1"},
	)
	urls, err := AllAgentURLs(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://agent1", "http://agent2"}; !reflect.DeepEqual(urls, want) {
		t.Fatalf("AllAgentURLs = %v", urls)
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	for _, tt := range []struct {
		name, body string
		want       int    // instances of service a when the load succeeds
		wantErr    string // substring of the error otherwise
	}{
		{"good", `[{"service":"a","addr":"x:1","agentControlUrl":"http://agent1"},{"service":"a","addr":"x:2"}]`, 2, ""},
		{"missing addr", `[{"service":"a","addr":"x:1"},{"service":"a"}]`, 0, "entry 1"},
		{"malformed", `[{"service":`, 0, "parse"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tt.name, " ", "-")+".json")
			if err := os.WriteFile(path, []byte(tt.body), 0o600); err != nil {
				t.Fatal(err)
			}
			r, err := LoadFile(path)
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want one mentioning %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, err := r.Instances("a"); err != nil || len(got) != tt.want {
				t.Fatalf("Instances(a) = %+v, %v; want %d", got, err, tt.want)
			}
		})
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("a missing file should be an error")
	}
}

// TestRegistryReadAllocBudget holds the orchestrator's fan-out read to
// the cost of the fixed table NewStatic replaced: AllAgentURLs over 16
// single-instance services allocated 39 times on that table.
func TestRegistryReadAllocBudget(t *testing.T) {
	var ins []Instance
	for i := 0; i < 16; i++ {
		ins = append(ins, Instance{
			Service:         fmt.Sprintf("svc-%02d", i),
			Addr:            fmt.Sprintf("10.0.0.%d:80", i),
			AgentControlURL: fmt.Sprintf("http://10.0.0.%d:9000", i),
		})
	}
	r := NewStatic(ins...)
	var urls []string
	allocs := testing.AllocsPerRun(200, func() {
		urls, _ = AllAgentURLs(r)
	})
	if len(urls) != 16 {
		t.Fatalf("AllAgentURLs = %d URLs, want 16", len(urls))
	}
	if allocs > 39 {
		t.Fatalf("AllAgentURLs over 16 services: %.0f allocs, budget 39", allocs)
	}
}

func newRegServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", NewStatic())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, NewClient(srv.URL(), nil)
}

func TestServerRegisterListDeregister(t *testing.T) {
	_, c := newRegServer(t)
	in := Instance{Service: "web", Addr: "10.0.0.1:8080", AgentControlURL: "http://10.0.0.1:9000"}
	if err := c.Register(in); err != nil {
		t.Fatal(err)
	}
	got, err := c.Instances("web")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != in {
		t.Fatalf("got %+v", got)
	}
	services, err := c.Services()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(services, []string{"web"}) {
		t.Fatalf("Services = %v", services)
	}
	if err := c.Deregister("web", "10.0.0.1:8080"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Instances("web"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
	if err := c.Deregister("web", "10.0.0.1:8080"); err == nil {
		t.Fatal("double deregister should error")
	}
}

func TestServerRejectsBadRegistration(t *testing.T) {
	_, c := newRegServer(t)
	if err := c.Register(Instance{Service: "", Addr: "x"}); err == nil {
		t.Fatal("want error for empty service")
	}
	if err := c.Register(Instance{Service: "x", Addr: ""}); err == nil {
		t.Fatal("want error for empty addr")
	}
}

func TestServerEmptyServices(t *testing.T) {
	_, c := newRegServer(t)
	services, err := c.Services()
	if err != nil {
		t.Fatal(err)
	}
	if len(services) != 0 {
		t.Fatalf("Services = %v", services)
	}
}

func TestClientAgainstDownServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 100 * time.Millisecond})
	if err := c.Register(Instance{Service: "a", Addr: "x"}); err == nil {
		t.Fatal("Register should fail")
	}
	if err := c.Deregister("a", "x"); err == nil {
		t.Fatal("Deregister should fail")
	}
	if _, err := c.Instances("a"); err == nil {
		t.Fatal("Instances should fail")
	}
	if _, err := c.Services(); err == nil {
		t.Fatal("Services should fail")
	}
}
