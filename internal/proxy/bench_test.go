package proxy_test

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"gremlin/internal/proxy"
	"gremlin/internal/rules"
	"gremlin/internal/trace"
)

// benchAgent starts an agent for service "client" whose one route, to
// "server", reaches a backend answering every request with body, installs
// the given rules and returns the route's URL. A sized backend declares
// the body's Content-Length; otherwise a body too large for the server's
// buffer goes out chunked.
func benchAgent(b *testing.B, body string, sized bool, installed ...rules.Rule) string {
	b.Helper()
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if sized {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		}
		_, _ = io.WriteString(w, body)
	}))
	b.Cleanup(backend.Close)
	agent, err := proxy.New(proxy.Config{
		ServiceName: "client",
		Routes: []proxy.Route{{
			Dst:        "server",
			ListenAddr: "127.0.0.1:0",
			Targets:    []string{strings.TrimPrefix(backend.URL, "http://")},
		}},
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	agent.Start()
	b.Cleanup(func() {
		if err := agent.Close(); err != nil {
			b.Error(err)
		}
	})
	if err := agent.InstallRules(installed...); err != nil {
		b.Fatal(err)
	}
	u, err := agent.RouteURL("server")
	if err != nil {
		b.Fatal(err)
	}
	return u
}

// benchProxied sends b.N requests through the agent at url, each carrying
// the request ID "test-1", and drains every reply.
func benchProxied(b *testing.B, url string) {
	client := &http.Client{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			b.Fatal(err)
		}
		trace.SetRequestID(req, "test-1")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

// BenchmarkFigure8ProxiedRequest200Rules is one proxied exchange with 200
// installed rules that never match (paper Figure 8's worst case). `make
// alloc-profile` profiles it; EXPERIMENTS.md ("Where a hop's allocations
// go") reads its table off that profile.
func BenchmarkFigure8ProxiedRequest200Rules(b *testing.B) {
	batch := make([]rules.Rule, 0, 200)
	for i := 0; i < 200; i++ {
		batch = append(batch, rules.Rule{
			ID: fmt.Sprintf("r%d", i), Src: "client", Dst: "server",
			Action: rules.ActionDelay, Pattern: fmt.Sprintf("re:^never-%d-[0-9]+$", i),
			DelayMillis: 1,
		})
	}
	benchProxied(b, benchAgent(b, "ok", false, batch...))
}

// benchmarkProxyThroughput pushes a body of the given size through the
// agent. With no Modify rule the body streams through pooled buffers (B/op
// stays flat as size grows); a response Modify rule forces the pre-overhaul
// read-everything path for comparison. sized is benchAgent's.
func benchmarkProxyThroughput(b *testing.B, size int, modify, sized bool) {
	var installed []rules.Rule
	if modify {
		installed = append(installed, rules.Rule{
			ID: "md", Src: "client", Dst: "server", On: rules.OnResponse,
			Action: rules.ActionModify, Pattern: "test-*",
			SearchBytes: "never-present", ReplaceBytes: "still-never",
		})
	}
	u := benchAgent(b, strings.Repeat("x", size), sized, installed...)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	benchProxied(b, u)
}

func BenchmarkProxyThroughputStreamed64KiB(b *testing.B) {
	benchmarkProxyThroughput(b, 64<<10, false, false)
}
func BenchmarkProxyThroughputBuffered64KiB(b *testing.B) {
	benchmarkProxyThroughput(b, 64<<10, true, false)
}
func BenchmarkProxyThroughputStreamed1MiB(b *testing.B) {
	benchmarkProxyThroughput(b, 1<<20, false, false)
}
func BenchmarkProxyThroughputBuffered1MiB(b *testing.B) {
	benchmarkProxyThroughput(b, 1<<20, true, false)
}

// BenchmarkProxyThroughputStreamedSized1MiB streams a reply that declares
// its Content-Length, the case the relay sizes its buffer by.
func BenchmarkProxyThroughputStreamedSized1MiB(b *testing.B) {
	benchmarkProxyThroughput(b, 1<<20, false, true)
}
