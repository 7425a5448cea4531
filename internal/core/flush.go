package core

import (
	"context"
	"fmt"
	"sort"

	"gremlin/internal/eventlog"
)

// flushOnRead is the source every checker a Runner hands out reads
// through. Agents ship their records asynchronously, so before a Select
// or Count it asks the agents whose records the query can return to flush
// them, each at most once per load. An agent logs only records whose Src
// is its own service, so:
//
//   - a query naming Src S flushes S's agents;
//   - a query naming only Dst D, a graph vertex, flushes the agents of D's
//     callers in the graph and of every registered service the graph
//     does not name;
//   - any other query, or one naming a service the registry does not
//     know, flushes every agent.
//
// A service without agents flushes nothing. A failed flush fails the
// read.
type flushOnRead struct {
	r   *Runner
	ctx context.Context
	// load is the generation of the run whose checks read through this
	// source; 0 (the Runner's own checker) asks for the latest.
	load uint64
}

func (f *flushOnRead) Select(q eventlog.Query) ([]eventlog.Record, error) {
	if err := f.flush(q); err != nil {
		return nil, err
	}
	return f.r.source.Select(q)
}

func (f *flushOnRead) Count(q eventlog.Query) (int, error) {
	if err := f.flush(q); err != nil {
		return 0, err
	}
	return eventlog.CountRecords(f.r.source, q)
}

// flush flushes the agents of every service q can read whose last flush
// began before the load f waits for ended.
func (f *flushOnRead) flush(q eventlog.Query) error {
	r := f.r
	need := f.load
	if need == 0 {
		need = r.loads.Load()
	}
	services, err := r.flushTargets(q)
	if err != nil {
		return fmt.Errorf("core: flush observations: %w", err)
	}
	// Read before the call: a load that ends during it leaves these
	// agents behind that load's generation.
	gen := r.loads.Load()
	var stale []string
	r.flushMu.Lock()
	for _, svc := range services {
		if r.flushed[svc] < need {
			stale = append(stale, svc)
		}
	}
	r.flushMu.Unlock()
	if len(stale) == 0 {
		return nil
	}
	if err := r.orch.FlushAll(f.ctx, stale...); err != nil {
		return fmt.Errorf("core: flush observations: %w", err)
	}
	r.flushMu.Lock()
	for _, svc := range stale {
		r.flushed[svc] = max(r.flushed[svc], gen)
	}
	r.flushMu.Unlock()
	return nil
}

// flushTargets names the registered services whose agents can hold
// records q selects.
func (r *Runner) flushTargets(q eventlog.Query) ([]string, error) {
	all, err := r.orch.Registry().Services()
	if err != nil {
		return nil, err
	}
	known := func(svc string) bool {
		i := sort.SearchStrings(all, svc)
		return i < len(all) && all[i] == svc
	}
	switch {
	case q.Src != "":
		if known(q.Src) {
			return []string{q.Src}, nil
		}
	case q.Dst != "" && r.graph.Has(q.Dst):
		callers, _ := r.graph.Dependents(q.Dst)
		for _, svc := range callers {
			if !known(svc) {
				return all, nil
			}
		}
		for _, svc := range all {
			if !r.graph.Has(svc) {
				callers = append(callers, svc)
			}
		}
		return callers, nil
	}
	return all, nil
}
