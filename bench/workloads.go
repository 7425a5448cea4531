package main

// workloads is the benchmark, in the order an all-workloads run executes
// it. BENCHMARK.json repeats each name with its why.
var workloads = []*workload{
	{
		name: "fleet_soak", rate: soakRate, baseline: true,
		why:    "open-loop Poisson 180 req/s (a third of saturation) through a generated 12-service fleet, agents on every edge, records shipped to a sharded store",
		build:  buildFleet,
		layers: fleetLayers,
		rungs:  fleetRungs,
	},
	{
		name: "hop_small", clients: 2, baseline: true,
		why:    "smallest message through one agent, 200 idle rules: per-message proxy and matcher cost is everything (paper Table 2 / Fig. 8)",
		build:  buildHop(false, 2),
		layers: hopLayers,
		rungs:  hopRungs,
	},
	{
		name: "hop_faulted", clients: 2,
		why:    "same hop, 40% pass / 20% abort / 20% delay 1ms / 20% modify: a fast-path win that costs the fault paths shows here",
		build:  buildHop(true, 2),
		layers: hopLayers,
		rungs:  hopRungs,
	},
	{
		name: "l7_bulk", clients: 2, baseline: true,
		why:    "1 MiB replies streamed through one agent: body relay and pooled buffers do the work, matcher and record cost vanish",
		build:  buildL7(2),
		layers: l7Layers,
	},
	{
		name: "l4_bulk", clients: 2, baseline: true,
		why:    "1 MiB echoed through the L4 stream relay on long-lived connections: only streamproxy works, a passthrough shows here alone",
		build:  buildL4(2),
		layers: l4Layers,
		rungs:  l4Rungs,
	},
	{
		name: "log_cycle", clients: 2,
		why:    "a campaign unit's store traffic over HTTP (ship 256, select, count, clear) on a 4-shard WAL store holding 200k records: eventlog only, writes beside reads",
		build:  buildLog(2),
		layers: logLayers,
		rungs:  logRungs,
	},
	{
		name: "recipe_cycle", clients: 1,
		why:    "core.Runner.Run over a 15-service tree, four recipes in rotation: the tester's turnaround, control plane only (paper Fig. 7)",
		build:  buildRecipe,
		layers: recipeLayers,
		rungs:  recipeRungs,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
