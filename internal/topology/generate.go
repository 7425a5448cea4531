package topology

import (
	"fmt"
	"math/rand"
)

// GenerateOptions configures the seeded topology generator.
type GenerateOptions struct {
	// Services is how many services to generate (default 100).
	Services int

	// Layers is the depth of the layered DAG (default 5). Layer 0 is the
	// single entry service; calls only flow toward higher layers, so the
	// graph is acyclic by construction.
	Layers int

	// MaxDegree caps a service's outgoing dependency edges (default 4).
	// Out-degrees are drawn per service from a geometric-flavoured
	// distribution over [1, MaxDegree]: most services call one or two
	// dependencies, a few fan out wide — the long-tailed shape of real
	// microservice graphs.
	MaxDegree int

	// MinReplicas and MaxReplicas bound the per-service replica count,
	// drawn uniformly (defaults 1 and 1: single-replica).
	MinReplicas int
	MaxReplicas int

	// Seed makes generation deterministic: the same options always emit
	// the same Spec.
	Seed int64
}

func (o *GenerateOptions) defaults() {
	if o.Services <= 0 {
		o.Services = 100
	}
	if o.Layers <= 0 {
		o.Layers = 5
	}
	if o.Layers > o.Services {
		o.Layers = o.Services
	}
	if o.Services > 1 && o.Layers < 2 {
		// Layer 0 holds only the entry; everything else needs a layer.
		o.Layers = 2
	}
	if o.MaxDegree <= 0 {
		o.MaxDegree = 4
	}
	if o.MinReplicas <= 0 {
		o.MinReplicas = 1
	}
	if o.MaxReplicas < o.MinReplicas {
		o.MaxReplicas = o.MinReplicas
	}
}

// Generate emits a Spec for a layered service DAG drawn from degree
// distributions: one entry service fanning out through Layers tiers to a
// final tier of leaves, every service reachable from the entry, replica
// counts drawn from [MinReplicas, MaxReplicas]. The result is
// deterministic in the options (including Seed) and ready for Build.
func Generate(opts GenerateOptions) Spec {
	opts.defaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	// Partition services into layers: layer 0 is the single entry; the
	// rest spread over the remaining layers, widening toward the leaves so
	// fan-out has somewhere to land.
	layers := make([][]string, opts.Layers)
	layers[0] = []string{serviceName(0)}
	rest := opts.Services - 1
	weights := 0
	for l := 1; l < opts.Layers; l++ {
		weights += l
	}
	next := 1
	for l := 1; l < opts.Layers; l++ {
		n := rest * l / weights
		if l == opts.Layers-1 {
			n = opts.Services - next // absorb rounding remainder
		}
		if n < 1 {
			n = 1
		}
		for i := 0; i < n && next < opts.Services; i++ {
			layers[l] = append(layers[l], serviceName(next))
			next++
		}
	}

	deps := make(map[string][]string, opts.Services)
	// Connectivity first: every service below the entry gets one caller
	// from the layer above, so nothing is orphaned.
	for l := 1; l < opts.Layers; l++ {
		for _, name := range layers[l] {
			parent := layers[l-1][rng.Intn(len(layers[l-1]))]
			deps[parent] = append(deps[parent], name)
		}
	}
	// Then draw each non-leaf service's target out-degree and add extra
	// edges into the next layer until it is met (or the layer is
	// exhausted).
	for l := 0; l < opts.Layers-1; l++ {
		below := layers[l+1]
		for _, name := range layers[l] {
			want := drawDegree(rng, opts.MaxDegree)
			for tries := 0; len(deps[name]) < want && tries < 4*want; tries++ {
				candidate := below[rng.Intn(len(below))]
				if !contains(deps[name], candidate) {
					deps[name] = append(deps[name], candidate)
				}
			}
		}
	}

	spec := Spec{Entry: serviceName(0)}
	for i := 0; i < opts.Services; i++ {
		name := serviceName(i)
		replicas := opts.MinReplicas
		if opts.MaxReplicas > opts.MinReplicas {
			replicas += rng.Intn(opts.MaxReplicas - opts.MinReplicas + 1)
		}
		spec.Services = append(spec.Services, ServiceSpec{
			Name:      name,
			Replicas:  replicas,
			DependsOn: deps[name],
		})
	}
	return spec
}

// drawDegree samples an out-degree in [1, max]: degree d with probability
// proportional to 2^-(d-1), the "most call few, few call many" shape.
func drawDegree(rng *rand.Rand, max int) int {
	d := 1
	for d < max && rng.Intn(2) == 0 {
		d++
	}
	return d
}

func serviceName(i int) string { return fmt.Sprintf("svc-%03d", i) }

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
