package faultsim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/scengen"
	"repro/internal/spec"
)

// This file pins the dense trial kernel against the string-keyed kernel it
// replaced. The reference types and functions below are that kernel's
// bodies, unchanged except for the renamed identifiers (campaignEnv →
// refEnv, chunkResult → refChunk, trialState → refTrialState, trialOrigin
// → refOrigin) and the model dispatch in refEnv.inject. Every chunk the
// dense kernel produces must equal the reference's, map for map.

type refChunk struct {
	totalAffected      int
	crossTransmissions int
	trialsWithEscape   int
	commFaultTrials    int
	criticalAffected   int
	initialFaults      int
	transientFaults    int
	critPerTrial       []float64
	escPerTrial        []float64
	affectedCount      map[string]int
	transmissionCount  map[string]int
	edgeTrials         map[string]int
}

func newRefChunk() *refChunk {
	return &refChunk{
		affectedCount:     map[string]int{},
		transmissionCount: map[string]int{},
		edgeTrials:        map[string]int{},
	}
}

type refEnv struct {
	nodes         []string
	out           map[string][]graph.Edge // non-replica, weight>0, sorted
	commEdges     []graph.Edge
	weights       []float64
	weightTotal   float64
	crit          map[string]float64
	hwOf          map[string]string
	seedBase      uint64
	maxHops       int
	commFrac      float64
	critThreshold float64
	model         FaultModel
	persist       float64
}

func newRefEnv(c *Campaign) *refEnv {
	env := &refEnv{
		nodes:         c.Graph.Nodes(),
		out:           map[string][]graph.Edge{},
		crit:          map[string]float64{},
		hwOf:          c.HWOf,
		seedBase:      splitmix64(c.Seed),
		maxHops:       c.MaxHops,
		commFrac:      c.CommFaultFraction,
		critThreshold: c.CriticalThreshold,
		model:         c.model(),
	}
	env.persist = env.model.persist()
	for _, n := range env.nodes {
		env.crit[n] = c.Graph.Attrs(n).Value(attrs.Criticality)
		var live []graph.Edge
		for _, e := range c.Graph.OutEdges(n) {
			if e.Replica || e.Weight <= 0 {
				continue
			}
			live = append(live, e)
		}
		env.out[n] = live
	}
	if c.CommFaultFraction > 0 {
		for _, e := range c.Graph.Edges() {
			if !e.Replica && e.Weight > 0 {
				env.commEdges = append(env.commEdges, e)
			}
		}
	}
	// Injection-site sampler weights.
	env.weights = make([]float64, len(env.nodes))
	for i, n := range env.nodes {
		w := 1.0
		if c.OccurrenceWeights != nil {
			w = c.OccurrenceWeights[n]
		}
		if w < 0 {
			w = 0
		}
		env.weights[i] = w
		env.weightTotal += w
	}
	if env.weightTotal == 0 {
		for i := range env.weights {
			env.weights[i] = 1
		}
		env.weightTotal = float64(len(env.weights))
	}
	return env
}

func (env *refEnv) pick(rng *rand.Rand) string {
	x := rng.Float64() * env.weightTotal
	for i, w := range env.weights {
		x -= w
		if x < 0 {
			return env.nodes[i]
		}
	}
	return env.nodes[len(env.nodes)-1]
}

func (env *refEnv) runTrial(rng *rand.Rand, ch *refChunk) {
	// The fault model draws the initial fault set; propagation below is
	// shared by every model. All draws come from the trial's private
	// substream in a fixed order, so the trial is a pure function of
	// (Seed, trial index) under every model.
	var t refTrialState
	env.inject(rng, &t)
	if t.commFault {
		ch.commFaultTrials++
	}
	escaped := false
	if t.commCrossed {
		// The corrupted message itself crossed a HW boundary.
		ch.crossTransmissions++
		escaped = true
	}
	ch.initialFaults += len(t.origins)

	faulty := make(map[string]bool, len(t.origins))
	// order records affected nodes in discovery order so the criticality
	// sums below never depend on map iteration; viaCross marks nodes
	// whose fault arrived over a HW boundary for escaped-loss accounting.
	var order []string
	var frontier []string
	viaCross := map[string]bool{}
	// admit marks one newly faulty FCM. Under a transient model the
	// permanence draw happens at discovery, in frontier order; a
	// transient fault affects its FCM but never joins the frontier.
	admit := func(n string, crossed bool) {
		faulty[n] = true
		order = append(order, n)
		if crossed {
			viaCross[n] = true
		}
		if env.persist < 1 && rng.Float64() >= env.persist {
			ch.transientFaults++
			return
		}
		frontier = append(frontier, n)
	}
	for _, o := range t.origins {
		if faulty[o.node] {
			continue
		}
		admit(o.node, o.viaCross)
	}
	hops := 0
	for len(frontier) > 0 && (env.maxHops == 0 || hops < env.maxHops) {
		hops++
		boundary := len(frontier)
		for _, u := range frontier[:boundary] {
			for _, e := range env.out[u] {
				key := u + ">" + e.To
				// The transmission draw happens whether or not the
				// target is already faulty — conditioning the draw on
				// target health would bias the per-edge estimate
				// downward on convergent paths.
				ch.edgeTrials[key]++
				if rng.Float64() >= e.Weight {
					continue
				}
				ch.transmissionCount[key]++
				if faulty[e.To] {
					continue
				}
				crossed := env.hwOf != nil && env.hwOf[u] != env.hwOf[e.To]
				if crossed {
					ch.crossTransmissions++
					escaped = true
				}
				// The escape taint is sticky: once an infection chain has
				// crossed a HW boundary, everything it infects downstream
				// is containment-failure damage too.
				admit(e.To, crossed || viaCross[u])
			}
		}
		frontier = frontier[boundary:]
	}
	ch.totalAffected += len(order)
	if escaped {
		ch.trialsWithEscape++
	}
	loss, escLoss := 0.0, 0.0
	for _, n := range order {
		ch.affectedCount[n]++
		cv := env.crit[n]
		loss += cv
		if viaCross[n] {
			escLoss += cv
		}
		if env.critThreshold > 0 && cv >= env.critThreshold {
			ch.criticalAffected++
		}
	}
	ch.critPerTrial = append(ch.critPerTrial, loss)
	ch.escPerTrial = append(ch.escPerTrial, escLoss)
}

type refOrigin struct {
	node string
	// viaCross marks an origin that became faulty through a corrupted
	// cross-HW communication, so its criticality counts as escaped loss.
	viaCross bool
}

// refTrialState carries the injection outcome of one trial from the model
// into the shared propagation loop.
type refTrialState struct {
	origins []refOrigin
	// commFault marks a trial whose initial fault was a corrupted
	// communication rather than an FCM fault.
	commFault bool
	// commCrossed marks a comm fault whose corrupted message itself
	// crossed a HW boundary.
	commCrossed bool
}

func refInjectSingle(env *refEnv, rng *rand.Rand, t *refTrialState) {
	if len(env.commEdges) > 0 && rng.Float64() < env.commFrac {
		e := env.commEdges[rng.IntN(len(env.commEdges))]
		t.commFault = true
		crossed := env.hwOf != nil && env.hwOf[e.From] != env.hwOf[e.To]
		t.commCrossed = crossed
		t.origins = append(t.origins, refOrigin{node: e.To, viaCross: crossed})
		return
	}
	t.origins = append(t.origins, refOrigin{node: env.pick(rng)})
}

func refInjectCorrelated(env *refEnv, rng *rand.Rand, t *refTrialState) {
	seed := env.pick(rng)
	if env.hwOf == nil {
		t.origins = append(t.origins, refOrigin{node: seed})
		return
	}
	host := env.hwOf[seed]
	// env.nodes is sorted, so the colocated set enumerates in a fixed
	// order — the same order at every worker count and resume point.
	for _, n := range env.nodes {
		if env.hwOf[n] == host {
			t.origins = append(t.origins, refOrigin{node: n})
		}
	}
}

func refInjectBurst(m burstModel, env *refEnv, rng *rand.Rand, t *refTrialState) {
	k := m.k
	if k > len(env.nodes) {
		k = len(env.nodes)
	}
	// Weighted sampling without replacement: copy the sampler weights,
	// zero each drawn node. When the remaining mass hits zero (forced
	// seed nodes, zero-weight tails) the rest draws uniformly over the
	// not-yet-faulty nodes, so a burst always reaches its size.
	weights := append([]float64(nil), env.weights...)
	total := env.weightTotal
	taken := make(map[int]bool, k)
	for drawn := 0; drawn < k; drawn++ {
		idx := -1
		if total > 0 {
			x := rng.Float64() * total
			for i, w := range weights {
				x -= w
				if x < 0 {
					idx = i
					break
				}
			}
			if idx < 0 { // float round-off at the tail
				for i := len(weights) - 1; i >= 0; i-- {
					if weights[i] > 0 {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			// Uniform over the remaining nodes, in sorted-node order.
			nth := rng.IntN(len(env.nodes) - drawn)
			for i := range env.nodes {
				if taken[i] {
					continue
				}
				if nth == 0 {
					idx = i
					break
				}
				nth--
			}
		}
		taken[idx] = true
		total -= weights[idx]
		if total < 0 {
			total = 0
		}
		weights[idx] = 0
		t.origins = append(t.origins, refOrigin{node: env.nodes[idx]})
	}
}

// inject dispatches to the reference injector of env's model; Transient
// injects as SingleFault does.
func (env *refEnv) inject(rng *rand.Rand, t *refTrialState) {
	switch m := env.model.(type) {
	case correlatedModel:
		refInjectCorrelated(env, rng, t)
	case burstModel:
		refInjectBurst(m, env, rng, t)
	default:
		refInjectSingle(env, rng, t)
	}
}

// runChunk runs trials [begin, end) on the reference kernel and exports
// them as a ChunkOutput.
func (env *refEnv) runChunk(begin, end int) *ChunkOutput {
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	ch := newRefChunk()
	for trial := begin; trial < end; trial++ {
		base := env.seedBase + uint64(trial)
		pcg.Seed(splitmix64(base), splitmix64(base^substreamSalt))
		env.runTrial(rng, ch)
	}
	return &ChunkOutput{
		Begin:              begin,
		End:                end,
		TotalAffected:      ch.totalAffected,
		CrossTransmissions: ch.crossTransmissions,
		TrialsWithEscape:   ch.trialsWithEscape,
		CommFaultTrials:    ch.commFaultTrials,
		CriticalAffected:   ch.criticalAffected,
		InitialFaults:      ch.initialFaults,
		TransientFaults:    ch.transientFaults,
		CritPerTrial:       ch.critPerTrial,
		EscPerTrial:        ch.escPerTrial,
		AffectedCount:      ch.affectedCount,
		TransmissionCount:  ch.transmissionCount,
		EdgeTrials:         ch.edgeTrials,
	}
}

// kernelGraph is one expanded influence graph the kernel tests run on.
type kernelGraph struct {
	name string
	g    *graph.Graph
}

// expandedGraph expands sys into its replica-level influence graph.
func expandedGraph(t testing.TB, sys *spec.System) *graph.Graph {
	t.Helper()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	return exp.Graph
}

// kernelGraphs returns the paper example plus one small graph from each
// scenario-generator family.
func kernelGraphs(t testing.TB) []kernelGraph {
	t.Helper()
	out := []kernelGraph{{"paper", expandedGraph(t, spec.PaperExample())}}
	for _, fam := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 16, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, kernelGraph{string(fam), expandedGraph(t, sc.System)})
	}
	return out
}

// spreadHW places the nodes of g round-robin on hosts HW nodes, leaving
// every fifth node unmapped so the "" host takes part too.
func spreadHW(g *graph.Graph, hosts int) map[string]string {
	hw := map[string]string{}
	for i, n := range g.Nodes() {
		if i%5 != 4 {
			hw[n] = "h" + strconv.Itoa(i%hosts)
		}
	}
	return hw
}

// skewedWeights gives most nodes zero occurrence weight and the rest a
// weight growing with their index, so Burst exhausts the weighted mass and
// falls back to its uniform draw.
func skewedWeights(g *graph.Graph) map[string]float64 {
	w := map[string]float64{}
	for i, n := range g.Nodes() {
		if i%6 == 1 {
			w[n] = float64(i)
		} else {
			w[n] = 0
		}
	}
	return w
}

// kernelModels is every fault model at the parameters the kernel tests use.
var kernelModels = []struct {
	name  string
	model FaultModel
}{
	{"single", SingleFault()},
	{"correlated", Correlated()},
	{"burst", Burst(3)},
	{"transient", Transient(0.6)},
}

// denseChunks runs every grid chunk of c through runner.
func denseChunks(t *testing.T, runner *ChunkRunner, trials int) []*ChunkOutput {
	t.Helper()
	var out []*ChunkOutput
	for i := 0; i < NumChunks(trials); i++ {
		b, e := ChunkBounds(i, trials)
		co, err := runner.Run(context.Background(), b, e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, co)
	}
	return out
}

// refChunks runs every grid chunk of c through the reference kernel.
func refChunks(c *Campaign) []*ChunkOutput {
	env := newRefEnv(c)
	var out []*ChunkOutput
	for i := 0; i < NumChunks(c.Trials); i++ {
		b, e := ChunkBounds(i, c.Trials)
		out = append(out, env.runChunk(b, e))
	}
	return out
}

// TestTrialKernelMatchesReference runs the dense kernel and the reference
// over every fault model, with and without a HW mapping, hop bound,
// skewed occurrence weights and communication faults, on the paper example
// and one graph per scenario family: every chunk must be DeepEqual.
func TestTrialKernelMatchesReference(t *testing.T) {
	const trials = 150 // two full chunks and a partial one
	configs := 0
	for _, kg := range kernelGraphs(t) {
		for _, m := range kernelModels {
			for _, withHW := range []bool{false, true} {
				for _, hops := range []int{0, 2} {
					for _, skewed := range []bool{false, true} {
						for _, comm := range []float64{0, 0.3} {
							c := Campaign{
								Graph: kg.g, Trials: trials, Seed: 1998,
								MaxHops: hops, CommFaultFraction: comm,
								CriticalThreshold: 5, Model: m.model,
							}
							if withHW {
								c.HWOf = spreadHW(kg.g, 3)
							}
							if skewed {
								c.OccurrenceWeights = skewedWeights(kg.g)
							}
							name := fmt.Sprintf("%s/%s/hw=%t/hops=%d/skewed=%t/comm=%g",
								kg.name, m.name, withHW, hops, skewed, comm)
							runner, err := NewChunkRunner(c)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got, want := denseChunks(t, runner, trials), refChunks(&c)
							for i := range want {
								if !reflect.DeepEqual(got[i], want[i]) {
									t.Errorf("%s: chunk %d differs from the reference kernel", name, i)
								}
							}
							configs++
						}
					}
				}
			}
		}
	}
	if configs != 5*4*2*2*2*2 {
		t.Fatalf("ran %d configurations", configs)
	}
}

// TestTrialKernelReferenceCatchesSwappedEdges is the oracle's negative
// control: a kernel whose CSR adjacency lists two out-edges of one node in
// swapped order draws their transmissions in the wrong order, and the
// comparison must catch it.
func TestTrialKernelReferenceCatchesSwappedEdges(t *testing.T) {
	g := expandedGraph(t, spec.PaperExample())
	c := Campaign{Graph: g, HWOf: spreadHW(g, 3), Trials: 256, Seed: 1998, CriticalThreshold: 5}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	env := newCampaignEnv(&c)
	swapped := false
	for u := 0; u < len(env.nodes) && !swapped; u++ {
		a, b := env.outStart[u], env.outStart[u+1]-1
		if b > a && env.eW[a] != env.eW[b] {
			env.eTo[a], env.eTo[b] = env.eTo[b], env.eTo[a]
			env.eW[a], env.eW[b] = env.eW[b], env.eW[a]
			env.edgeKey[a], env.edgeKey[b] = env.edgeKey[b], env.edgeKey[a]
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("no node with two differently weighted out-edges")
	}
	got := denseChunks(t, &ChunkRunner{env: env, trials: c.Trials}, c.Trials)
	if reflect.DeepEqual(got, refChunks(&c)) {
		t.Fatal("a kernel with two CSR edges swapped matched the reference")
	}
}

// warmKernel returns a campaign environment with its scratch and chunk
// accumulator already through one chunk, on the paper example with a HW
// mapping and communication faults on.
func warmKernel(t testing.TB, g *graph.Graph, model FaultModel) (*campaignEnv, *trialScratch, *chunkResult) {
	t.Helper()
	c := Campaign{
		Graph: g, HWOf: spreadHW(g, 4), Trials: 1 << 20, Seed: 7,
		CriticalThreshold: 10, CommFaultFraction: 0.3, Model: model,
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	env := newCampaignEnv(&c)
	s, ch := env.newScratch(), env.newChunk()
	if err := env.runChunk(nil, s, 0, trialChunkSize, ch); err != nil {
		t.Fatal(err)
	}
	return env, s, ch
}

// TestRunChunkZeroAlloc pins the kernel's allocation contract: a warm
// chunk allocates nothing, under every fault model.
func TestRunChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation makes allocation counts unstable")
	}
	g := expandedGraph(t, spec.PaperExample())
	for _, m := range kernelModels {
		env, s, ch := warmKernel(t, g, m.model)
		b := trialChunkSize
		allocs := testing.AllocsPerRun(20, func() {
			ch.reset()
			if err := env.runChunk(nil, s, b, b+trialChunkSize, ch); err != nil {
				t.Fatal(err)
			}
			b += trialChunkSize
		})
		if allocs != 0 {
			t.Errorf("%s: runChunk allocates %.1f times per warm chunk, want 0", m.name, allocs)
		}
	}
}

// BenchmarkTrialKernel measures the trial kernel alone — runChunk on a
// warm scratch, one 64-trial chunk per op — on the 130-node generated mesh
// of the perfbench campaign workload, one sub-benchmark per fault model.
func BenchmarkTrialKernel(b *testing.B) {
	sc, err := scengen.Generate(scengen.Config{Family: scengen.Mesh, Processes: 96, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	g := expandedGraph(b, sc.System)
	for _, m := range kernelModels {
		b.Run(m.name, func(b *testing.B) {
			env, s, ch := warmKernel(b, g, m.model)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.reset()
				begin := (i % 4096) * trialChunkSize
				if err := env.runChunk(nil, s, begin, begin+trialChunkSize, ch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			trials := float64(b.N * trialChunkSize)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/trials, "ns/trial")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/trials, "allocs/trial")
		})
	}
}
