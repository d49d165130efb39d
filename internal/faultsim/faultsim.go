// Package faultsim provides a seeded Monte-Carlo fault-injection simulator
// over influence graphs and HW mappings. It supplies the measurement
// machinery the framework calls for: "the value of p_i3 can be determined
// by injecting faults into the target FCM" (§4.2.1), and it quantifies how
// well a mapping contains faults — the paper's own goodness criterion
// ("faults are not propagated across HW nodes", §5.3).
//
// The propagation model follows the paper's fault model (§2): faults occur
// in single FCMs or in communication between a pair of FCMs; transmission
// probabilities are independent of dynamic context; an influence edge of
// weight w transmits a fault from source to target with probability w.
//
// # Parallel execution and determinism
//
// Campaigns shard their trials across a worker pool (Campaign.Workers).
// Every trial draws from its own PCG substream derived from (Seed,
// trialIndex), so no RNG state is shared between trials and the stream a
// trial sees does not depend on which worker ran it or on where the
// previous checkpoint landed. Trials are processed in fixed chunks on an
// absolute grid and merged strictly in chunk order; the one
// order-sensitive accumulation (the float64 CriticalityLoss sum) is kept
// per-trial until merge so its addition order is always the trial order.
// The Result is therefore bit-identical for every Workers value, and
// checkpoint/resume reproduces an uninterrupted run exactly.
package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/stage"
)

// Errors returned by campaign configuration.
var (
	ErrNoTrials = errors.New("faultsim: trials must be positive")
	ErrNoNodes  = errors.New("faultsim: graph has no nodes")
)

// Campaign configures a fault-injection run.
type Campaign struct {
	// Graph is the influence graph faults propagate over (typically the
	// full replicated graph, pre-condensation).
	Graph *graph.Graph
	// HWOf maps base node names to HW node names; empty means no HW
	// boundary accounting.
	HWOf map[string]string
	// Trials is the number of injection trials.
	Trials int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the number of goroutines trials are sharded across
	// (default GOMAXPROCS). The Result is bit-identical for every value:
	// each trial is seeded from its own PCG substream derived from (Seed,
	// trialIndex), and chunk results merge in a fixed order.
	Workers int
	// OccurrenceWeights optionally biases which node the initial fault is
	// injected into (default: uniform over nodes).
	OccurrenceWeights map[string]float64
	// CriticalThreshold marks nodes whose criticality attribute meets the
	// threshold as critical for loss accounting (0 = none).
	CriticalThreshold float64
	// MaxHops bounds propagation depth (0 = unbounded).
	MaxHops int
	// CommFaultFraction is the fraction of trials whose initial fault is
	// injected into a communication edge rather than an FCM, covering the
	// second half of the paper's fault model ("faults occur in single
	// FCMs, or in communication between a pair of FCMs"). A corrupted
	// communication makes the edge's target faulty directly; propagation
	// continues from there. 0 means all faults originate in FCMs. Only
	// the SingleFault and Transient models honour it.
	CommFaultFraction float64
	// Model selects how the initial fault set of each trial is drawn:
	// SingleFault (the default when nil), Correlated (common-mode — every
	// FCM on one HW node faults together), Burst(k) (k simultaneous
	// independent faults) or Transient(p) (faults recover with
	// probability 1-p before propagating onward). Every model draws from
	// the trial's private substream, so results stay bit-identical across
	// worker counts and checkpoint/resume; the model identity is part of
	// the checkpoint fingerprint.
	Model FaultModel
	// Span, when set, is the campaign's one telemetry handle. It receives
	// a "checkpoint" event at every 10% of the campaign with the running
	// containment estimates — the convergence trail of the paper's
	// measurement loop — plus one child span per worker when the pool is
	// parallel. Its observer's registry counts trials, transmissions and
	// escapes as the campaign runs and tracks the number of active workers
	// in a gauge. Its observer's bus, when there is one, streams live
	// progress: one "campaign_start" event, a "campaign_checkpoint" event
	// (with the running escape rate and its Wald CI half-width) at every
	// checkpoint, and a final "campaign_done" event. Publishing is
	// non-blocking and only ever reads merged state, so the Result stays
	// bit-identical to an unwatched run — slow subscribers drop events,
	// never stall trials.
	Span *obs.Span
	// Ledger, when set, receives one "campaign" provenance record with
	// the final containment estimates (trials, escape rate, criticality
	// loss) after a successful run. Nil records nothing.
	Ledger *ledger.Ledger
	// Label names this campaign in streamed events and progress surfaces
	// (default "campaign"); give concurrent campaigns distinct labels.
	Label string
	// Ctx, when non-nil, is polled at every trial boundary: a cancelled or
	// expired context aborts the campaign promptly (after persisting a
	// checkpoint when CheckpointPath is set) with an error wrapping
	// ctx.Err().
	Ctx context.Context
	// CheckpointPath, when non-empty, makes the campaign crash-safe: the
	// merged partial Result and the completed-trial frontier are persisted
	// atomically (write to a temp file, then rename) every CheckpointEvery
	// trials and on cancellation. Because every trial has its own RNG
	// substream, the frontier alone is enough to resume: a run resumed
	// from a checkpoint produces a Result bit-identical to an
	// uninterrupted run with the same configuration, for any Workers.
	CheckpointPath string
	// CheckpointEvery is the trial interval between checkpoint writes
	// (default Trials/10, minimum 1). Writes happen at chunk boundaries,
	// whenever the completed-trial frontier crosses a multiple of the
	// interval.
	CheckpointEvery int
	// Resume restores state from CheckpointPath when a checkpoint written
	// by this same campaign (graph, seed, fault model — everything except
	// the trial count and worker count) is present. A checkpoint from a
	// different campaign is ErrCheckpointMismatch; an absent file starts
	// from trial zero.
	Resume bool
	// LaxResume softens Resume against damaged files only: a checkpoint
	// that fails to decode (truncated torn write, leftover temp content —
	// ErrCheckpointCorrupt) is discarded with a "resume_discarded" span
	// event and the campaign restarts from trial zero. A checkpoint that
	// decodes but belongs to a different campaign is still rejected: lax
	// mode forgives damage, never identity mismatches.
	LaxResume bool
	// StopHalfWidth, when positive, enables confidence-interval early
	// stopping: the campaign ends once the normal-approximation interval
	// for the escape rate at StopConfidence is narrower than ±StopHalfWidth
	// (checked every CheckpointEvery trials, after at least StopMinTrials).
	StopHalfWidth float64
	// StopConfidence is the two-sided confidence level of the stopping
	// interval (default 0.95).
	StopConfidence float64
	// StopMinTrials is the minimum number of trials before early stopping
	// may trigger (default 100).
	StopMinTrials int
}

// Result aggregates a campaign.
type Result struct {
	Trials int
	// TotalAffected is the total number of faulty FCMs over all trials
	// (including the injected one).
	TotalAffected int
	// CrossNodeTransmissions counts fault transmissions whose source and
	// target live on different HW nodes — the containment-failure events.
	CrossNodeTransmissions int
	// TrialsWithEscape counts trials in which the fault reached any FCM on
	// a different HW node than the injection site.
	TrialsWithEscape int
	// CommFaultTrials counts trials whose initial fault was injected into
	// a communication edge rather than an FCM.
	CommFaultTrials int
	// InitialFaults is the total number of initially injected faults over
	// all trials — Trials under the single-fault model, more under
	// Correlated and Burst.
	InitialFaults int
	// TransientFaults counts faults that recovered before propagating
	// (only the Transient model produces them).
	TransientFaults int
	// EscapedCriticalityLoss sums, over all trials, the criticality of
	// FCMs whose infection chain crossed a HW-node boundary at any point
	// — the criticality-weighted containment-failure mass the
	// adversarial search maximises.
	EscapedCriticalityLoss float64
	// CriticalAffected counts affected critical FCMs over all trials.
	CriticalAffected int
	// CriticalityLoss sums the criticality of affected FCMs over trials.
	CriticalityLoss float64
	// AffectedCount[name] counts how often each FCM was affected.
	AffectedCount map[string]int
	// TransmissionCount[from+">"+to] counts per-edge transmissions, the
	// raw material for estimating p_i2·p_i3 empirically.
	TransmissionCount map[string]int
	// EdgeTrials[from+">"+to] counts how often each edge had a faulty
	// source (the denominator of the transmission estimate).
	EdgeTrials map[string]int
	// EarlyStopped reports that confidence-interval early stopping ended
	// the campaign before the configured trial count; Trials holds the
	// number actually executed.
	EarlyStopped bool
}

// MeanAffected returns the average number of FCMs affected per trial.
func (r Result) MeanAffected() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.TotalAffected) / float64(r.Trials)
}

// EscapeRate returns the fraction of trials in which the fault crossed a
// HW node boundary.
func (r Result) EscapeRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.TrialsWithEscape) / float64(r.Trials)
}

// MeanCriticalityLoss returns the average criticality affected per trial.
func (r Result) MeanCriticalityLoss() float64 {
	if r.Trials == 0 {
		return 0
	}
	return r.CriticalityLoss / float64(r.Trials)
}

// CriticalityWeightedEscapeRate returns the average per-trial criticality
// mass that escaped its injection HW node — the §5.3 containment
// criterion weighted by what the escape actually endangers. This is the
// objective the adversarial Search maximises.
func (r Result) CriticalityWeightedEscapeRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return r.EscapedCriticalityLoss / float64(r.Trials)
}

// EstimatedInfluence returns the empirically measured transmission
// probability of the edge from→to (the paper's estimation path), and
// whether the edge ever had a faulty source.
func (r Result) EstimatedInfluence(from, to string) (float64, bool) {
	key := from + ">" + to
	trials := r.EdgeTrials[key]
	if trials == 0 {
		return 0, false
	}
	return float64(r.TransmissionCount[key]) / float64(trials), true
}

// trialChunkSize is the grain of the worker pool: trials are grouped into
// fixed chunks on an absolute grid ([0,64), [64,128), …) so the chunk
// sequence — and with it the merge order and every evaluation point — is
// the same no matter how many workers run or where a resume started.
const trialChunkSize = 64

// substreamSalt decorrelates the two PCG seed words of a trial substream.
const substreamSalt = 0xda942042e4dd58b5

// splitmix64 is the SplitMix64 finalizer, the standard mixer for deriving
// independent seed material from correlated inputs (consecutive trial
// indices). Its output is a bijection of its input, so distinct trials
// never collide on a substream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chunkResult accumulates the trials of one chunk. The embedded
// ChunkOutput holds the scalar counters and the per-trial float slices:
// all integer counters merge exactly regardless of order, and the single
// order-sensitive value — the float64 criticality loss — is kept per trial
// so the merged sum's addition order is always the trial order,
// independent of chunk boundaries and worker count. The per-node and
// per-edge counters are dense, indexed by campaignEnv ids; they become
// named map entries only at the Result and wire boundaries, so the
// embedded maps stay nil on a locally computed chunk.
type chunkResult struct {
	ChunkOutput
	affected      []int // per node id
	transmissions []int // per edge id
	edgeTrials    []int // per edge id
}

// newChunk returns an empty chunk accumulator sized to the campaign.
func (env *campaignEnv) newChunk() *chunkResult {
	return &chunkResult{
		ChunkOutput: ChunkOutput{
			CritPerTrial: make([]float64, 0, trialChunkSize),
			EscPerTrial:  make([]float64, 0, trialChunkSize),
		},
		affected:      make([]int, len(env.nodes)),
		transmissions: make([]int, len(env.eTo)),
		edgeTrials:    make([]int, len(env.eTo)),
	}
}

func (ch *chunkResult) reset() {
	ch.ChunkOutput = ChunkOutput{
		CritPerTrial: ch.CritPerTrial[:0],
		EscPerTrial:  ch.EscPerTrial[:0],
	}
	clear(ch.affected)
	clear(ch.transmissions)
	clear(ch.edgeTrials)
}

// absorb folds a chunk into the running Result, trial floats in order. A
// chunk from the wire carries named maps; a local one carries dense
// counters, which env names here. Zero counters are skipped, so the maps
// hold exactly the keys some trial incremented, as on the wire path.
func (r *Result) absorb(ch *chunkResult, env *campaignEnv) {
	r.TotalAffected += ch.TotalAffected
	r.CrossNodeTransmissions += ch.CrossTransmissions
	r.TrialsWithEscape += ch.TrialsWithEscape
	r.CommFaultTrials += ch.CommFaultTrials
	r.CriticalAffected += ch.CriticalAffected
	r.InitialFaults += ch.InitialFaults
	r.TransientFaults += ch.TransientFaults
	for _, loss := range ch.CritPerTrial {
		r.CriticalityLoss += loss
	}
	for _, loss := range ch.EscPerTrial {
		r.EscapedCriticalityLoss += loss
	}
	for k, v := range ch.AffectedCount {
		r.AffectedCount[k] += v
	}
	for k, v := range ch.TransmissionCount {
		r.TransmissionCount[k] += v
	}
	for k, v := range ch.EdgeTrials {
		r.EdgeTrials[k] += v
	}
	addCounts(r.AffectedCount, ch.affected, env.nodes)
	addCounts(r.TransmissionCount, ch.transmissions, env.edgeKey)
	addCounts(r.EdgeTrials, ch.edgeTrials, env.edgeKey)
}

// addCounts adds every nonzero dense counter to m under its name.
func addCounts(m map[string]int, counts []int, names []string) {
	for i, v := range counts {
		if v != 0 {
			m[names[i]] += v
		}
	}
}

// namedCounts returns the nonzero dense counters as a map keyed by name.
func namedCounts(counts []int, names []string) map[string]int {
	n := 0
	for _, v := range counts {
		if v != 0 {
			n++
		}
	}
	m := make(map[string]int, n)
	addCounts(m, counts, names)
	return m
}

// campaignEnv is the immutable, index-addressed view of a campaign shared
// by all workers, built once so concurrent trials never touch the graph's
// mutable accessors or hash a string. Node ids index the sorted node list.
// Edge ids index the live edges (non-replica, weight > 0) in
// Nodes()×OutEdges() order — also Graph.Edges() order — as a CSR
// adjacency: node u's out-edges are ids outStart[u] to outStart[u+1]-1.
// Every live edge is a communication-fault site, so the comm-fault draw
// picks an edge id directly.
type campaignEnv struct {
	nodes         []string // node id → name
	outStart      []int32  // len(nodes)+1 CSR offsets
	eFrom, eTo    []int32  // edge id → endpoint node ids
	eW            []float64
	edgeKey       []string // edge id → "from>to", the Result and wire key
	crit          []float64
	hw            []int32 // node id → interned HW name; "" (unmapped) is interned too
	hasHW         bool    // Campaign.HWOf was set: HW boundary accounting on
	weights       []float64
	weightTotal   float64
	seedBase      uint64
	maxHops       int
	commFrac      float64
	critThreshold float64
	model         FaultModel
	persist       float64
}

func newCampaignEnv(c *Campaign) *campaignEnv {
	g := c.Graph
	env := &campaignEnv{
		nodes:         g.Nodes(),
		hasHW:         c.HWOf != nil,
		seedBase:      splitmix64(c.Seed),
		maxHops:       c.MaxHops,
		commFrac:      c.CommFaultFraction,
		critThreshold: c.CriticalThreshold,
		model:         c.model(),
	}
	env.persist = env.model.persist()
	n := len(env.nodes)
	id := make(map[string]int32, n)
	for i, name := range env.nodes {
		id[name] = int32(i)
	}
	env.outStart = make([]int32, n+1)
	env.crit = make([]float64, n)
	env.hw = make([]int32, n)
	hwID := map[string]int32{}
	for i, name := range env.nodes {
		env.crit[i] = g.Attrs(name).Value(attrs.Criticality)
		host := c.HWOf[name]
		h, ok := hwID[host]
		if !ok {
			h = int32(len(hwID))
			hwID[host] = h
		}
		env.hw[i] = h
		env.outStart[i] = int32(len(env.eTo))
		for _, e := range g.OutEdges(name) {
			if e.Replica || e.Weight <= 0 {
				continue
			}
			env.eFrom = append(env.eFrom, int32(i))
			env.eTo = append(env.eTo, id[e.To])
			env.eW = append(env.eW, e.Weight)
			env.edgeKey = append(env.edgeKey, name+">"+e.To)
		}
	}
	env.outStart[n] = int32(len(env.eTo))
	// Injection-site sampler weights.
	env.weights = make([]float64, n)
	for i, name := range env.nodes {
		w := 1.0
		if c.OccurrenceWeights != nil {
			w = c.OccurrenceWeights[name]
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

// trialScratch is one worker's reusable trial state: the RNG it positions
// on each trial's substream and every buffer a trial needs, sized to the
// graph once so a warm chunk allocates nothing. A node is faulty in the
// current trial when its mark equals gen, so starting a trial clears no
// per-node state.
type trialScratch struct {
	pcg *rand.PCG
	rng *rand.Rand

	gen      uint32
	mark     []uint32
	via      []bool  // fault reached the node over a HW boundary (valid while marked)
	order    []int32 // affected nodes in discovery order
	frontier []int32

	// Injection outcome, written by the fault model.
	origins []trialOrigin
	// commFault marks a trial whose initial fault was a corrupted
	// communication rather than an FCM fault; commCrossed marks one whose
	// corrupted message itself crossed a HW boundary.
	commFault, commCrossed bool

	// Burst's sampling-without-replacement state.
	weights []float64
	taken   []bool
}

func (env *campaignEnv) newScratch() *trialScratch {
	n := len(env.nodes)
	pcg := rand.NewPCG(0, 0)
	// Each node is admitted at most once per trial and every model injects
	// at most n origins, so no buffer below ever grows.
	return &trialScratch{
		pcg:      pcg,
		rng:      rand.New(pcg),
		mark:     make([]uint32, n),
		via:      make([]bool, n),
		order:    make([]int32, 0, n),
		frontier: make([]int32, 0, n),
		origins:  make([]trialOrigin, 0, n),
		weights:  make([]float64, n),
		taken:    make([]bool, n),
	}
}

// begin clears the per-trial state for the next trial.
func (s *trialScratch) begin() {
	s.gen++
	if s.gen == 0 {
		clear(s.mark)
		s.gen = 1
	}
	s.order = s.order[:0]
	s.frontier = s.frontier[:0]
	s.origins = s.origins[:0]
	s.commFault, s.commCrossed = false, false
}

// reseed positions the PCG on the substream of one trial. The substream
// depends only on (Seed, trial), never on execution history, which is what
// makes sharding and resume bit-exact.
func (env *campaignEnv) reseed(pcg *rand.PCG, trial int) {
	base := env.seedBase + uint64(trial)
	pcg.Seed(splitmix64(base), splitmix64(base^substreamSalt))
}

func (env *campaignEnv) pick(rng *rand.Rand) int32 {
	x := rng.Float64() * env.weightTotal
	for i, w := range env.weights {
		x -= w
		if x < 0 {
			return int32(i)
		}
	}
	return int32(len(env.nodes) - 1)
}

// runChunk executes trials [begin, end) on their own substreams,
// accumulating into ch. The context is polled at every trial boundary; a
// cancelled chunk is all-or-nothing and contributes no trials.
func (env *campaignEnv) runChunk(ctx context.Context, s *trialScratch, begin, end int, ch *chunkResult) error {
	ch.Begin, ch.End = begin, end
	for trial := begin; trial < end; trial++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		env.reseed(s.pcg, trial)
		env.runTrial(s, ch)
	}
	return nil
}

func (env *campaignEnv) runTrial(s *trialScratch, ch *chunkResult) {
	// The fault model draws the initial fault set; propagation below is
	// shared by every model. All draws come from the trial's private
	// substream in a fixed order, so the trial is a pure function of
	// (Seed, trial index) under every model.
	s.begin()
	env.model.inject(env, s)
	if s.commFault {
		ch.CommFaultTrials++
	}
	escaped := false
	if s.commCrossed {
		// The corrupted message itself crossed a HW boundary.
		ch.CrossTransmissions++
		escaped = true
	}
	ch.InitialFaults += len(s.origins)

	for _, o := range s.origins {
		if s.mark[o.node] == s.gen {
			continue
		}
		env.admit(s, ch, o.node, o.viaCross)
	}
	// The frontier is consumed level by level from head; admit appends the
	// next level behind it.
	head := 0
	for hops := 0; head < len(s.frontier) && (env.maxHops == 0 || hops < env.maxHops); hops++ {
		for level := len(s.frontier); head < level; head++ {
			u := s.frontier[head]
			for e := env.outStart[u]; e < env.outStart[u+1]; e++ {
				// The transmission draw happens whether or not the target
				// is already faulty — conditioning the draw on target
				// health would bias the per-edge estimate downward on
				// convergent paths.
				ch.edgeTrials[e]++
				if s.rng.Float64() >= env.eW[e] {
					continue
				}
				ch.transmissions[e]++
				v := env.eTo[e]
				if s.mark[v] == s.gen {
					continue
				}
				crossed := env.hasHW && env.hw[u] != env.hw[v]
				if crossed {
					ch.CrossTransmissions++
					escaped = true
				}
				// The escape taint is sticky: once an infection chain has
				// crossed a HW boundary, everything it infects downstream
				// is containment-failure damage too.
				env.admit(s, ch, v, crossed || s.via[u])
			}
		}
	}
	ch.TotalAffected += len(s.order)
	if escaped {
		ch.TrialsWithEscape++
	}
	loss, escLoss := 0.0, 0.0
	for _, n := range s.order {
		ch.affected[n]++
		cv := env.crit[n]
		loss += cv
		if s.via[n] {
			escLoss += cv
		}
		if env.critThreshold > 0 && cv >= env.critThreshold {
			ch.CriticalAffected++
		}
	}
	ch.CritPerTrial = append(ch.CritPerTrial, loss)
	ch.EscPerTrial = append(ch.EscPerTrial, escLoss)
}

// admit marks one newly faulty FCM; crossed marks a fault that arrived
// over a HW boundary, for escaped-loss accounting. Under a transient
// model the permanence draw happens at discovery, in frontier order; a
// transient fault affects its FCM but never joins the frontier.
func (env *campaignEnv) admit(s *trialScratch, ch *chunkResult, n int32, crossed bool) {
	s.mark[n] = s.gen
	s.via[n] = crossed
	s.order = append(s.order, n)
	if env.persist < 1 && s.rng.Float64() >= env.persist {
		ch.TransientFaults++
		return
	}
	s.frontier = append(s.frontier, n)
}

// chunkEnd returns the end of the chunk beginning at b: the next absolute
// grid boundary, capped at the trial count.
func chunkEnd(b, trials int) int {
	e := (b/trialChunkSize + 1) * trialChunkSize
	if e > trials {
		e = trials
	}
	return e
}

// campaignRun holds the merge-side state of a running campaign: the
// accumulating Result, the completed-trial frontier, and everything the
// evaluation points (telemetry checkpoints, persistence, early stopping)
// need. Chunks are absorbed strictly in chunk order by a single goroutine.
type campaignRun struct {
	c            *Campaign
	env          *campaignEnv
	res          Result
	done         int // completed-trial frontier (all trials < done merged)
	fp           string
	persistEvery int
	eventEvery   int
	minStop      int
	z            float64
	label        string

	trialsCtr, escapesCtr, crossCtr *obs.Counter
	escapeGauge, workersGauge       *obs.Gauge
}

// checkpointEvent emits the running-estimator telemetry at frontier done.
func (r *campaignRun) checkpointEvent(done int) {
	rate := float64(r.res.TrialsWithEscape) / float64(done)
	r.escapeGauge.Set(rate)
	if r.c.Span != nil {
		r.c.Span.Event("checkpoint",
			obs.Int("trials_done", done),
			obs.Int("trials_total", r.c.Trials),
			obs.Float("escape_rate", rate),
			obs.Float("mean_affected", float64(r.res.TotalAffected)/float64(done)),
			obs.Int("cross_transmissions", r.res.CrossNodeTransmissions),
			obs.Float("mean_crit_loss", r.res.CriticalityLoss/float64(done)))
	}
	if bus := r.c.Span.Bus(); bus != nil {
		bus.Publish("campaign_checkpoint", r.label,
			obs.Int("trials_done", done),
			obs.Int("trials_total", r.c.Trials),
			obs.Float("escape_rate", rate),
			obs.Float("half_width", waldHalfWidth(rate, done, r.z)))
	}
}

// merge folds chunk [b, e) into the Result and fires every evaluation
// point the frontier crossed: telemetry checkpoint, persistence, and the
// early-stopping test. It reports stop=true when the campaign should end
// at frontier e. Because the chunk sequence is worker-count-independent,
// so is every decision made here.
func (r *campaignRun) merge(ch *chunkResult) (stop bool, err error) {
	b, e := ch.Begin, ch.End
	r.res.absorb(ch, r.env)
	r.done = e
	r.trialsCtr.Add(int64(e - b))
	r.escapesCtr.Add(int64(ch.TrialsWithEscape))
	r.crossCtr.Add(int64(ch.CrossTransmissions))
	if r.c.Span != nil && (b/r.eventEvery != e/r.eventEvery || e == r.c.Trials) {
		r.checkpointEvent(e)
	}
	crossedPersist := b/r.persistEvery != e/r.persistEvery || e == r.c.Trials
	if r.c.CheckpointPath != "" && crossedPersist {
		if err := saveCheckpoint(r.c.CheckpointPath, r.fp, e, r.res); err != nil {
			return false, err
		}
	}
	if r.c.StopHalfWidth > 0 && e < r.c.Trials && e >= r.minStop && crossedPersist {
		rate := float64(r.res.TrialsWithEscape) / float64(e)
		if waldHalfWidth(rate, e, r.z) <= r.c.StopHalfWidth {
			r.res.Trials = e
			r.res.EarlyStopped = true
			if r.c.Span != nil {
				r.c.Span.Event("early_stop",
					obs.Int("trials_done", e),
					obs.Float("escape_rate", rate),
					obs.Float("half_width", waldHalfWidth(rate, e, r.z)))
			}
			if r.c.CheckpointPath != "" {
				if err := saveCheckpoint(r.c.CheckpointPath, r.fp, e, r.res); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// cancelled persists the completed-trial frontier and wraps the context
// error, mirroring the serial cancellation contract.
func (r *campaignRun) cancelled(cause error) error {
	err := fmt.Errorf("faultsim: cancelled after %d/%d trials: %w",
		r.done, r.c.Trials, cause)
	if r.c.CheckpointPath != "" {
		if serr := saveCheckpoint(r.c.CheckpointPath, r.fp, r.done, r.res); serr != nil {
			return errors.Join(serr, err)
		}
	}
	return err
}

// serial runs the chunk sequence inline — the Workers==1 path pays for no
// goroutines but uses the exact same chunk grid and merge arithmetic as
// the pool, which is what makes the two bit-identical.
func (r *campaignRun) serial(start int) error {
	s := r.env.newScratch()
	ch := r.env.newChunk()
	for b := start; b < r.c.Trials; {
		e := chunkEnd(b, r.c.Trials)
		ch.reset()
		if err := r.env.runChunk(r.c.Ctx, s, b, e, ch); err != nil {
			return r.cancelled(err)
		}
		stop, err := r.merge(ch)
		if err != nil || stop {
			return err
		}
		b = e
	}
	return nil
}

// parallel shards the chunk sequence over a worker pool. The coordinator
// dispatches chunks in order, buffers out-of-order completions, and merges
// strictly by chunk index, so the accumulated Result — and every
// evaluation point — matches the serial path bit for bit. Cancellation
// makes chunks fail individually; the contiguous completed prefix is what
// gets checkpointed. Early stopping stops dispatch and discards
// speculative chunks beyond the stopping frontier.
func (r *campaignRun) parallel(start, workers int) error {
	type job struct {
		seq, b, e int
	}
	type outcome struct {
		job
		ch  *chunkResult
		err error
	}
	maxInFlight := workers * 2
	jobs := make(chan job)
	out := make(chan outcome, maxInFlight)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var span *obs.Span
			if r.c.Span != nil {
				span = r.c.Span.StartChild("worker", obs.Int("worker", id))
				defer span.End()
			}
			r.workersGauge.Add(1)
			defer r.workersGauge.Add(-1)
			s := r.env.newScratch()
			chunks, trials := 0, 0
			for j := range jobs {
				ch := r.env.newChunk()
				err := r.env.runChunk(r.c.Ctx, s, j.b, j.e, ch)
				if err == nil {
					chunks++
					trials += j.e - j.b
				}
				out <- outcome{job: j, ch: ch, err: err}
			}
			if span != nil {
				span.SetAttr(obs.Int("chunks", chunks), obs.Int("trials", trials))
			}
		}(w)
	}

	var (
		nextSeq, inFlight int
		mergeSeq          int
		b                 = start
		pending           = map[int]outcome{}
		cancelCause       error
		fatal             error
		stopped           bool
	)
	dispatchDone := b >= r.c.Trials
	for !dispatchDone || inFlight > 0 {
		var send chan job
		next := job{seq: nextSeq, b: b, e: chunkEnd(b, r.c.Trials)}
		if !dispatchDone && inFlight < maxInFlight {
			send = jobs
		}
		select {
		case send <- next:
			inFlight++
			nextSeq++
			b = next.e
			dispatchDone = b >= r.c.Trials
		case o := <-out:
			inFlight--
			if o.err != nil {
				if cancelCause == nil {
					cancelCause = o.err
				}
				dispatchDone = true
				continue
			}
			pending[o.seq] = o
			for cancelCause == nil && fatal == nil && !stopped {
				p, ok := pending[mergeSeq]
				if !ok {
					break
				}
				delete(pending, mergeSeq)
				mergeSeq++
				stop, err := r.merge(p.ch)
				if err != nil {
					fatal = err
					dispatchDone = true
				} else if stop {
					stopped = true
					dispatchDone = true
				}
			}
		}
	}
	close(jobs)
	wg.Wait()
	switch {
	case fatal != nil:
		return fatal
	case cancelCause != nil:
		return r.cancelled(cancelCause)
	}
	return nil
}

// model returns the configured fault model, defaulting to SingleFault.
func (c Campaign) model() FaultModel {
	if c.Model == nil {
		return SingleFault()
	}
	return c.Model
}

// validProb reports whether p is a finite probability.
func validProb(p float64) bool { return p >= 0 && p <= 1 && !math.IsNaN(p) }

// validate checks the campaign configuration — trial count, graph, every
// injected probability (edge weights, occurrence weights, the comm-fault
// fraction) and the fault-model parameters — once at campaign start.
// Failures come back classified under the taxonomy's "inject" stage, so
// callers route them like any other pipeline error. This closes the old
// asymmetry where RunHW range-checked FailureProb but Run silently
// accepted out-of-band per-factor probabilities.
func (c Campaign) validate() error {
	wrap := func(node string, err error) error {
		return stage.Wrap("inject", c.model().Name(), node, err)
	}
	if c.Trials <= 0 {
		return wrap("", fmt.Errorf("%w: %d", ErrNoTrials, c.Trials))
	}
	if c.Graph == nil || c.Graph.NumNodes() == 0 {
		return wrap("", ErrNoNodes)
	}
	if !validProb(c.CommFaultFraction) {
		return wrap("", fmt.Errorf("%w: comm fault fraction %g out of range",
			ErrBadProbability, c.CommFaultFraction))
	}
	for _, e := range c.Graph.Edges() {
		if e.Replica {
			continue
		}
		if !validProb(e.Weight) {
			return wrap(e.From, fmt.Errorf("%w: influence %s>%s has weight %g",
				ErrBadProbability, e.From, e.To, e.Weight))
		}
	}
	if c.OccurrenceWeights != nil {
		for _, n := range c.Graph.Nodes() {
			if w := c.OccurrenceWeights[n]; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return wrap(n, fmt.Errorf("%w: occurrence weight %g for %q",
					ErrBadProbability, w, n))
			}
		}
	}
	if err := c.model().validate(); err != nil {
		return wrap("", err)
	}
	return nil
}

// Run executes the campaign.
func Run(c Campaign) (Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run, start, err := newCampaignRun(&c, workers)
	if err != nil {
		return Result{}, err
	}

	if start < c.Trials {
		// Fail fast on a context that is already dead, before spinning up
		// any pool machinery.
		if c.Ctx != nil {
			if err := c.Ctx.Err(); err != nil {
				return Result{}, run.cancelled(err)
			}
		}
		if remaining := (c.Trials - start + trialChunkSize - 1) / trialChunkSize; workers > remaining {
			workers = remaining
		}
		if workers <= 1 {
			err = run.serial(start)
		} else {
			err = run.parallel(start, workers)
		}
		if err != nil {
			return Result{}, err
		}
	}
	return run.finish(), nil
}

// newCampaignRun validates the campaign and builds its merge-side state:
// the precomputed environment, the (possibly resumed) partial Result, the
// telemetry instruments and every evaluation-point interval. It publishes
// the "campaign_start" event and returns the completed-trial frontier the
// execution should start from. Both Run and the distributed Merger build
// on it, which is what keeps the two bit-identical.
func newCampaignRun(c *Campaign, workers int) (*campaignRun, int, error) {
	if err := c.validate(); err != nil {
		return nil, 0, err
	}
	run := &campaignRun{
		c:   c,
		env: newCampaignEnv(c),
		res: Result{
			Trials:            c.Trials,
			AffectedCount:     map[string]int{},
			TransmissionCount: map[string]int{},
			EdgeTrials:        map[string]int{},
		},
	}

	// Crash-safe checkpointing: resolve the campaign fingerprint once,
	// restore a prior snapshot when resuming, and persist whenever the
	// completed-trial frontier crosses a persistEvery multiple.
	run.persistEvery = c.CheckpointEvery
	if run.persistEvery <= 0 {
		run.persistEvery = c.Trials / 10
	}
	if run.persistEvery == 0 {
		run.persistEvery = 1
	}
	if c.CheckpointPath != "" {
		run.fp = c.fingerprint()
	}
	start := 0
	if c.Resume && c.CheckpointPath != "" {
		cf, ok, err := loadCheckpoint(c.CheckpointPath, run.fp)
		if err != nil {
			if !c.LaxResume || !errors.Is(err, ErrCheckpointCorrupt) {
				return nil, 0, err
			}
			// Lax resume: the file is damaged, not foreign. Record the
			// discard and restart from trial zero; the next checkpoint
			// write replaces the damaged file atomically.
			if c.Span != nil {
				c.Span.Event("resume_discarded",
					obs.String("path", c.CheckpointPath),
					obs.String("error", err.Error()))
			}
			ok = false
		}
		if ok {
			if cf.TrialsDone > c.Trials {
				return nil, 0, fmt.Errorf("%w: checkpoint has %d trials done, campaign wants %d",
					ErrCheckpointMismatch, cf.TrialsDone, c.Trials)
			}
			run.res = cf.Result
			run.res.Trials = c.Trials
			run.res.EarlyStopped = false
			if run.res.AffectedCount == nil {
				run.res.AffectedCount = map[string]int{}
			}
			if run.res.TransmissionCount == nil {
				run.res.TransmissionCount = map[string]int{}
			}
			if run.res.EdgeTrials == nil {
				run.res.EdgeTrials = map[string]int{}
			}
			start = cf.TrialsDone
		}
	}
	run.done = start

	// Campaign telemetry: per-10% checkpoint events carrying the running
	// estimators, plus live counters and gauges.
	reg := c.Span.Metrics()
	run.trialsCtr = reg.Counter("faultsim_trials_total", "injection trials executed")
	run.escapesCtr = reg.Counter("faultsim_escape_trials_total", "trials whose fault crossed a HW boundary")
	run.crossCtr = reg.Counter("faultsim_cross_transmissions_total", "fault transmissions across HW boundaries")
	run.escapeGauge = reg.Gauge("faultsim_escape_rate", "running escape-rate estimate")
	run.workersGauge = reg.Gauge("faultsim_active_workers", "campaign worker goroutines currently running")
	run.eventEvery = c.Trials / 10
	if run.eventEvery == 0 {
		run.eventEvery = 1
	}
	run.minStop = c.StopMinTrials
	if run.minStop <= 0 {
		run.minStop = 100
	}
	run.z = stopZ(c.StopConfidence)
	run.label = c.Label
	if run.label == "" {
		run.label = "campaign"
	}
	if bus := c.Span.Bus(); bus != nil {
		bus.Publish("campaign_start", run.label,
			obs.Int("trials_total", c.Trials),
			obs.Int("trials_done", start),
			obs.String("model", c.model().Name()),
			obs.Int("workers", workers))
	}
	return run, start, nil
}

// finish publishes the terminal telemetry (the "campaign_done" event and
// the ledger's campaign record) and returns the merged Result.
func (r *campaignRun) finish() Result {
	c := r.c
	if bus := c.Span.Bus(); bus != nil {
		bus.Publish("campaign_done", r.label,
			obs.Int("trials_done", r.res.Trials),
			obs.Int("trials_total", c.Trials),
			obs.Float("escape_rate", r.res.EscapeRate()),
			obs.Bool("early_stopped", r.res.EarlyStopped))
	}
	c.Ledger.Append(ledger.Record{
		Kind: ledger.KindCampaign, Stage: "faultsim",
		Detail: fmt.Sprintf("model %s, seed %d", c.model().Name(), c.Seed),
		Values: map[string]float64{
			"trials":                float64(r.res.Trials),
			"escape_rate":           r.res.EscapeRate(),
			"mean_affected":         r.res.MeanAffected(),
			"mean_criticality_loss": r.res.MeanCriticalityLoss(),
			"weighted_escape_rate":  r.res.CriticalityWeightedEscapeRate(),
			"cross_transmissions":   float64(r.res.CrossNodeTransmissions),
			"early_stopped":         b2f(r.res.EarlyStopped),
		},
	})
	return r.res
}

// b2f encodes a flag into a ledger value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// HWFaultCampaign configures hardware-node failure injection: in each
// trial, each HW node fails independently with FailureProb, taking down
// every hosted FCM; a module survives when enough of its replicas remain.
type HWFaultCampaign struct {
	// HWOf maps replica node names to HW node names.
	HWOf map[string]string
	// ReplicasOf maps each module to its replica node names.
	ReplicasOf map[string][]string
	// Criticality maps modules to criticality for loss accounting.
	Criticality map[string]float64
	// FailureProb is the per-trial, per-HW-node failure probability.
	FailureProb float64
	// MajorityRequired: when true, a module needs a strict majority of its
	// replicas alive (TMR voting semantics); when false, one live replica
	// suffices (standby semantics).
	MajorityRequired bool
	Trials           int
	Seed             uint64
}

// HWResult aggregates a hardware-failure campaign.
type HWResult struct {
	Trials int
	// ModuleFailures counts, per module, the trials in which it lost
	// service.
	ModuleFailures map[string]int
	// TrialsWithAnyLoss counts trials where at least one module failed.
	TrialsWithAnyLoss int
	// CriticalityLoss sums criticality of failed modules over trials.
	CriticalityLoss float64
}

// Unavailability returns the per-trial service-loss probability of a
// module.
func (r HWResult) Unavailability(module string) float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.ModuleFailures[module]) / float64(r.Trials)
}

// RunHW executes the hardware-failure campaign.
func RunHW(c HWFaultCampaign) (HWResult, error) {
	if c.Trials <= 0 {
		return HWResult{}, fmt.Errorf("%w: %d", ErrNoTrials, c.Trials)
	}
	if len(c.ReplicasOf) == 0 {
		return HWResult{}, ErrNoNodes
	}
	if c.FailureProb < 0 || c.FailureProb > 1 {
		return HWResult{}, fmt.Errorf("faultsim: failure probability %g out of range", c.FailureProb)
	}
	rng := rand.New(rand.NewPCG(c.Seed, c.Seed^0x6a09e667f3bcc909))

	hwNodes := map[string]bool{}
	for _, n := range c.HWOf {
		hwNodes[n] = true
	}
	hwList := make([]string, 0, len(hwNodes))
	for n := range hwNodes {
		hwList = append(hwList, n)
	}
	sort.Strings(hwList)

	modules := make([]string, 0, len(c.ReplicasOf))
	for m := range c.ReplicasOf {
		modules = append(modules, m)
	}
	sort.Strings(modules)

	res := HWResult{Trials: c.Trials, ModuleFailures: map[string]int{}}
	for trial := 0; trial < c.Trials; trial++ {
		down := map[string]bool{}
		for _, n := range hwList {
			if rng.Float64() < c.FailureProb {
				down[n] = true
			}
		}
		anyLoss := false
		for _, m := range modules {
			reps := c.ReplicasOf[m]
			alive := 0
			for _, r := range reps {
				if !down[c.HWOf[r]] {
					alive++
				}
			}
			need := 1
			if c.MajorityRequired {
				need = len(reps)/2 + 1
			}
			if alive < need {
				res.ModuleFailures[m]++
				res.CriticalityLoss += c.Criticality[m]
				anyLoss = true
			}
		}
		if anyLoss {
			res.TrialsWithAnyLoss++
		}
	}
	return res, nil
}
