// Package cluster implements the SW-graph condensation machinery of the
// integration framework (ICDCS 1998 §5.2, §5.4, §6): replication expansion,
// the reduction heuristics H1–H3, the criticality-driven pairing of §6.2
// (Approach B), and the timing-ordered grouping of Fig. 8.
//
// The problem being solved (§5.4): "Given a graph with directed weighted
// edges, group the nodes into sets such that the sum of weights between the
// sets is minimized" — subject to the feasibility constraints (replicas must
// separate, every group must be schedulable on one processor).
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/influence"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stage"
)

// Errors returned by reduction operations.
var (
	// ErrCannotReduce means no feasible merge exists but the node count is
	// still above target — the integration-level limit the paper asks
	// about ("Is there a limit to the level of integration one should
	// design for?").
	ErrCannotReduce = errors.New("cluster: no feasible combination can reduce the graph further")
	// ErrBadTarget marks a target node count below 1 or above the current
	// node count.
	ErrBadTarget = errors.New("cluster: invalid target node count")
	// ErrUnknownNode marks references to nodes not in the working graph.
	ErrUnknownNode = errors.New("cluster: unknown node")
)

// Step records one combination step of a reduction trace.
type Step struct {
	// A and B are the node (or cluster) ids combined.
	A, B string
	// Mutual is the mutual influence between them at combination time.
	Mutual float64
	// Result is the id of the combined node.
	Result string
	// Rule names the heuristic step, e.g. "H1", "criticality-pair".
	Rule string
}

// String renders the step for traces.
func (s Step) String() string {
	return fmt.Sprintf("%s: %s + %s (mutual %.3g) -> %s", s.Rule, s.A, s.B, s.Mutual, s.Result)
}

// Condenser reduces a software influence graph to a target number of
// cluster nodes while enforcing the framework's feasibility constraints:
// replicas never share a cluster, and every cluster's job set must be
// schedulable on one processor.
type Condenser struct {
	// G is the working graph, mutated by reductions.
	G *graph.Graph
	// jobs maps each base node id to its scheduling job.
	jobs map[string]sched.Job
	// Trace accumulates the combination steps in order.
	Trace []Step
	// Ctx, when set, is polled cooperatively at the head of every
	// reduction loop so a deadline or cancellation aborts the condensation
	// promptly (with a stage-classified error wrapping Ctx.Err()) instead
	// of after the whole reduction: up to n merge steps, each scanning
	// O(n²) pairs and running a feasibility test on every pair that would
	// improve the best so far. Nil disables the checks.
	Ctx context.Context
	// Workers sizes the goroutine pool of the Eq. 3 separation sweeps
	// inside ReduceBySeparation (0 = GOMAXPROCS). The reduction is
	// bit-identical for every value; only wall-clock time changes.
	Workers int
	// span receives one event per merge / backtrack, and its observer's
	// registry backs metrics; led receives one provenance record per merge
	// and backtrack, stamped with ledAttempt. All stay nil — every call a
	// no-op — unless Observe installs them.
	span       *obs.Span
	metrics    condMetrics
	led        *ledger.Ledger
	ledAttempt int
	// mutual and sizes are H1's pair-scan scratch (the mutual-influence
	// matrix and member counts of the current nodes), reused across merge
	// steps.
	mutual []float64
	sizes  []int
}

// checkCtx is the cooperative cancellation check-point of the reduction
// hot loops.
func (c *Condenser) checkCtx() error {
	return stage.Check(c.Ctx, "condense")
}

// condMetrics caches the condenser's instrument handles (nil handles
// absorb every call).
type condMetrics struct {
	pairsConsidered  *obs.Counter
	pairsFeasible    *obs.Counter
	rejectedReplica  *obs.Counter
	rejectedTiming   *obs.Counter
	merges           *obs.Counter
	backtracks       *obs.Counter
	mergeMutual      *obs.Histogram
	clusterSizeAfter *obs.Gauge
}

// Observe installs the condenser's reporting: merge and backtrack events
// go to span, candidate-pair counters to span's observer registry, and
// every Combine appends a merge record (rule, operands, Eq. 4 mutual
// influence, resulting cluster) and every backtrack a backtrack record to
// led, stamped with the given fallback-attempt number. Nil span or ledger
// records nothing on that channel.
func (c *Condenser) Observe(span *obs.Span, led *ledger.Ledger, attempt int) {
	c.span, c.led, c.ledAttempt = span, led, attempt
	reg := span.Metrics()
	c.metrics = condMetrics{
		pairsConsidered:  reg.Counter("cluster_candidate_pairs_total", "candidate pairs examined by CanCombine"),
		pairsFeasible:    reg.Counter("cluster_feasible_pairs_total", "candidate pairs passing replica and timing checks"),
		rejectedReplica:  reg.Counter("cluster_rejected_replica_total", "pairs rejected for replica separation"),
		rejectedTiming:   reg.Counter("cluster_rejected_timing_total", "pairs rejected as timing infeasible"),
		merges:           reg.Counter("cluster_merges_total", "combination steps applied"),
		backtracks:       reg.Counter("cluster_backtracks_total", "criticality-pairing backtracks"),
		mergeMutual:      reg.Histogram("cluster_merge_mutual_influence", "mutual influence of applied merges", nil),
		clusterSizeAfter: reg.Gauge("cluster_nodes_current", "working-graph node count"),
	}
}

// NewCondenser wraps a graph (typically the output of Expand) and the jobs
// of its base nodes. The graph is used directly, not copied: clone before
// constructing if the original must survive.
func NewCondenser(g *graph.Graph, jobs []sched.Job) *Condenser {
	jm := make(map[string]sched.Job, len(jobs))
	for _, j := range jobs {
		jm[j.Name] = j
	}
	return &Condenser{G: g, jobs: jm}
}

// JobsOf returns the scheduling jobs of the base members of node id
// (id may be a plain node or a cluster id).
func (c *Condenser) JobsOf(id string) []sched.Job {
	members := graph.Members(id)
	out := make([]sched.Job, 0, len(members))
	for _, m := range members {
		if j, ok := c.jobs[m]; ok {
			out = append(out, j)
		}
	}
	return out
}

// CanCombine reports whether nodes a and b may be combined, and if not,
// why: replicas must stay apart (§5.2), and the union of their jobs must be
// schedulable on one processor (§6). Verdicts are counted when the
// condenser is observed.
func (c *Condenser) CanCombine(a, b string) (bool, string) {
	c.metrics.pairsConsidered.Inc()
	if !c.G.HasNode(a) || !c.G.HasNode(b) {
		return false, "unknown node"
	}
	if a == b {
		return false, "same node"
	}
	if c.G.AreReplicas(a, b) {
		c.metrics.rejectedReplica.Inc()
		return false, "replicas of one module"
	}
	jobs := append(c.JobsOf(a), c.JobsOf(b)...)
	ok, witness, err := sched.Feasible(jobs)
	if err != nil {
		return false, err.Error()
	}
	if !ok {
		c.metrics.rejectedTiming.Inc()
		return false, "timing infeasible: " + witness
	}
	c.metrics.pairsFeasible.Inc()
	return true, ""
}

// Combine merges two nodes (after a CanCombine check) using the Eq. (4)
// influence combination, records the step under the given rule label, and
// returns the new cluster id.
func (c *Condenser) Combine(a, b, rule string) (string, error) {
	if ok, why := c.CanCombine(a, b); !ok {
		return "", fmt.Errorf("cluster: cannot combine %q and %q: %s", a, b, why)
	}
	mutual := c.G.MutualInfluence(a, b)
	id, err := c.G.Contract([]string{a, b}, influence.MustCombine)
	if err != nil {
		return "", fmt.Errorf("cluster: contract: %w", err)
	}
	c.Trace = append(c.Trace, Step{A: a, B: b, Mutual: mutual, Result: id, Rule: rule})
	c.led.Append(ledger.Record{
		Kind: ledger.KindMerge, Stage: "condense", Rule: rule,
		A: a, B: b, Score: mutual, Result: id, Attempt: c.ledAttempt,
	})
	if c.span != nil {
		c.span.Event("merge",
			obs.String("rule", rule),
			obs.String("a", a),
			obs.String("b", b),
			obs.Float("mutual", mutual),
			obs.String("result", id),
			obs.Int("nodes_left", c.G.NumNodes()))
	}
	c.metrics.merges.Inc()
	c.metrics.mergeMutual.Observe(mutual)
	c.metrics.clusterSizeAfter.Set(float64(c.G.NumNodes()))
	return id, nil
}

// backtrack books one undone pairing decision of the criticality search
// (§6.2's conflict resolution) as an event and a counter tick.
func (c *Condenser) backtrack(hi, lo string) {
	c.led.Append(ledger.Record{
		Kind: ledger.KindBacktrack, Stage: "condense", Rule: "criticality-pair",
		A: hi, B: lo, Detail: "pairing conflict, partner choice undone",
		Attempt: c.ledAttempt,
	})
	if c.span != nil {
		c.span.Event("backtrack",
			obs.String("high", hi),
			obs.String("low", lo),
			obs.String("why", "pairing conflict, partner choice undone"))
	}
	c.metrics.backtracks.Inc()
}

// Partition returns the current node groups as member lists, sorted.
func (c *Condenser) Partition() [][]string {
	nodes := c.G.Nodes()
	out := make([][]string, 0, len(nodes))
	for _, id := range nodes {
		out = append(out, graph.Members(id))
	}
	return out
}

// checkTarget validates a reduction target against the current graph.
func (c *Condenser) checkTarget(target int) error {
	n := c.G.NumNodes()
	if target < 1 || target > n {
		return fmt.Errorf("%w: target %d with %d nodes", ErrBadTarget, target, n)
	}
	return nil
}

// criticalityOf reads a node's criticality attribute.
func (c *Condenser) criticalityOf(id string) float64 {
	return c.G.Attrs(id).Value(attrs.Criticality)
}
