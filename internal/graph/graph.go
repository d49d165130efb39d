// Package graph provides the weighted directed influence-graph substrate of
// the integration framework (ICDCS 1998 §3.4.4, §5.1).
//
// Nodes represent FCMs at one hierarchy level; a labelled unidirectional
// edge from node i to node j carries the influence of FCM_i on FCM_j — the
// probability that a fault in i causes a fault in j when no third FCM is
// considered. Edge labels record the contributing fault factors.
//
// Replica nodes (copies of one module created to satisfy a fault-tolerance
// requirement) are linked by special weight-0 edges; per §5.2, a pair joined
// by such an edge "cannot be combined, as the nodes contain replicas of the
// same module, which must be mapped onto different HW nodes". Absence of an
// edge means no influence.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/attrs"
)

// Sentinel errors returned by graph mutations and queries.
var (
	ErrDuplicateNode = errors.New("graph: node already exists")
	ErrNoSuchNode    = errors.New("graph: no such node")
	ErrSelfEdge      = errors.New("graph: self edges are not allowed")
	ErrBadWeight     = errors.New("graph: influence weight must be in [0,1]")
)

// Edge is one directed influence edge. Weight is the influence value of
// Eq. (2) in [0,1]. Factors lists the fault-factor names contributing to
// the influence (e.g. "shared-memory", "message", "timing"). Replica marks
// the weight-0 link between replicas of one module.
type Edge struct {
	From    string
	To      string
	Weight  float64
	Factors []string
	Replica bool
}

// Label renders the edge's factor tuple, e.g. "(shared-memory,timing)".
func (e Edge) Label() string {
	if len(e.Factors) == 0 {
		return ""
	}
	return "(" + strings.Join(e.Factors, ",") + ")"
}

// Graph is a directed, edge-weighted graph with attributed nodes. The zero
// value is not usable; call New.
type Graph struct {
	nodes map[string]attrs.Set
	// out[from][to] = Edge. At most one edge per ordered pair: influence is
	// already a combination over factors.
	out map[string]map[string]Edge
	in  map[string]map[string]Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]attrs.Set),
		out:   make(map[string]map[string]Edge),
		in:    make(map[string]map[string]Edge),
	}
}

// AddNode inserts a node with the given attribute set.
func (g *Graph) AddNode(id string, a attrs.Set) error {
	if id == "" {
		return fmt.Errorf("%w: empty id", ErrNoSuchNode)
	}
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	g.nodes[id] = a
	g.out[id] = make(map[string]Edge)
	g.in[id] = make(map[string]Edge)
	return nil
}

// RemoveNode deletes a node and all incident edges.
func (g *Graph) RemoveNode(id string) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	for to := range g.out[id] {
		delete(g.in[to], id)
	}
	for from := range g.in[id] {
		delete(g.out[from], id)
	}
	delete(g.nodes, id)
	delete(g.out, id)
	delete(g.in, id)
	return nil
}

// HasNode reports whether id exists.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// Attrs returns the attribute set of node id (zero Set if absent).
func (g *Graph) Attrs(id string) attrs.Set { return g.nodes[id] }

// SetAttrs replaces the attribute set of node id.
func (g *Graph) SetAttrs(id string, a attrs.Set) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	g.nodes[id] = a
	return nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// Nodes returns all node ids in sorted order (deterministic iteration).
func (g *Graph) Nodes() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SetEdge inserts or replaces the directed influence edge from→to.
// Replica edges must use AddReplicaEdge.
func (g *Graph) SetEdge(from, to string, weight float64, factors ...string) error {
	if err := g.checkPair(from, to); err != nil {
		return err
	}
	if weight < 0 || weight > 1 {
		return fmt.Errorf("%w: %g", ErrBadWeight, weight)
	}
	e := Edge{From: from, To: to, Weight: weight, Factors: append([]string(nil), factors...)}
	g.out[from][to] = e
	g.in[to][from] = e
	return nil
}

// AddReplicaEdge links two replicas of one module with the paper's
// weight-0 marker, in both directions (the relation is symmetric).
func (g *Graph) AddReplicaEdge(a, b string) error {
	if err := g.checkPair(a, b); err != nil {
		return err
	}
	for _, p := range [][2]string{{a, b}, {b, a}} {
		e := Edge{From: p[0], To: p[1], Weight: 0, Replica: true}
		g.out[p[0]][p[1]] = e
		g.in[p[1]][p[0]] = e
	}
	return nil
}

func (g *Graph) checkPair(from, to string) error {
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfEdge, from)
	}
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, to)
	}
	return nil
}

// RemoveEdge deletes the directed edge from→to if present.
func (g *Graph) RemoveEdge(from, to string) {
	if m, ok := g.out[from]; ok {
		delete(m, to)
	}
	if m, ok := g.in[to]; ok {
		delete(m, from)
	}
}

// EdgeBetween returns the directed edge from→to and whether it exists.
func (g *Graph) EdgeBetween(from, to string) (Edge, bool) {
	e, ok := g.out[from][to]
	return e, ok
}

// Influence returns the influence weight FCM_from → FCM_to; 0 when no edge.
func (g *Graph) Influence(from, to string) float64 {
	return g.out[from][to].Weight
}

// AreReplicas reports whether a and b are joined by a replica edge.
func (g *Graph) AreReplicas(a, b string) bool {
	e, ok := g.out[a][b]
	return ok && e.Replica
}

// OutEdges returns the out-edges of id sorted by target (deterministic).
func (g *Graph) OutEdges(id string) []Edge {
	return sortEdges(g.out[id], func(e Edge) string { return e.To })
}

// InEdges returns the in-edges of id sorted by source.
func (g *Graph) InEdges(id string) []Edge {
	return sortEdges(g.in[id], func(e Edge) string { return e.From })
}

func sortEdges(m map[string]Edge, key func(Edge) string) []Edge {
	es := make([]Edge, 0, len(m))
	for _, e := range m {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return key(es[i]) < key(es[j]) })
	return es
}

// Edges returns every directed edge, sorted by (From, To).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for _, id := range g.Nodes() {
		es = append(es, g.OutEdges(id)...)
	}
	return es
}

// MutualInfluence is the sum of the influences in both directions between
// a and b (§6.1: "combining nodes with high values of mutual influence —
// the sum of influences in each direction").
func (g *Graph) MutualInfluence(a, b string) float64 {
	return g.Influence(a, b) + g.Influence(b, a)
}

// MutualInfluenceMatrix fills buf with the symmetric row-major n×n matrix
// of mutual influence over ids (n = len(ids), sorted): entry i*n+j equals
// MutualInfluence(ids[i], ids[j]) bit for bit. Edges leaving ids are
// ignored. buf is reused when it holds n*n values and grown otherwise;
// the filled slice is returned.
func (g *Graph) MutualInfluenceMatrix(ids []string, buf []float64) []float64 {
	n := len(ids)
	if cap(buf) < n*n {
		buf = make([]float64, n*n)
	}
	buf = buf[:n*n]
	clear(buf)
	for i, id := range ids {
		for to, e := range g.out[id] {
			if j, ok := slices.BinarySearch(ids, to); ok {
				buf[i*n+j] = e.Weight
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m := buf[i*n+j] + buf[j*n+i]
			buf[i*n+j], buf[j*n+i] = m, m
		}
	}
	return buf
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for id, a := range g.nodes {
		c.nodes[id] = a.Clone()
		c.out[id] = make(map[string]Edge, len(g.out[id]))
		c.in[id] = make(map[string]Edge, len(g.in[id]))
	}
	for from, m := range g.out {
		for to, e := range m {
			e.Factors = append([]string(nil), e.Factors...)
			c.out[from][to] = e
			c.in[to][from] = e
		}
	}
	return c
}

// Matrix returns the influence matrix P (P[i][j] = influence of node i on
// node j) together with the sorted node-id index it is expressed in.
// Replica edges contribute 0, matching their weight.
func (g *Graph) Matrix() ([][]float64, []string) {
	ids := g.Nodes()
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	p := make([][]float64, len(ids))
	backing := make([]float64, len(ids)*len(ids))
	for i := range p {
		p[i] = backing[i*len(ids) : (i+1)*len(ids)]
	}
	for from, m := range g.out {
		for to, e := range m {
			if !e.Replica {
				p[idx[from]][idx[to]] = e.Weight
			}
		}
	}
	return p, ids
}

// Reachable returns the set of nodes reachable from start along edges with
// positive weight (replica edges do not transmit influence).
func (g *Graph) Reachable(start string) map[string]bool {
	seen := map[string]bool{}
	if _, ok := g.nodes[start]; !ok {
		return seen
	}
	queue := []string{start}
	seen[start] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for to, e := range g.out[cur] {
			if e.Replica || e.Weight <= 0 || seen[to] {
				continue
			}
			seen[to] = true
			queue = append(queue, to)
		}
	}
	return seen
}

// String renders the graph compactly for traces and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for _, id := range g.Nodes() {
		fmt.Fprintf(&b, "%s [%s]\n", id, g.nodes[id])
		for _, e := range g.OutEdges(id) {
			if e.Replica {
				fmt.Fprintf(&b, "  -> %s replica\n", e.To)
			} else {
				fmt.Fprintf(&b, "  -> %s %.3g%s\n", e.To, e.Weight, e.Label())
			}
		}
	}
	return b.String()
}
