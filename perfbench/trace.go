package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: the benchmark records one around each of
// its calls into a layer. Times are nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the fabric workload records from coordinator and
// worker goroutines at once.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) start(name string, parent int) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished span timed elsewhere: a receive measured from
// its first byte, or a span a worker relayed.
func (t *tracer) add(name string, parent int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// attribution is the per-layer breakdown of the root spans named root.
type attribution struct {
	roots      int              // root spans (traced operations)
	rootNS     int64            // their total duration
	selfNS     map[string]int64 // layer name -> total self time
	residualNS int64            // root time no child span covers
	counts     map[string]int   // layer name -> spans
}

// attribute computes self times under every root span named root. A
// span's self time is its duration minus the part of it its child spans
// cover; children that overlap (concurrent layers) are merged first, so
// the residual is the root time during which no layer was active.
func attribute(spans []span, root string) attribution {
	a := attribution{selfNS: map[string]int64{}, counts: map[string]int{}}
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		self := s.End - s.Start - covered(spans, children[i], s.Start, s.End)
		if s.Parent < 0 {
			a.roots++
			a.rootNS += s.End - s.Start
			a.residualNS += self
		} else {
			a.selfNS[s.Name] += self
			a.counts[s.Name]++
		}
		for _, c := range children[i] {
			walk(c)
		}
	}
	for i, s := range spans {
		if s.Parent < 0 && s.Name == root {
			walk(i)
		}
	}
	return a
}

// covered returns the length of the union of the given spans' intervals
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ids))
	for _, i := range ids {
		s, e := max(spans[i].Start, lo), min(spans[i].End, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for k, x := range iv {
		if k == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// perOp returns a layer's mean self time per traced operation, seconds.
func (a attribution) perOp(layer string) float64 {
	if a.roots == 0 {
		return 0
	}
	return float64(a.selfNS[layer]) / float64(a.roots) / 1e9
}

// table prints the attribution table: each layer's self time per traced
// operation and share, their sum, the traced and untraced operation
// times, the unattributed residual and the tracing overhead (traced
// minus untraced). It returns the residual and overhead per operation.
func (b *bench) table(title string, a attribution, untraced []float64, note string) (residual, overhead float64) {
	w := b.out
	fmt.Fprintf(w, "attribution: %s (%d traced operations, %d untraced)\n", title, a.roots, len(untraced))
	if note != "" {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
	if a.roots == 0 {
		return 0, 0
	}
	traced := float64(a.rootNS) / float64(a.roots) / 1e9
	layers := make([]string, 0, len(a.selfNS))
	for name := range a.selfNS {
		layers = append(layers, name)
	}
	sort.Slice(layers, func(i, j int) bool { return a.selfNS[layers[i]] > a.selfNS[layers[j]] })
	sum := 0.0
	fmt.Fprintf(w, "  %-28s %14s %8s %10s\n", "layer", "self s/op", "share", "spans/op")
	for _, l := range layers {
		v := a.perOp(l)
		sum += v
		fmt.Fprintf(w, "  %-28s %14.6g %7.2f%% %10.1f\n", l, v, 100*v/traced, float64(a.counts[l])/float64(a.roots))
	}
	residual = float64(a.residualNS) / float64(a.roots) / 1e9
	untracedMean := mean(untraced)
	overhead = traced - untracedMean
	fmt.Fprintf(w, "  %-28s %14.6g %7.2f%%\n", "sum of layers", sum, 100*sum/traced)
	fmt.Fprintf(w, "  %-28s %14.6g\n", "traced op (mean)", traced)
	fmt.Fprintf(w, "  %-28s %14.6g %7.2f%%\n", "unattributed residual", residual, 100*residual/traced)
	fmt.Fprintf(w, "  %-28s %14.6g   (median %.6g, n=%d)\n", "untraced op (mean)", untracedMean, median(untraced), len(untraced))
	fmt.Fprintf(w, "  %-28s %14.6g %7.2f%%\n", "tracing overhead", overhead, 100*overhead/max(untracedMean, 1e-12))
	return residual, overhead
}

// writeSpans writes every tracer's spans to path as one JSON document,
// keyed by phase, once the run has ended.
func writeSpans(path string, phases map[string]*tracer) (int, error) {
	doc := map[string][]span{}
	n := 0
	for name, t := range phases {
		doc[name] = t.snapshot()
		n += len(doc[name])
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(doc); err != nil {
		f.Close()
		return 0, fmt.Errorf("spans: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("spans: %w", err)
	}
	return n, nil
}

// finishTrace writes the spans out and reports the trace's own metrics.
func (b *bench) finishTrace(phases map[string]*tracer, residual, overhead float64) error {
	n, err := writeSpans(b.opts.spansOut, phases)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: wrote %d to %s\n", n, b.opts.spansOut)
	b.set("trace.unattributed_s", residual)
	b.set("trace.overhead_s", overhead)
	fmt.Fprintln(b.out, "per-layer metrics:")
	for _, d := range perLayer {
		b.show(d.name, b.values[d.name], d.unit, "")
	}
	return nil
}
