package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	depint "repro"
	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/influence"
	"repro/internal/ledger"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scengen"
	"repro/internal/sched"
)

// scenario is one integration problem and, once integrated, the reference
// every later integration of it must reproduce.
type scenario struct {
	name string
	sys  *depint.System
	ref  *reference
}

// reference is the checked outcome of a scenario's first integration.
type reference struct {
	assignment mapping.Assignment
	report     mapping.Report
	header     ledger.Header
	records    []ledger.Record
	decisionFP string // digest of the decision ledger's records
	nodes      []string
	replicas   map[string][]string
}

// subSeed derives the seed of scenario set i from the run seed.
func subSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// generateSet builds one scenario per topology family at the given size.
func generateSet(processes int, seed uint64) ([]*scenario, error) {
	var set []*scenario
	for _, f := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: f, Processes: processes, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("generate %s n=%d seed=%d: %w", f, processes, seed, err)
		}
		set = append(set, &scenario{name: sc.System.Name, sys: sc.System})
	}
	return set, nil
}

// integrate runs the pipeline with its defaults (H1, Approach A), with a
// fresh decision ledger when withLedger is set.
func integrate(sys *depint.System, withLedger bool) (*depint.Result, *ledger.Ledger, error) {
	var led *ledger.Ledger
	var opts []depint.Option
	if withLedger {
		led = ledger.New(ledger.Header{Tool: "perfbench"})
		opts = append(opts, depint.WithLedger(led))
	}
	res, err := depint.Integrate(sys, opts...)
	return res, led, err
}

// check validates one integration of sc: the first becomes the reference
// after passing the placement checks; every later one must reproduce it.
func (sc *scenario) check(res *depint.Result, led *ledger.Ledger, err error) error {
	if err != nil {
		return err
	}
	if sc.ref == nil {
		ref, err := newReference(res, led)
		if err != nil {
			return err
		}
		sc.ref = ref
		return nil
	}
	return sc.ref.verify(res.Assignment, led)
}

// newReference checks a first integration and keeps what later calls are
// compared against. The ledger must be present.
func newReference(res *depint.Result, led *ledger.Ledger) (*reference, error) {
	if led == nil {
		return nil, errors.New("reference integration ran without a ledger")
	}
	exp, err := cluster.Expand(res.Initial, res.System.Jobs())
	if err != nil {
		return nil, fmt.Errorf("expand for placement check: %w", err)
	}
	ref := &reference{
		assignment: res.Assignment,
		report:     res.Report,
		header:     led.Header(),
		records:    led.Records(),
		decisionFP: ledger.Fingerprint(led.Records()),
		nodes:      res.Expanded.Nodes(),
		replicas:   exp.ReplicasOf,
	}
	return ref, checkPlacement(ref.assignment, ref.nodes, ref.replicas)
}

// verify compares an assignment (and ledger, when present) with the
// reference.
func (ref *reference) verify(asg mapping.Assignment, led *ledger.Ledger) error {
	if err := checkPlacement(asg, ref.nodes, ref.replicas); err != nil {
		return err
	}
	if !reflect.DeepEqual(asg, ref.assignment) {
		return fmt.Errorf("assignment differs from the reference")
	}
	if led == nil {
		return nil
	}
	if got, want := led.Header().Fingerprint, ref.header.Fingerprint; got != want {
		return fmt.Errorf("ledger fingerprint %s, reference %s", got, want)
	}
	if got := ledger.Fingerprint(led.Records()); got != ref.decisionFP {
		return fmt.Errorf("decision fingerprint %s, reference %s", got, ref.decisionFP)
	}
	return nil
}

// checkPlacement requires every expanded node to be assigned exactly once
// and no two replicas of one process to share a HW node.
func checkPlacement(asg mapping.Assignment, nodes []string, replicas map[string][]string) error {
	hwOf := map[string]string{}
	for cl, node := range asg {
		for _, m := range graph.Members(cl) {
			if prev, dup := hwOf[m]; dup {
				return fmt.Errorf("node %s assigned twice (%s and %s)", m, prev, node)
			}
			hwOf[m] = node
		}
	}
	for _, n := range nodes {
		if _, ok := hwOf[n]; !ok {
			return fmt.Errorf("node %s is not assigned", n)
		}
	}
	if len(hwOf) != len(nodes) {
		return fmt.Errorf("%d nodes assigned, the expanded graph has %d", len(hwOf), len(nodes))
	}
	for base, reps := range replicas {
		on := map[string]string{}
		for _, r := range reps {
			if other, clash := on[hwOf[r]]; clash {
				return fmt.Errorf("replicas %s and %s of %s share HW node %s", other, r, base, hwOf[r])
			}
			on[hwOf[r]] = r
		}
	}
	return nil
}

// integrateState is the integrate workload's input: scenario sets at full
// size (the main arm) and at the small size (the comparison arm).
type integrateState struct {
	big, small [][]*scenario
}

// setUpIntegrate generates every scenario set and integrates the small
// sets as references. A full-size set's reference is its first call in
// the measurement loop: integrating them here would triple the set-up
// time of every run.
func setUpIntegrate(o options) (*integrateState, error) {
	st := &integrateState{}
	for i := 0; i < o.sets; i++ {
		set, err := generateSet(o.processes, subSeed(o.seed, i))
		if err != nil {
			return nil, err
		}
		st.big = append(st.big, set)
	}
	for i := 0; i < 2*o.sets; i++ {
		set, err := generateSet(o.small, subSeed(o.seed, o.sets+i))
		if err != nil {
			return nil, err
		}
		for _, sc := range set {
			res, led, err := integrate(sc.sys, true)
			if err := sc.check(res, led, err); err != nil {
				return nil, fmt.Errorf("reference %s: %w", sc.name, err)
			}
		}
		st.small = append(st.small, set)
	}
	return st, nil
}

// rotation integrates every scenario of a set once, checking each call,
// and returns the summed wall time of the calls.
func (b *bench) rotation(set []*scenario) float64 {
	total := 0.0
	for _, sc := range set {
		settle()
		t0 := time.Now()
		res, led, err := integrate(sc.sys, true)
		total += time.Since(t0).Seconds()
		b.check("integrate "+sc.name, sc.check(res, led, err))
	}
	return total
}

// runIntegrate is the integrate workload: a single caller in a closed
// loop rotating over the four families. Each full-size rotation (op_s)
// is followed by two small rotations (alt_op_s), cycling through the
// small sets. The loop runs whole passes over the full-size sets, at
// least two, so every set's later calls are checked against its first; it
// stops at the pass boundary nearest the deadline. Both arms report the
// mean over those passes: every rotation covers different scenarios, and
// the mean weighs them equally.
func runIntegrate(b *bench) error {
	o := b.opts
	var st *integrateState
	if err := b.measureSetup(func() (err error) {
		st, err = setUpIntegrate(o)
		return err
	}); err != nil {
		return err
	}
	if o.trace {
		return b.traceIntegrate(st)
	}
	var main, alt []float64
	dl := deadline(o)
	for pass := 0; ; pass++ {
		t0 := time.Now()
		for _, set := range st.big {
			var d float64
			if err := b.measurePeak(func() { d = b.rotation(set) }); err != nil {
				return err
			}
			main = append(main, d)
			for k := 0; k < 2; k++ {
				alt = append(alt, b.rotation(st.small[len(alt)%len(st.small)]))
			}
		}
		// Stop at the whole-pass boundary nearest the deadline.
		if pass >= 1 && time.Until(dl) < time.Since(t0)/2 {
			break
		}
	}
	b.printDecisions(st)
	b.showSeries("integrate_s", "s", main, byMean)
	b.showSeries("integrate_small_s", "s", alt, byMean)
	return b.finishEndToEnd(main, alt, byMean)
}

// printDecisions prints each full-size scenario's decision fingerprint,
// so a decision change shows when two commits' outputs are compared.
func (b *bench) printDecisions(st *integrateState) {
	fmt.Fprintln(b.out, "decision fingerprints:")
	for _, set := range st.big {
		for _, sc := range set {
			if sc.ref != nil {
				fmt.Fprintf(b.out, "  %-28s config=%s decisions=%s records=%d\n",
					sc.name, sc.ref.header.Fingerprint, sc.ref.decisionFP, len(sc.ref.records))
			}
		}
	}
}

// integrateCounts accumulates the counters a traced replay reads.
type integrateCounts struct {
	mergeSteps, records int
	condenseAllocs      uint64
	feasCalls, feasOK   int64
	feasSeconds         float64
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs(ms *runtime.MemStats) uint64 {
	runtime.ReadMemStats(ms)
	return ms.Mallocs
}

// replayIntegrate drives Integrate's layers one by one for sc, exactly as
// Integrate composes them with its defaults, recording a span around each
// layer call under parent. The resulting assignment and goodness report
// must equal the reference's.
func replayIntegrate(tr *tracer, parent int, sc *scenario, acc *integrateCounts) error {
	sys, ref := sc.sys, sc.ref
	if ref == nil {
		return fmt.Errorf("%s: no reference to replay against", sc.name)
	}
	if err := sys.Validate(); err != nil {
		return err
	}
	weights, err := attrs.DefaultWeights()
	if err != nil {
		return err
	}

	sp := tr.start("influence.separation", parent)
	initial, err := sys.Graph()
	if err == nil {
		p, _ := initial.Matrix()
		_, err = influence.SeparationMatrixWorkers(context.Background(), p, 0, 0)
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("separation: %w", err)
	}

	sp = tr.start("cluster.expand", parent)
	exp, err := cluster.Expand(initial, sys.Jobs())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("expand: %w", err)
	}
	expanded := exp.Graph.Clone()
	platform, err := defaultPlatform(sys)
	if err != nil {
		return err
	}
	req := requirements(sys, exp)

	var ms runtime.MemStats
	before := mallocs(&ms)
	sp = tr.start("cluster.condense", parent)
	cond := cluster.NewCondenser(exp.Graph, exp.Jobs)
	err = cond.ReduceByInfluence(sys.HWNodes)
	tr.end(sp)
	acc.condenseAllocs += mallocs(&ms) - before
	if err != nil {
		return fmt.Errorf("condense: %w", err)
	}
	acc.mergeSteps += len(cond.Trace)

	sp = tr.start("mapping.assign", parent)
	asg, _, err := mapping.AssignByImportanceDetailed(cond.G, platform, weights, req)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("assign: %w", err)
	}

	sp = tr.start("mapping.evaluate", parent)
	report := mapping.Evaluate(expanded, asg, platform, mapping.EvalConfig{CriticalThreshold: 10, Requirements: req})
	tr.end(sp)

	mods := make([]metrics.ModuleSpec, 0, len(sys.Processes))
	for _, p := range sys.Processes {
		mods = append(mods, metrics.ModuleSpec{Name: p.Name, FaultProb: 0.1, Replicas: p.FT, Majority: p.FT >= 3})
	}
	sp = tr.start("metrics.reliability", parent)
	_, err = metrics.SystemReliability(mods)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("reliability: %w", err)
	}

	led := ledger.New(ref.header)
	sp = tr.start("ledger.append", parent)
	led.AppendAll(ref.records)
	tr.end(sp)
	sp = tr.start("ledger.write", parent)
	err = led.WriteJSONL(io.Discard)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	acc.records += led.Len()

	if !reflect.DeepEqual(report, ref.report) {
		return errors.New("replayed goodness report differs from Integrate's")
	}
	return ref.verify(asg, nil)
}

// defaultPlatform builds the platform Integrate uses by default: a
// complete graph of HWNodes processors, each offering every resource the
// specification names.
func defaultPlatform(sys *depint.System) (*hw.Platform, error) {
	platform, err := hw.Complete(sys.HWNodes)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	for _, name := range platform.Nodes() {
		node, err := platform.Node(name)
		if err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
		for _, p := range sys.Processes {
			for _, r := range p.Resources {
				node.Resources[r] = true
			}
		}
	}
	return platform, nil
}

// requirements expands per-process resource requirements onto replicas,
// as Integrate does.
func requirements(sys *depint.System, exp *cluster.Expansion) mapping.Requirements {
	req := mapping.Requirements{}
	for _, p := range sys.Processes {
		if len(p.Resources) == 0 {
			continue
		}
		for _, rep := range exp.ReplicasOf[p.Name] {
			req[rep] = append([]string(nil), p.Resources...)
		}
	}
	return req
}

// observeSched installs a fresh feasibility-oracle registry for one traced
// replay and returns the function that uninstalls it and adds its counts.
func observeSched(acc *integrateCounts) func() {
	reg := obs.NewRegistry()
	sched.Observe(reg)
	return func() {
		sched.Observe(nil)
		acc.feasCalls += reg.Counter("sched_feasible_calls_total", "").Value()
		acc.feasOK += reg.Counter("sched_feasible_verdicts_total", "").Value()
		acc.feasSeconds += reg.Histogram("sched_feasible_seconds", "", obs.DurationBuckets).Sum()
	}
}

// traceReplay replays one scenario under a root span named root with the
// feasibility oracle observed, counting it as one checked operation.
func (b *bench) traceReplay(tr *tracer, root string, sc *scenario, acc *integrateCounts) {
	done := observeSched(acc)
	settle()
	sp := tr.start(root, -1)
	err := replayIntegrate(tr, sp, sc, acc)
	tr.end(sp)
	done()
	b.check("replay "+sc.name, err)
}

// setIntegrateLayers records the integrate-layer metrics of attribution a
// (per traced operation) and the counters in acc.
func (b *bench) setIntegrateLayers(a attribution, acc *integrateCounts) {
	ops := float64(max(a.roots, 1))
	b.set("influence.separation_s", a.perOp("influence.separation"))
	b.set("cluster.expand_s", a.perOp("cluster.expand"))
	b.set("cluster.condense_s", a.perOp("cluster.condense"))
	b.set("cluster.condense_allocs", float64(acc.condenseAllocs)/ops)
	b.set("cluster.merge_steps", float64(acc.mergeSteps)/ops)
	b.set("sched.feasible_calls", float64(acc.feasCalls)/ops)
	if acc.feasCalls > 0 {
		b.set("sched.feasible_ratio", float64(acc.feasOK)/float64(acc.feasCalls))
	}
	b.set("sched.feasible_s", acc.feasSeconds/ops)
	b.set("mapping.assign_s", a.perOp("mapping.assign"))
	b.set("mapping.evaluate_s", a.perOp("mapping.evaluate"))
	b.set("metrics.reliability_s", a.perOp("metrics.reliability"))
	b.set("ledger.records", float64(acc.records)/ops)
	b.set("ledger.append_s", a.perOp("ledger.append"))
	b.set("ledger.write_s", a.perOp("ledger.write"))
}

// traceIntegrate is the traced run of the integrate workload: untraced
// full-size rotations alternate with traced layer-by-layer replays of the
// same scenario set, in whole passes, at least one (each replay is checked
// against the untraced call before it). Each replay is its own root span,
// like each untraced call is timed alone.
func (b *bench) traceIntegrate(st *integrateState) error {
	o := b.opts
	tr := newTracer()
	acc := &integrateCounts{}
	var untraced []float64
	rotations := 0
	dl := deadline(o)
	for pass := 0; pass < 1 || time.Now().Before(dl); pass++ {
		for _, set := range st.big {
			untraced = append(untraced, b.rotation(set))
			for _, sc := range set {
				b.traceReplay(tr, "integrate.replay", sc, acc)
			}
			rotations++
		}
	}
	a := attribute(tr.snapshot(), "integrate.replay")
	a.roots = rotations // the replays of one set make one traced rotation
	b.setIntegrateLayers(a, acc)
	residual, overhead := b.table("integrate rotation (four full-size Integrate calls)", a, untraced,
		fmt.Sprintf("sched.feasible is inside cluster.condense (%.6g s/op of its self time). ", acc.feasSeconds/float64(max(a.roots, 1)))+
			"The replay calls the layers without Integrate's inline provenance records and stage handling, "+
			"so the overhead row also carries what Integrate adds around its layers and can be negative")
	return b.finishTrace(map[string]*tracer{"integrate": tr}, residual, overhead)
}
