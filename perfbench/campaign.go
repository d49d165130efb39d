package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	depint "repro"
	"repro/internal/faultsim"
	"repro/internal/ledger"
	"repro/internal/scengen"
)

// meshScenarioSeed fixes the topology of the campaign workload's mesh
// system (n=96: 130 expanded nodes). The run seed drives the trial
// streams instead: per-trial cost differs by up to 2x between generated
// mesh topologies, which would swamp any comparison between commits.
const meshScenarioSeed = 7

// campaignConfig is the fault-injection campaign both fault workloads
// run: node and communication faults, critical-loss accounting on.
func campaignConfig(res *depint.Result, trials int, seed uint64) faultsim.Campaign {
	return faultsim.Campaign{
		Graph:             res.Expanded,
		HWOf:              res.HWOf(),
		Trials:            trials,
		Seed:              seed,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
	}
}

// integrateReference integrates sys with a ledger and checks the result,
// the set-up step of the fault workloads.
func integrateReference(sys *depint.System) (*scenario, *depint.Result, error) {
	sc := &scenario{name: sys.Name, sys: sys}
	res, led, err := integrate(sys, true)
	if err := sc.check(res, led, err); err != nil {
		return nil, nil, fmt.Errorf("integrate %s: %w", sys.Name, err)
	}
	return sc, res, nil
}

// checkCampaign requires a campaign result to be complete, to have run
// both fault paths, and to equal want exactly.
func checkCampaign(got, want faultsim.Result, trials int) error {
	if got.Trials != trials {
		return fmt.Errorf("%d trials merged, want %d", got.Trials, trials)
	}
	if got.CommFaultTrials == 0 || got.CommFaultTrials == got.Trials {
		return fmt.Errorf("%d of %d trials were communication faults: one fault path did not run", got.CommFaultTrials, got.Trials)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("result differs from the reference (escapes %d vs %d, affected %d vs %d)",
			got.TrialsWithEscape, want.TrialsWithEscape, got.TotalAffected, want.TotalAffected)
	}
	return nil
}

// timedRun runs one local campaign at the given pool width.
func timedRun(c faultsim.Campaign, workers int) (faultsim.Result, float64, error) {
	c.Workers = workers
	settle()
	t0 := time.Now()
	res, err := faultsim.Run(c)
	return res, time.Since(t0).Seconds(), err
}

// runCampaign is the campaign workload: one caller alternating a
// Workers=1 campaign (alt_op_s) with a Workers=nproc campaign (op_s) on
// the mesh system integrated during set-up. Every parallel result must
// equal the serial result of its pair, and every serial result the first.
func runCampaign(b *bench) error {
	o := b.opts
	var sc *scenario
	var c faultsim.Campaign
	if err := b.measureSetup(func() error {
		sys, err := meshSystem(o)
		if err != nil {
			return err
		}
		s, res, err := integrateReference(sys)
		if err != nil {
			return err
		}
		sc, c = s, campaignConfig(res, o.trials, o.seed)
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "campaign: %s, %d expanded nodes, %d trials, %d chunks\n",
		sc.name, c.Graph.NumNodes(), o.trials, faultsim.NumChunks(o.trials))
	if o.trace {
		return b.traceCampaign(sc, c)
	}
	var first *faultsim.Result
	var par, serial []float64
	dl := deadline(o)
	for i := 0; i < 2 || time.Now().Before(dl); i++ {
		s, ds, err := timedRun(c, 1)
		if err == nil && first == nil {
			first = &s
		}
		if err == nil {
			err = checkCampaign(s, *first, o.trials)
		}
		b.check("campaign Workers=1", err)
		var p faultsim.Result
		var dp float64
		if perr := b.measurePeak(func() { p, dp, err = timedRun(c, o.workers) }); perr != nil {
			return perr
		}
		if err == nil {
			err = checkCampaign(p, s, o.trials)
		}
		b.check(fmt.Sprintf("campaign Workers=%d", o.workers), err)
		serial, par = append(serial, ds), append(par, dp)
	}
	if first != nil {
		fmt.Fprintf(b.out, "result fingerprint: %s (escape rate %.6f)\n", ledger.Fingerprint(*first), first.EscapeRate())
	}
	b.showSeries("campaign_trials_per_s", "1/s", perSecond(o.trials, par), byMedian)
	b.showSeries("campaign_serial_trials_per_s", "1/s", perSecond(o.trials, serial), byMedian)
	return b.finishEndToEnd(par, serial, byMedian)
}

// meshSystem generates the campaign workload's mesh system.
func meshSystem(o options) (*depint.System, error) {
	sc, err := scengen.Generate(scengen.Config{Family: scengen.Mesh, Processes: o.processes, Seed: meshScenarioSeed})
	if err != nil {
		return nil, fmt.Errorf("generate mesh: %w", err)
	}
	return sc.System, nil
}

// perSecond converts per-operation seconds into units per second.
func perSecond(units int, secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = float64(units) / s
	}
	return out
}

// campaignCounts accumulates the allocation counters of traced replays.
type campaignCounts struct {
	trials, chunks        int
	kernelAllocs, kernelB uint64
}

// replayCampaign runs campaign c chunk by chunk through the distributed
// execution surface — a ChunkRunner computing each grid chunk and a
// Merger absorbing it serially — with a span around each call.
func replayCampaign(tr *tracer, parent int, c faultsim.Campaign, acc *campaignCounts) (faultsim.Result, error) {
	ctx := context.Background()
	sp := tr.start("faultsim.prepare", parent)
	runner, err := faultsim.NewChunkRunner(c)
	var merger *faultsim.Merger
	if err == nil {
		merger, err = faultsim.NewMerger(c, 1)
	}
	tr.end(sp)
	if err != nil {
		return faultsim.Result{}, err
	}
	var ms runtime.MemStats
	for i := 0; i < faultsim.NumChunks(c.Trials); i++ {
		begin, end := faultsim.ChunkBounds(i, c.Trials)
		runtime.ReadMemStats(&ms)
		n0, b0 := ms.Mallocs, ms.TotalAlloc
		sp := tr.start("faultsim.kernel", parent)
		out, err := runner.Run(ctx, begin, end)
		tr.end(sp)
		runtime.ReadMemStats(&ms)
		acc.kernelAllocs += ms.Mallocs - n0
		acc.kernelB += ms.TotalAlloc - b0
		if err != nil {
			return faultsim.Result{}, err
		}
		sp = tr.start("faultsim.merge", parent)
		stop, err := merger.Absorb(out)
		tr.end(sp)
		if err != nil {
			return faultsim.Result{}, err
		}
		acc.chunks++
		if stop {
			break
		}
	}
	sp = tr.start("faultsim.finish", parent)
	res := merger.Finish()
	tr.end(sp)
	acc.trials += res.Trials
	return res, nil
}

// setCampaignLayers records the fault-injection layer metrics.
func (b *bench) setCampaignLayers(a attribution, acc *campaignCounts) {
	if acc.trials == 0 {
		return
	}
	b.set("faultsim.kernel_ns_per_trial", float64(a.selfNS["faultsim.kernel"])/float64(acc.trials))
	b.set("faultsim.kernel_allocs_per_trial", float64(acc.kernelAllocs)/float64(acc.trials))
	b.set("faultsim.kernel_bytes_per_trial", float64(acc.kernelB)/float64(acc.trials))
	b.set("faultsim.merge_ns_per_chunk", float64(a.selfNS["faultsim.merge"])/float64(acc.chunks))
	b.set("faultsim.chunks", float64(acc.chunks)/float64(max(a.roots, 1)))
}

// traceSetUp replays the set-up integration layer by layer, checks it
// against the set-up result, and records the integrate-layer metrics
// (per set-up) that only setup_s reflects on the fault workloads.
func (b *bench) traceSetUp(sc *scenario) *tracer {
	tr := newTracer()
	acc := &integrateCounts{}
	b.traceReplay(tr, "integrate.setup", sc, acc)
	b.setIntegrateLayers(attribute(tr.snapshot(), "integrate.setup"), acc)
	return tr
}

// traceCampaign is the traced run of the campaign workload: untraced
// Workers=1 campaigns alternate with traced chunk-by-chunk replays, whose
// result must equal faultsim.Run's.
func (b *bench) traceCampaign(sc *scenario, c faultsim.Campaign) error {
	setup := b.traceSetUp(sc)
	tr := newTracer()
	acc := &campaignCounts{}
	var untraced []float64
	dl := deadline(b.opts)
	for i := 0; i < 2 || time.Now().Before(dl); i++ {
		want, d, err := timedRun(c, 1)
		b.check("campaign Workers=1", err)
		untraced = append(untraced, d)
		settle()
		root := tr.start("campaign.replay", -1)
		got, err := replayCampaign(tr, root, c, acc)
		tr.end(root)
		if err == nil {
			err = checkCampaign(got, want, c.Trials)
		}
		b.check("campaign replay", err)
	}
	a := attribute(tr.snapshot(), "campaign.replay")
	b.setCampaignLayers(a, acc)
	residual, overhead := b.table("campaign (serial: ChunkRunner.Run per chunk + Merger.Absorb vs faultsim.Run Workers=1)",
		a, untraced, "allocation counting (ReadMemStats per chunk) runs between spans, so it shows as residual")
	return b.finishTrace(map[string]*tracer{"setup": setup, "campaign": tr}, residual, overhead)
}
