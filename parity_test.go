package depint

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/ledger"
	"repro/internal/obs"
)

// attach hands a stage config (faultsim.Campaign, faultsim.SearchConfig)
// its telemetry through its Span field. A config layout that also
// declares Metrics or Bus fields gets the span's registry and bus there
// as well; going through reflection lets this test pin the same channels
// against either layout.
func attach(cfg any, o *obs.Observer, span *obs.Span) {
	v := reflect.ValueOf(cfg).Elem()
	for name, val := range map[string]any{"Span": span, "Metrics": o.Metrics(), "Bus": o.Bus()} {
		if f := v.FieldByName(name); f.IsValid() {
			f.Set(reflect.ValueOf(val))
		}
	}
}

// TestTelemetryChannelParity pins every telemetry channel of one observed
// run over the worked example — an Integrate, a Workers=1 campaign, a
// four-evaluation adversarial search and a robustness certification, all
// on one bus-backed observer and one ledger: the span events (names and
// attribute keys) per span path, the bus stream (kinds, names and
// attribute keys in publication order), every metric with its
// deterministic value, and the ledger bytes.
func TestTelemetryChannelParity(t *testing.T) {
	bus := obs.NewBus(1 << 14)
	sub := bus.Subscribe(0, 1<<14)
	defer sub.Close()
	o := obs.New(obs.WithBus(bus))
	led := ledger.New(ledger.Header{Tool: "parity"})
	sys := PaperExample()

	res, err := Integrate(sys, WithObserver(o), WithLedger(led))
	if err != nil {
		t.Fatal(err)
	}

	span := o.StartSpan("campaign")
	c := faultsim.Campaign{
		Graph: res.Expanded, HWOf: res.HWOf(), Trials: 2000, Seed: 7, Workers: 1,
		CriticalThreshold: 10, Label: "parity", Ledger: led,
	}
	attach(&c, o, span)
	if _, err := faultsim.Run(c); err != nil {
		t.Fatal(err)
	}
	span.End()

	span = o.StartSpan("search")
	sc := faultsim.SearchConfig{
		Graph: res.Expanded, HWOf: res.HWOf(), Trials: 200, Seed: 5, Workers: 1,
		MaxEvals: 4, CriticalThreshold: 10, Ledger: led,
	}
	attach(&sc, o, span)
	if _, err := faultsim.Search(sc); err != nil {
		t.Fatal(err)
	}
	span.End()

	if _, err := CertifyRobustness(sys, RobustnessConfig{
		Epsilons: []float64{0, 0.05}, Samples: 2, Trials: 200, Seed: 3,
		SkipSensitivity: true,
		Options:         []Option{WithObserver(o), WithLedger(led)},
	}); err != nil {
		t.Fatal(err)
	}

	var events []obs.BusEvent
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		events = append(events, ev)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("collector dropped %d events", sub.Dropped())
	}
	var ledBytes bytes.Buffer
	if err := led.WriteJSONL(&ledBytes); err != nil {
		t.Fatal(err)
	}

	for _, ch := range []struct{ name, got, want string }{
		{"span events", spanSignature(o.Roots()), wantSpanSignature},
		{"bus stream", busSignature(events), wantBusSignature},
		{"metrics", metricSignature(o.Metrics().Snapshot()), wantMetricSignature},
		{"ledger", fmt.Sprintf("%d records, sha256 %x", led.Len(), sha256.Sum256(ledBytes.Bytes())), wantLedgerSignature},
	} {
		if ch.got != ch.want {
			t.Errorf("%s changed:\n--- got ---\n%s\n--- want ---\n%s", ch.name, ch.got, ch.want)
		}
	}
}

// spanSignature counts each (span path, event name, attribute keys)
// triple over the whole trace forest, one sorted line per triple.
func spanSignature(roots []*obs.Span) string {
	counts := map[string]int{}
	var walk func(path string, s *obs.Span)
	walk = func(path string, s *obs.Span) {
		path += "/" + s.Name()
		counts[path]++
		for _, ev := range s.Events() {
			keys := make([]string, len(ev.Attrs))
			for i, a := range ev.Attrs {
				keys[i] = a.Key
			}
			counts[fmt.Sprintf("%s %s(%s)", path, ev.Name, strings.Join(keys, ","))]++
		}
		for _, c := range s.Children() {
			walk(path, c)
		}
	}
	for _, r := range roots {
		walk("", r)
	}
	return countedLines(counts)
}

// busSignature renders the stream in publication order as kind, name,
// owning span and sorted attribute keys, collapsing runs of identical
// lines into one line with a repeat count.
func busSignature(events []obs.BusEvent) string {
	var lines []string
	for _, ev := range events {
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		lines = append(lines, fmt.Sprintf("%s %s %s(%s)", ev.Kind, ev.Name, ev.Span, strings.Join(keys, ",")))
	}
	var b strings.Builder
	for i := 0; i < len(lines); {
		j := i
		for j < len(lines) && lines[j] == lines[i] {
			j++
		}
		fmt.Fprintf(&b, "%s x%d\n", lines[i], j-i)
		i = j
	}
	return b.String()
}

// metricSignature lists every instrument with its deterministic state:
// counter and gauge values, histogram observation counts (sums may hold
// wall-clock durations).
func metricSignature(s obs.RegistrySnapshot) string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %.6g\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s %d\n", h.Name, h.Count)
	}
	return b.String()
}

func countedLines(counts map[string]int) string {
	lines := make([]string, 0, len(counts))
	for l, n := range counts {
		lines = append(lines, fmt.Sprintf("%s x%d", l, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

const wantSpanSignature = `/campaign checkpoint(trials_done,trials_total,escape_rate,mean_affected,cross_transmissions,mean_crit_loss) x10
/campaign x1
/certify_robustness robust_level(epsilon,stable_fraction,worst_escape_delta,errors) x2
/certify_robustness x1
/integrate x4
/integrate/condense merge(rule,a,b,mutual,result,nodes_left) x24
/integrate/condense x4
/integrate/evaluate x4
/integrate/influence x4
/integrate/map x4
/integrate/partition x4
/integrate/replicate x4
/search search_done(best,score,evaluations,exhausted) x1
/search search_eval(scenario,score,escape_rate,replayed) x4
/search x1
`

const wantBusSignature = `span_start integrate (approach,hw_nodes,strategy,system) x1
span_start partition integrate() x1
span_end partition (duration_ms) x1
span_start influence integrate() x1
span_end influence (duration_ms) x1
span_start replicate integrate() x1
span_end replicate (duration_ms) x1
span_start condense integrate(attempt,strategy) x1
event merge condense(a,b,mutual,nodes_left,result,rule) x6
span_end condense (duration_ms) x1
span_start map integrate(approach,attempt) x1
span_end map (duration_ms) x1
span_start evaluate integrate() x1
span_end evaluate (duration_ms) x1
span_end integrate (duration_ms) x1
span_start campaign () x1
campaign_start parity (model,trials_done,trials_total,workers) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
event checkpoint campaign(cross_transmissions,escape_rate,mean_affected,mean_crit_loss,trials_done,trials_total) x1
campaign_checkpoint parity (escape_rate,half_width,trials_done,trials_total) x1
campaign_done parity (early_stopped,escape_rate,trials_done,trials_total) x1
span_end campaign (duration_ms) x1
span_start search () x1
event search_eval search(escape_rate,replayed,scenario,score) x1
search_eval search (escape_rate,replayed,scenario,score) x1
event search_eval search(escape_rate,replayed,scenario,score) x1
search_eval search (escape_rate,replayed,scenario,score) x1
event search_eval search(escape_rate,replayed,scenario,score) x1
search_eval search (escape_rate,replayed,scenario,score) x1
event search_eval search(escape_rate,replayed,scenario,score) x1
search_eval search (escape_rate,replayed,scenario,score) x1
event search_done search(best,evaluations,exhausted,score) x1
search_done search (evaluations,exhausted,scenario,score) x1
span_end search (duration_ms) x1
span_start certify_robustness (samples,system,trials) x1
span_start integrate (approach,hw_nodes,strategy,system) x1
span_start partition integrate() x1
span_end partition (duration_ms) x1
span_start influence integrate() x1
span_end influence (duration_ms) x1
span_start replicate integrate() x1
span_end replicate (duration_ms) x1
span_start condense integrate(attempt,strategy) x1
event merge condense(a,b,mutual,nodes_left,result,rule) x6
span_end condense (duration_ms) x1
span_start map integrate(approach,attempt) x1
span_end map (duration_ms) x1
span_start evaluate integrate() x1
span_end evaluate (duration_ms) x1
span_end integrate (duration_ms) x1
certify_member certify (epsilon,escape_delta,sample,stable) x2
event robust_level certify_robustness(epsilon,errors,stable_fraction,worst_escape_delta) x1
certify_level certify (epsilon,errors,stable_frac,worst_escape_delta) x1
span_start integrate (approach,hw_nodes,strategy,system) x1
span_start partition integrate() x1
span_end partition (duration_ms) x1
span_start influence integrate() x1
span_end influence (duration_ms) x1
span_start replicate integrate() x1
span_end replicate (duration_ms) x1
span_start condense integrate(attempt,strategy) x1
event merge condense(a,b,mutual,nodes_left,result,rule) x6
span_end condense (duration_ms) x1
span_start map integrate(approach,attempt) x1
span_end map (duration_ms) x1
span_start evaluate integrate() x1
span_end evaluate (duration_ms) x1
span_end integrate (duration_ms) x1
certify_member certify (epsilon,escape_delta,sample,stable) x1
span_start integrate (approach,hw_nodes,strategy,system) x1
span_start partition integrate() x1
span_end partition (duration_ms) x1
span_start influence integrate() x1
span_end influence (duration_ms) x1
span_start replicate integrate() x1
span_end replicate (duration_ms) x1
span_start condense integrate(attempt,strategy) x1
event merge condense(a,b,mutual,nodes_left,result,rule) x6
span_end condense (duration_ms) x1
span_start map integrate(approach,attempt) x1
span_end map (duration_ms) x1
span_start evaluate integrate() x1
span_end evaluate (duration_ms) x1
span_end integrate (duration_ms) x1
certify_member certify (epsilon,escape_delta,sample,stable) x1
event robust_level certify_robustness(epsilon,errors,stable_fraction,worst_escape_delta) x1
certify_level certify (epsilon,errors,stable_frac,worst_escape_delta) x1
certify_done certify (levels,stable_frac_widest) x1
span_end certify_robustness (duration_ms) x1
`

const wantMetricSignature = `counter cluster_backtracks_total 0
counter cluster_candidate_pairs_total 108
counter cluster_feasible_pairs_total 96
counter cluster_merges_total 24
counter cluster_rejected_replica_total 12
counter cluster_rejected_timing_total 0
counter faultsim_cross_transmissions_total 3267
counter faultsim_escape_trials_total 1135
counter faultsim_search_evals_total 4
counter faultsim_trials_total 2000
counter robust_evals_total 3
counter sched_feasible_calls_total 96
counter sched_feasible_verdicts_total 96
counter sched_infeasible_verdicts_total 0
gauge cluster_nodes_current 6
gauge faultsim_active_workers 0
gauge faultsim_escape_rate 0.5675
gauge faultsim_search_best_score 39.985
gauge robust_stable_fraction 1
histogram cluster_merge_mutual_influence 24
histogram sched_feasible_seconds 96
`

const wantLedgerSignature = `44 records, sha256 688d612e6388952b09ce9586b3db9e805ec6b79477d239f09387b7f845f6ffe0`
