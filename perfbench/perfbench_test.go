package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"path/filepath"
	"strings"
	"testing"

	depint "repro"
	"repro/internal/mapping"
)

// paperReference integrates the worked example as a checked reference.
func paperReference(t *testing.T) (*scenario, *depint.Result) {
	t.Helper()
	sc, res, err := integrateReference(depint.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	return sc, res
}

// countedFailures runs check through a bench tally and returns failed.
func countedFailures(err error) int {
	b := &bench{out: io.Discard, values: map[string]float64{}}
	b.check("negative control", err)
	return b.failed
}

func TestIntegrateCheckCountsPerturbedAssignment(t *testing.T) {
	sc, res := paperReference(t)
	if n := countedFailures(sc.ref.verify(res.Assignment, nil)); n != 0 {
		t.Fatalf("unperturbed assignment counted %d failures", n)
	}
	moved := maps.Clone(res.Assignment)
	clusters := moved.Clusters()
	a, b := clusters[0], clusters[1]
	moved[a], moved[b] = moved[b], moved[a]
	if n := countedFailures(sc.ref.verify(moved, nil)); n != 1 {
		t.Fatalf("swapped placement of %s and %s counted %d failures, want 1", a, b, n)
	}
}

func TestPlacementCheckCatchesSharedReplicaNode(t *testing.T) {
	sc, _ := paperReference(t)
	reps := sc.ref.replicas["p1"]
	if len(reps) < 2 {
		t.Fatalf("p1 has replicas %v, want at least two", reps)
	}
	shared := mapping.Assignment{}
	for _, n := range sc.ref.nodes {
		shared[n] = "hw-" + n
	}
	shared[reps[1]] = shared[reps[0]]
	if err := checkPlacement(shared, sc.ref.nodes, sc.ref.replicas); err == nil {
		t.Fatal("two replicas of p1 on one HW node passed the placement check")
	}
	delete(shared, reps[1])
	if err := checkPlacement(shared, sc.ref.nodes, sc.ref.replicas); err == nil {
		t.Fatal("an unassigned replica passed the placement check")
	}
}

func TestCampaignCheckCountsPerturbedResult(t *testing.T) {
	_, res := paperReference(t)
	c := campaignConfig(res, 1280, 7)
	want, _, err := timedRun(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := timedRun(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := countedFailures(checkCampaign(got, want, c.Trials)); n != 0 {
		t.Fatalf("Workers=2 result counted %d failures against Workers=1", n)
	}
	counter := got
	counter.TrialsWithEscape++
	if n := countedFailures(checkCampaign(counter, want, c.Trials)); n != 1 {
		t.Fatalf("one changed counter counted %d failures, want 1", n)
	}
	perNode := got
	perNode.AffectedCount = maps.Clone(got.AffectedCount)
	for k := range perNode.AffectedCount {
		perNode.AffectedCount[k]++
		break
	}
	if n := countedFailures(checkCampaign(perNode, want, c.Trials)); n != 1 {
		t.Fatalf("one changed per-node count counted %d failures, want 1", n)
	}
}

func TestFabricCampaignMatchesLocalRun(t *testing.T) {
	_, res := paperReference(t)
	c := campaignConfig(res, 6400, 3)
	want, _, err := timedRun(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, relay := range []bool{true, false} {
		got, _, err := tcpCampaign(c, 2, relay)
		if err != nil {
			t.Fatalf("relay=%t: %v", relay, err)
		}
		if err := checkCampaign(got, want, c.Trials); err != nil {
			t.Fatalf("relay=%t: %v", relay, err)
		}
	}
}

func TestAttributeSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 1, Start: 15, End: 25}, // inside a
	}
	a := attribute(spans, "op")
	if a.roots != 1 || a.rootNS != 100 {
		t.Fatalf("roots %d rootNS %d, want 1 and 100", a.roots, a.rootNS)
	}
	if got := a.selfNS["a"]; got != 20 {
		t.Errorf("self(a) = %d, want 20", got)
	}
	if got := a.selfNS["b"]; got != 30 {
		t.Errorf("self(b) = %d, want 30", got)
	}
	if a.residualNS != 50 {
		t.Errorf("residual = %d, want 50 (100 minus the union 10..60)", a.residualNS)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires every named metric to be printed with its unit and the final
// line to be a result with exactly the contracted metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	named := map[string][]string{
		"integrate": {"integrate_s s", "integrate_small_s s"},
		"campaign":  {"campaign_trials_per_s 1/s", "campaign_serial_trials_per_s 1/s"},
		"fabric":    {"fabric_trials_per_s 1/s", "fabric_quiet_trials_per_s 1/s"},
	}
	for w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				o := defaultOptions(w)
				o.seed, o.seconds, o.trace = 5, 0.01, trace == "1"
				o.processes, o.small, o.trials, o.sets, o.setups = 12, 8, 6400, 1, 1
				o.spansOut = filepath.Join(t.TempDir(), "spans.json")
				var out, errOut bytes.Buffer
				if code := run(o, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				text := out.String()
				defs := endToEnd
				want := append([]string{"error_rate ratio"}, named[w]...)
				if trace == "1" {
					defs, want = perLayer, []string{"error_rate ratio"}
				}
				for _, d := range defs {
					want = append(want, d.name+" "+d.unit)
				}
				for _, nw := range want {
					name, unit, _ := strings.Cut(nw, " ")
					if !metricLine(text, name, unit) {
						t.Errorf("metric %s with unit %s not printed", name, unit)
					}
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, text)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("result metric %s = %+v, want unit %s", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// metricLine reports whether some output line names the metric and then
// its unit.
func metricLine(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestParseArgs pins the command line to the four contracted flags: the
// sizes are fixed, so a size flag is an error.
func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "fabric", "--seed", "9", "--seconds", "2", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := defaultOptions("fabric")
	want.seed, want.seconds, want.trace = 9, 2, true
	if o != want {
		t.Fatalf("parsed %+v, want %+v", o, want)
	}
	for _, args := range [][]string{
		{"--workload", "integrate", "--trials", "100"},
		{"--workload", "integrate", "--trace", "2"},
		{"--workload", "nope"},
		{"--workload", "campaign", "--seconds", "0"},
	} {
		if _, err := parseArgs(args, io.Discard); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}
