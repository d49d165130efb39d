// Command perfbench is the repository benchmark. It drives the public
// functions of each layer from outside — scenario generation, Integrate,
// the fault-injection campaign and the distributed fabric — on seeded
// generated inputs, checks every output it times, and prints every metric
// by name with its unit and sample count. The last line of standard
// output is one JSON object with the fields correct, attempted, failed and
// metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload integrate --seed 1 --seconds 30 --trace 0
//
// Workloads are integrate, campaign and fabric (see README.md in this
// directory). --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 is the separate traced run that reports per-layer metrics and
// the attribution table.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options is one run's configuration. The command line sets only the
// workload, seed, measurement time and trace mode; the sizes are fixed by
// defaultOptions so that every run measures the same work. The smoke test
// builds a smaller options value itself.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	processes int    // generated processes per integrate scenario
	small     int    // processes per scenario of the small integrate arm
	trials    int    // trials per fault-injection campaign
	setups    int    // repeated set-ups behind setup_s
	sets      int    // full-size scenario sets (twice as many small ones)
	workers   int    // nproc: the parallel pool width and fabric worker count
	spansOut  string // where the traced run writes its spans
}

// defaultOptions returns the benchmark's sizes for one workload; the
// command line adds the seed, measurement time and trace mode.
func defaultOptions(workload string) options {
	return options{
		workload:  workload,
		processes: 96,
		small:     24,
		trials:    50000,
		setups:    9,
		sets:      5,
		workers:   runtime.NumCPU(),
		spansOut:  filepath.Join(".bench_build", "perfbench-spans-"+workload+".json"),
	}
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics --trace 0 reports on every workload. op_s is
// the workload's main arm and alt_op_s its comparison arm (see README.md).
var endToEnd = []metricDef{
	{"op_s", "s"},
	{"alt_op_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics --trace 1 reports on every workload. A layer
// that does no work on a workload reads 0 there.
var perLayer = []metricDef{
	{"influence.separation_s", "s"},
	{"cluster.expand_s", "s"},
	{"cluster.condense_s", "s"},
	{"cluster.condense_allocs", "count"},
	{"cluster.merge_steps", "count"},
	{"sched.feasible_calls", "count"},
	{"sched.feasible_ratio", "ratio"},
	{"sched.feasible_s", "s"},
	{"mapping.assign_s", "s"},
	{"mapping.evaluate_s", "s"},
	{"metrics.reliability_s", "s"},
	{"ledger.records", "count"},
	{"ledger.append_s", "s"},
	{"ledger.write_s", "s"},
	{"faultsim.kernel_ns_per_trial", "ns"},
	{"faultsim.kernel_allocs_per_trial", "count"},
	{"faultsim.kernel_bytes_per_trial", "B"},
	{"faultsim.merge_ns_per_chunk", "ns"},
	{"faultsim.chunks", "count"},
	{"fabric.frames_per_chunk", "count"},
	{"fabric.wire_bytes_per_chunk", "B"},
	{"fabric.result_frame_bytes", "B"},
	{"fabric.send_us_p50", "us"},
	{"fabric.recv_wait_s", "s"},
	{"fabric.leases_granted", "count"},
	{"fabric.lease_useful_ratio", "ratio"},
	{"fabric.reassigned", "count"},
	{"fabric.duplicates", "count"},
	{"obs.bus_events", "count"},
	{"obs.bus_dropped", "count"},
	{"obs.remote_spans", "count"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_s", "s"},
}

// bench carries one run's output and its operation tally.
type bench struct {
	opts      options
	out       io.Writer
	attempted int
	failed    int
	values    map[string]float64
	peaks     []float64 // peak resident set of each main-arm operation, MB
}

// check counts one timed operation and whether its output check passed.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.out, "FAIL %s: %v\n", what, err)
	}
}

// set records the value of a metric the JSON result reports.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// show prints one named metric line: value, unit, and how it was formed.
func (b *bench) show(name string, v float64, unit, how string) {
	fmt.Fprintf(b.out, "  %-34s %14.6g %-6s %s\n", name, v, unit, how)
}

// summary reduces a series of per-operation times to its reported value.
type summary struct {
	name string
	of   func([]float64) float64
}

var (
	byMedian = summary{"median", median}
	// byMean suits a series whose operations cover different inputs in
	// equal shares (the integrate workload's whole passes): the median of
	// a few differing inputs is whichever input lands in the middle.
	byMean = summary{"mean", mean}
)

// showSeries prints a timing series as its summary, its median, the
// highest percentile with at least ten samples beyond it, and the sample
// count.
func (b *bench) showSeries(name, unit string, xs []float64, s summary) {
	how := fmt.Sprintf("median, %s, n=%d", tailPercentile(xs, unit), len(xs))
	if s.name != byMedian.name {
		how = fmt.Sprintf("%s (median %.6g), %s, n=%d", s.name, median(xs), tailPercentile(xs, unit), len(xs))
	}
	b.show(name, s.of(xs), unit, how)
}

var workloads = map[string]func(*bench) error{
	"integrate": runIntegrate,
	"campaign":  runCampaign,
	"fabric":    runFabric,
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run runs one workload and prints its result; it returns the process
// exit code. A workload that cannot set up prints no result.
func run(o options, stdout, stderr io.Writer) int {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	b := &bench{opts: o, out: out, values: map[string]float64{}}
	writeHeader(out, o)
	if err := workloads[o.workload](b); err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	b.show("error_rate", float64(b.failed)/float64(max(b.attempted, 1)), "ratio",
		fmt.Sprintf("failed/attempted = %d/%d operations", b.failed, b.attempted))
	if err := writeResult(out, b, defs); err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// parseArgs reads --workload, --seed, --seconds and --trace into the
// workload's default options.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload string
		seed     uint64
		seconds  float64
		trace    int
	)
	fl.StringVar(&workload, "workload", "", "integrate, campaign or fabric")
	fl.Uint64Var(&seed, "seed", 1, "workload seed")
	fl.Float64Var(&seconds, "seconds", 30, "measurement time per run")
	fl.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return options{}, err
	}
	if fl.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	if _, ok := workloads[workload]; !ok {
		return options{}, fmt.Errorf("unknown --workload %q (want integrate, campaign or fabric)", workload)
	}
	if trace != 0 && trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return options{}, errors.New("--seconds must be positive")
	}
	o := defaultOptions(workload)
	o.seed, o.seconds, o.trace = seed, seconds, trace == 1
	return o, nil
}

// writeHeader prints the host and input metadata every comparison needs.
func writeHeader(w io.Writer, o options) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host: go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commitID())
	fmt.Fprintf(w, "sizes: processes=%d small-processes=%d trials=%d setups=%d sets=%d workers=%d\n",
		o.processes, o.small, o.trials, o.setups, o.sets, o.workers)
}

// writeResult prints the final JSON line with exactly the metrics in defs.
func writeResult(w io.Writer, b *bench, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := b.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the checkout is
// a repository, otherwise a digest of the module's Go sources and go.mod
// files, so two runs of one tree always print the same id.
func commitID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) back to
// its current resident size, so the next peakRSSMB reads the peak of what
// runs in between.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// measurePeak runs one main-arm operation between a reset and a read of
// the process's peak resident set, and keeps the peak for peak_rss_mb.
func (b *bench) measurePeak(op func()) error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	op()
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.peaks = append(b.peaks, mb)
	return nil
}

// measureSetup runs fn o.setups times and records the median as setup_s;
// the last set-up's state is the one the run uses.
func (b *bench) measureSetup(fn func() error) error {
	var xs []float64
	for i := 0; i < b.opts.setups; i++ {
		settle()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	if !b.opts.trace {
		b.showSeries("setup_s", "s", xs, byMedian)
		b.set("setup_s", median(xs))
	}
	return nil
}

// finishEndToEnd records the two arms and the peak resident set of an
// untraced run. peak_rss_mb is the median over the main arm's operations
// of each one's peak: a single whole-run peak is the largest of many
// garbage-collector timings and moves by a quarter between runs.
func (b *bench) finishEndToEnd(main, alt []float64, s summary) error {
	if len(b.peaks) == 0 {
		return errors.New("no peak resident set measured")
	}
	rss := median(b.peaks)
	b.showSeries("op_s", "s", main, s)
	b.showSeries("alt_op_s", "s", alt, s)
	b.show("peak_rss_mb", rss, "MB", fmt.Sprintf("median of per-operation VmHWM (main arm), max %.6g, n=%d",
		quantile(b.peaks, 1), len(b.peaks)))
	b.set("op_s", s.of(main))
	b.set("alt_op_s", s.of(alt))
	b.set("peak_rss_mb", rss)
	return nil
}

// settle collects the heap before a timed operation, so the garbage one
// operation leaves behind is not collected on the next one's clock and
// every operation starts from the same heap state.
func settle() { runtime.GC() }

// deadline is when a run's measurement loop stops starting operations.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}
