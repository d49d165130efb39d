package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestJobValidate(t *testing.T) {
	tests := []struct {
		name    string
		job     Job
		wantErr bool
	}{
		{"ok", Job{Name: "a", EST: 0, TCD: 10, CT: 5}, false},
		{"zero ct", Job{Name: "a", EST: 0, TCD: 10, CT: 0}, false},
		{"negative ct", Job{Name: "a", EST: 0, TCD: 10, CT: -1}, true},
		{"deadline before release", Job{Name: "a", EST: 5, TCD: 3, CT: 1}, true},
		{"ct exceeds window", Job{Name: "a", EST: 0, TCD: 3, CT: 4}, true},
		{"nan est", Job{Name: "a", EST: math.NaN(), TCD: 10, CT: 5}, true},
		{"nan tcd", Job{Name: "a", EST: 0, TCD: math.NaN(), CT: 5}, true},
		{"nan ct", Job{Name: "a", EST: 0, TCD: 10, CT: math.NaN()}, true},
		{"inf tcd", Job{Name: "a", EST: 0, TCD: math.Inf(1), CT: 5}, true},
		{"inf actual is fine", Job{Name: "a", EST: 0, TCD: 10, CT: 5, Actual: math.Inf(1)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.job.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadJob) {
				t.Errorf("error not wrapping ErrBadJob: %v", err)
			}
		})
	}
}

func TestJobString(t *testing.T) {
	j := Job{Name: "p1", EST: 0, TCD: 20, CT: 5}
	if got := j.String(); got != "p1<0,20,5>" {
		t.Errorf("String = %q", got)
	}
}

func TestPaperInfeasibilityExample(t *testing.T) {
	// §6: "two nodes with timing constraints ⟨0,5,3⟩ and ⟨3,6,4⟩ …
	// cannot be scheduled on the same processor".
	jobs := []Job{
		{Name: "a", EST: 0, TCD: 5, CT: 3},
		{Name: "b", EST: 3, TCD: 6, CT: 4},
	}
	// Job b alone is already infeasible (CT 4 > window 3) — exactly why the
	// paper's pair can never be combined.
	ok, _, err := Feasible(jobs)
	if err == nil && ok {
		t.Error("paper's infeasible pair reported feasible")
	}
}

func TestFeasiblePairsFromTable1(t *testing.T) {
	// Reconstructed Table 1 jobs.
	p := map[string]Job{
		"p1": {Name: "p1", EST: 0, TCD: 20, CT: 5},
		"p2": {Name: "p2", EST: 8, TCD: 16, CT: 5},
		"p3": {Name: "p3", EST: 0, TCD: 15, CT: 4},
		"p4": {Name: "p4", EST: 5, TCD: 15, CT: 4},
		"p5": {Name: "p5", EST: 0, TCD: 10, CT: 3},
		"p6": {Name: "p6", EST: 10, TCD: 18, CT: 4},
		"p7": {Name: "p7", EST: 10, TCD: 16, CT: 3},
		"p8": {Name: "p8", EST: 12, TCD: 20, CT: 3},
	}
	feasibleSets := [][]string{
		{"p1", "p2"},
		{"p3", "p4"},
		{"p3", "p4", "p5"},
		{"p6", "p7", "p8"},
		{"p4", "p7"},
		{"p2", "p4"},
		{"p2", "p7"},
		// Fig. 7 pairs.
		{"p1", "p8"}, {"p1", "p7"}, {"p1", "p5"},
		{"p2", "p6"}, {"p2", "p3"},
		// Fig. 8 groups.
		{"p1", "p2", "p3"},
		{"p1", "p4", "p5"},
	}
	for _, set := range feasibleSets {
		jobs := make([]Job, 0, len(set))
		for _, name := range set {
			jobs = append(jobs, p[name])
		}
		ok, witness, err := Feasible(jobs)
		if err != nil {
			t.Fatalf("%v: %v", set, err)
		}
		if !ok {
			t.Errorf("set %v should be feasible; witness %s", set, witness)
		}
	}

	// The narrative constraint: "if p4 and p7 are scheduled on the same
	// processor, then p2 cannot be scheduled on that processor".
	jobs := []Job{p["p2"], p["p4"], p["p7"]}
	ok, witness, err := Feasible(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("{p2,p4,p7} should be infeasible")
	}
	if !strings.Contains(witness, "[5,16)") {
		t.Errorf("witness should identify window [5,16): %s", witness)
	}
}

func TestFeasibleTrivialCases(t *testing.T) {
	ok, _, err := Feasible(nil)
	if err != nil || !ok {
		t.Errorf("empty set: ok=%v err=%v", ok, err)
	}
	ok, _, err = Feasible([]Job{{Name: "a", EST: 0, TCD: 5, CT: 5}})
	if err != nil || !ok {
		t.Errorf("single exact-fit job: ok=%v err=%v", ok, err)
	}
}

func TestFeasibleRejectsInvalidJob(t *testing.T) {
	_, _, err := Feasible([]Job{{Name: "bad", EST: 0, TCD: 5, CT: 9}})
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("err = %v, want ErrBadJob", err)
	}
	if FeasibleSet([]Job{{Name: "bad", EST: 0, TCD: 5, CT: 9}}) {
		t.Error("FeasibleSet accepted an invalid job")
	}
}

func TestFeasibleSubsetMonotone(t *testing.T) {
	// Property: removing a job never makes a feasible set infeasible.
	gen := func(seed uint32, n int) []Job {
		s := seed + 1
		next := func(mod uint32) float64 {
			s = s*1664525 + 1013904223
			return float64(s % mod)
		}
		jobs := make([]Job, 0, n)
		for i := 0; i < n; i++ {
			est := next(20)
			window := 2 + next(15)
			ct := 1 + next(uint32(window))
			jobs = append(jobs, Job{
				Name: string(rune('a' + i)),
				EST:  est, TCD: est + window, CT: math.Min(ct, window),
			})
		}
		return jobs
	}
	f := func(seed uint32) bool {
		jobs := gen(seed, 5)
		if !FeasibleSet(jobs) {
			return true // antecedent false
		}
		for drop := range jobs {
			sub := make([]Job, 0, len(jobs)-1)
			sub = append(sub, jobs[:drop]...)
			sub = append(sub, jobs[drop+1:]...)
			if !FeasibleSet(sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFeasibleAgreesWithSimulation(t *testing.T) {
	// Property: if the demand criterion says feasible, preemptive EDF
	// simulation meets every deadline (EDF is optimal for this job model),
	// and vice versa.
	gen := func(seed uint32) []Job {
		s := seed + 7
		next := func(mod uint32) float64 {
			s = s*1664525 + 1013904223
			return float64(s % mod)
		}
		n := 2 + int(next(4))
		jobs := make([]Job, 0, n)
		for i := 0; i < n; i++ {
			est := next(12)
			window := 2 + next(10)
			ct := 1 + next(uint32(window))
			jobs = append(jobs, Job{
				Name: string(rune('a' + i)),
				EST:  est, TCD: est + window, CT: math.Min(ct, window),
			})
		}
		return jobs
	}
	f := func(seed uint32) bool {
		jobs := gen(seed)
		ok, _, err := Feasible(jobs)
		if err != nil {
			return false
		}
		sched, err := Simulate(jobs, PreemptiveEDF)
		if err != nil {
			return false
		}
		return ok == sched.AllMet()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUtilization(t *testing.T) {
	jobs := []Job{
		{Name: "a", EST: 0, TCD: 10, CT: 4},
		{Name: "b", EST: 5, TCD: 20, CT: 6},
	}
	if got := Utilization(jobs); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Utilization = %g, want 0.5", got)
	}
	if Utilization(nil) != 0 {
		t.Error("empty utilization should be 0")
	}
}

func TestSimulatePreemptive(t *testing.T) {
	jobs := []Job{
		{Name: "long", EST: 0, TCD: 20, CT: 8},
		{Name: "urgent", EST: 2, TCD: 6, CT: 3},
	}
	s, err := Simulate(jobs, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllMet() {
		t.Errorf("misses: %v", s.Misses())
	}
	// urgent must preempt long: it finishes at 5, long at 11.
	var urgent, long Outcome
	for _, o := range s.Outcomes {
		switch o.Job.Name {
		case "urgent":
			urgent = o
		case "long":
			long = o
		}
	}
	if urgent.Finish != 5 {
		t.Errorf("urgent finish = %g, want 5", urgent.Finish)
	}
	if long.Finish != 11 {
		t.Errorf("long finish = %g, want 11", long.Finish)
	}
}

func TestSimulateNonPreemptiveBlocksUrgent(t *testing.T) {
	jobs := []Job{
		{Name: "long", EST: 0, TCD: 20, CT: 8},
		{Name: "urgent", EST: 2, TCD: 6, CT: 3},
	}
	s, err := Simulate(jobs, NonPreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.Misses()
	if len(misses) != 1 || misses[0] != "urgent" {
		t.Errorf("misses = %v, want [urgent]", misses)
	}
}

func TestSimulateInfiniteLoopFault(t *testing.T) {
	// §3.4.3: a task in an infinite loop under non-preemptive scheduling
	// causes all other tasks to fail; preemptive scheduling (with budget
	// enforcement) contains it.
	jobs := []Job{
		{Name: "stuck", EST: 0, TCD: 10, CT: 3, Actual: math.Inf(1)},
		{Name: "v1", EST: 1, TCD: 8, CT: 2},
		{Name: "v2", EST: 2, TCD: 12, CT: 3},
	}
	np, err := Simulate(jobs, NonPreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(np.Misses()); got != 3 {
		t.Errorf("non-preemptive misses = %v, want all 3", np.Misses())
	}
	p, err := Simulate(jobs, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	missed := map[string]bool{}
	for _, m := range p.Misses() {
		missed[m] = true
	}
	if missed["v1"] || missed["v2"] {
		t.Errorf("preemptive victims missed: %v", p.Misses())
	}
	if !missed["stuck"] {
		t.Error("the faulty task itself should miss its deadline")
	}
}

func TestSimulateRejectsInvalid(t *testing.T) {
	_, err := Simulate([]Job{{Name: "x", EST: 5, TCD: 1, CT: 1}}, PreemptiveEDF)
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("err = %v, want ErrBadJob", err)
	}
}

func TestSimulateEmpty(t *testing.T) {
	s, err := Simulate(nil, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllMet() || s.Makespan != 0 {
		t.Errorf("empty schedule: %+v", s)
	}
}

func TestSimulateIdleGap(t *testing.T) {
	jobs := []Job{
		{Name: "a", EST: 0, TCD: 3, CT: 1},
		{Name: "b", EST: 10, TCD: 14, CT: 2},
	}
	s, err := Simulate(jobs, NonPreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllMet() {
		t.Errorf("misses: %v", s.Misses())
	}
	if s.Makespan != 12 {
		t.Errorf("makespan = %g, want 12", s.Makespan)
	}
}

func TestPolicyString(t *testing.T) {
	if PreemptiveEDF.String() != "preemptive-EDF" ||
		NonPreemptiveEDF.String() != "non-preemptive-EDF" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string wrong")
	}
}

func TestSimulateDeterministicTieBreak(t *testing.T) {
	// Equal deadlines: name order breaks the tie, so repeated runs agree.
	jobs := []Job{
		{Name: "b", EST: 0, TCD: 10, CT: 2},
		{Name: "a", EST: 0, TCD: 10, CT: 2},
	}
	s1, err := Simulate(jobs, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Simulate([]Job{jobs[1], jobs[0]}, PreemptiveEDF)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.Outcomes {
		if s1.Outcomes[i].Finish != s2.Outcomes[i].Finish {
			t.Errorf("non-deterministic schedule: %+v vs %+v",
				s1.Outcomes[i], s2.Outcomes[i])
		}
	}
}

// feasibleReference is the body of Feasible before the allocation-free
// sweep, kept verbatim as the oracle of TestFeasibleMatchesReference: it
// rebuilds the name list of every window and formats a witness on every
// slack improvement.
func feasibleReference(jobs []Job) (bool, string, error) {
	start, observed := observedNow()
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			record(start, false, observed)
			return false, "", err
		}
	}
	if len(jobs) <= 1 {
		record(start, true, observed)
		return true, "", nil
	}
	starts := make([]float64, 0, len(jobs))
	ends := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		starts = append(starts, j.EST)
		ends = append(ends, j.TCD)
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	worstSlack := math.Inf(1)
	witness := ""
	for _, s := range starts {
		for _, d := range ends {
			if d <= s {
				continue
			}
			demand := 0.0
			var inside []string
			for _, j := range jobs {
				if j.EST >= s && j.TCD <= d {
					demand += j.CT
					inside = append(inside, j.Name)
				}
			}
			slack := (d - s) - demand
			if slack < worstSlack {
				worstSlack = slack
				witness = fmt.Sprintf("window [%g,%g): demand %g of %g {%s}",
					s, d, demand, d-s, strings.Join(inside, ","))
			}
		}
	}
	record(start, worstSlack >= 0, observed)
	return worstSlack >= 0, witness, nil
}

// randomJobs draws a job set of k jobs for the oracle equivalence test.
// ESTs and window lengths come from a grid, so values repeat; CTs are
// multiples of 0.1, which binary floating point cannot represent exactly,
// so any change in summation order would show as a one-ulp difference in
// the witness. Dense sets (narrow grid, high load) are mostly infeasible,
// sparse ones mostly feasible. With invalid set, one job is made invalid.
func randomJobs(rng *rand.Rand, k int, dense, invalid bool) []Job {
	grid, unit, load := 12, 1.0, 0.9
	if !dense {
		grid, unit, load = 40*k+1, 2.5, 0.3
	}
	jobs := make([]Job, k)
	for i := range jobs {
		est := float64(rng.Intn(grid)) * unit
		window := float64(1+rng.Intn(8)) * unit
		tenths := int(window * load * 10)
		ct := float64(rng.Intn(tenths+1)) * 0.1
		for ct > window {
			ct -= 0.1
		}
		jobs[i] = Job{Name: fmt.Sprintf("j%d", rng.Intn(2*k+1)), EST: est, TCD: est + window, CT: ct}
	}
	if invalid && k > 0 {
		bad := &jobs[rng.Intn(k)]
		switch rng.Intn(3) {
		case 0:
			bad.CT = bad.TCD - bad.EST + 0.1
		case 1:
			bad.TCD = bad.EST - 1
		default:
			bad.EST = math.NaN()
		}
	}
	return jobs
}

// TestFeasibleMatchesReference pins Feasible to the reference sweep on
// 2,600 seeded job sets of 0 to 64 jobs: verdict, witness and error text
// must be identical.
func TestFeasibleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260417))
	var feasible, infeasible, invalid int
	for c := 0; c < 2600; c++ {
		k := c % 65
		jobs := randomJobs(rng, k, c%3 == 0, c%40 == 7)
		okGot, witGot, errGot := Feasible(jobs)
		okWant, witWant, errWant := feasibleReference(jobs)
		if okGot != okWant || witGot != witWant || (errGot == nil) != (errWant == nil) ||
			(errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("case %d (k=%d): Feasible = (%v, %q, %v), reference (%v, %q, %v)\njobs %v",
				c, k, okGot, witGot, errGot, okWant, witWant, errWant, jobs)
		}
		switch {
		case errWant != nil:
			invalid++
		case okWant && k > 1:
			feasible++
		case !okWant:
			infeasible++
		}
	}
	t.Logf("%d feasible, %d infeasible, %d invalid", feasible, infeasible, invalid)
	// The generator must exercise every outcome, or the test proves little.
	if feasible < 300 || infeasible < 300 || invalid < 30 {
		t.Errorf("generator coverage: %d feasible, %d infeasible, %d invalid sets", feasible, infeasible, invalid)
	}
}

// TestSimulateRejectsNonFinite is the regression test for a NaN EST, which
// used to poison the event clock so that Simulate never returned. Each
// call runs under a timeout so a regression fails instead of hanging.
func TestSimulateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []Job{
		{Name: "nan-est", EST: nan, TCD: 10, CT: 1},
		{Name: "nan-tcd", EST: 0, TCD: nan, CT: 1},
		{Name: "nan-ct", EST: 0, TCD: 10, CT: nan},
		{Name: "inf-tcd", EST: 0, TCD: inf, CT: 1},
		{Name: "inf-est", EST: -inf, TCD: 10, CT: 1},
	} {
		jobs := []Job{{Name: "ok", EST: 0, TCD: 5, CT: 2}, bad}
		done := make(chan error, 1)
		go func() {
			_, err := Simulate(jobs, PreemptiveEDF)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadJob) {
				t.Errorf("%s: err = %v, want ErrBadJob", bad.Name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Simulate did not return", bad.Name)
		}
	}
	// An unbounded Actual and a CT beyond the window stay legal.
	s, err := Simulate([]Job{
		{Name: "stuck", EST: 0, TCD: 10, CT: 3, Actual: inf},
		{Name: "over", EST: 0, TCD: 2, CT: 4},
	}, PreemptiveEDF)
	if err != nil {
		t.Fatalf("legal jobs rejected: %v", err)
	}
	if s.AllMet() {
		t.Error("overrunning jobs reported as meeting their deadlines")
	}
}

// staggeredJobs returns k jobs ⟨i, i+20, 1⟩: overlapping windows, so every
// sweep window holds many jobs, and feasible, so the sweep runs to the end.
func staggeredJobs(k int) []Job {
	jobs := make([]Job, k)
	for i := range jobs {
		jobs[i] = Job{Name: fmt.Sprintf("p%d", i), EST: float64(i), TCD: float64(i + 20), CT: 1}
	}
	return jobs
}

// TestFeasibleAllocsBounded pins the allocation-free sweep: a 64-job set
// (about 2,000 windows) allocates no more than an 8-job set, because only
// the final witness allocates.
func TestFeasibleAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	allocs := func(k int) float64 {
		jobs := staggeredJobs(k)
		if !FeasibleSet(jobs) {
			t.Fatalf("k=%d: staggered set should be feasible", k)
		}
		return testing.AllocsPerRun(50, func() { _, _, _ = Feasible(jobs) })
	}
	small, large := allocs(8), allocs(64)
	if large > small {
		t.Errorf("Feasible allocates %v times for 64 jobs, %v for 8: the sweep allocates per window", large, small)
	}
}

// BenchmarkFeasible measures one oracle call on feasible staggered sets,
// the case that sweeps every window.
func BenchmarkFeasible(b *testing.B) {
	for _, k := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			jobs := staggeredJobs(k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, _, _ := Feasible(jobs); !ok {
					b.Fatal("staggered set reported infeasible")
				}
			}
		})
	}
}
