// Package sched provides the scheduling-feasibility oracles the integration
// framework relies on (ICDCS 1998 §6: "Several well-known scheduling
// algorithms can be used to check the feasibility of scheduling sets of
// these processes on the same processor").
//
// The worked example characterises each process by a timing triple
// ⟨EST, TCD, CT⟩ — earliest start time, task completion deadline, and
// computation time — for a single-shot job. Two FCMs may be combined onto
// one processor only if the union of their jobs is feasible there; the
// paper's example is that ⟨0,5,3⟩ and ⟨3,6,4⟩ cannot share a processor.
//
// Feasibility of single-shot jobs with release times and deadlines under
// preemptive scheduling is decided exactly by the processor-demand
// criterion: for every window [s, d) with s an EST and d a TCD, the total
// computation of jobs entirely inside the window must not exceed d − s.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Job is a single-shot job with a release time (EST), absolute deadline
// (TCD) and worst-case computation time (CT). CT is also the job's declared
// execution budget.
//
// Actual, when positive, is the job's true computation demand and may
// exceed CT — this models the paper's timing fault ("a task in an infinite
// loop", §3.4.3) with Actual = +Inf. A preemptive runtime enforces the CT
// budget and kills an overrunning job (the containment mechanism of
// ARINC-653-style partitioning in the AIMS system the paper cites); a
// non-preemptive runtime cannot regain control, so the overrun holds the
// processor. Actual = 0 means the job consumes exactly CT.
type Job struct {
	Name   string
	EST    float64
	TCD    float64
	CT     float64
	Actual float64
}

// Demand returns the job's true computation demand (Actual, or CT when
// Actual is unset).
func (j Job) Demand() float64 {
	if j.Actual > 0 {
		return j.Actual
	}
	return j.CT
}

// Window returns the length of the job's feasible window TCD − EST.
func (j Job) Window() float64 { return j.TCD - j.EST }

// Validate checks the job's internal consistency. EST, TCD and CT must be
// finite — the comparisons below are all false for NaN, so NaN is rejected
// explicitly. Actual is NOT constrained: +Inf there legitimately models a
// task stuck in an infinite loop (the paper's R4 discussion).
func (j Job) Validate() error {
	if err := j.checkFinite(); err != nil {
		return err
	}
	switch {
	case j.CT < 0:
		return fmt.Errorf("%w: %s has CT %g", ErrBadJob, j.Name, j.CT)
	case j.TCD < j.EST:
		return fmt.Errorf("%w: %s has TCD %g before EST %g", ErrBadJob, j.Name, j.TCD, j.EST)
	case j.CT > j.Window():
		return fmt.Errorf("%w: %s needs CT %g in window %g", ErrBadJob, j.Name, j.CT, j.Window())
	}
	return nil
}

// checkFinite rejects a NaN or infinite EST, TCD or CT.
func (j Job) checkFinite() error {
	for _, v := range []struct {
		name string
		val  float64
	}{{"EST", j.EST}, {"TCD", j.TCD}, {"CT", j.CT}} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("%w: %s has non-finite %s %g", ErrBadJob, j.Name, v.name, v.val)
		}
	}
	return nil
}

// String renders the job as "name⟨EST,TCD,CT⟩".
func (j Job) String() string {
	return fmt.Sprintf("%s<%g,%g,%g>", j.Name, j.EST, j.TCD, j.CT)
}

// ErrBadJob marks an internally inconsistent job.
var ErrBadJob = errors.New("sched: invalid job")

// Feasible reports whether the given single-shot jobs can all be scheduled
// on one processor (preemptive EDF feasibility, decided exactly by the
// processor-demand criterion). It also returns the tightest window — the
// first window of least slack in (EST, TCD) order — as a human-readable
// witness; callers normally read it only when the set is infeasible.
//
// Cost: for k jobs with u distinct ESTs and v distinct TCDs the sweep
// visits u·v windows and sums CT over the jobs released inside each, so
// O(u·v·k) time, O(k³) in the worst case. Demand is summed in input order,
// which keeps every verdict bit-stable against the direct definition. The
// sweep allocates nothing in steady state (its scratch is pooled); the
// witness is formatted once, after the sweep, for the tightest window
// only, so a call costs a constant handful of allocations whatever k is.
//
// When instrumentation is installed via Observe, every call books its
// verdict and latency; otherwise the overhead is two atomic loads.
func Feasible(jobs []Job) (bool, string, error) {
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
	sc := scratchPool.Get().(*scratch)
	starts, ends := sc.starts[:0], sc.ends[:0]
	for _, j := range jobs {
		starts = append(starts, j.EST)
		ends = append(ends, j.TCD)
	}
	sort.Float64s(starts)
	sort.Float64s(ends)
	// A repeated EST or TCD yields the same window again, and the strict <
	// below keeps a window's first occurrence, so duplicates are skipped.
	starts, ends = slices.Compact(starts), slices.Compact(ends)
	worstSlack := math.Inf(1)
	var worstS, worstD, worstDemand float64
	released := sc.released[:0]
	for _, s := range starts {
		released = released[:0]
		for i := range jobs {
			if jobs[i].EST >= s {
				released = append(released, i)
			}
		}
		for _, d := range ends {
			if d <= s {
				continue
			}
			demand := 0.0
			for _, i := range released {
				if jobs[i].TCD <= d {
					demand += jobs[i].CT
				}
			}
			slack := (d - s) - demand
			if slack < worstSlack {
				worstSlack, worstS, worstD, worstDemand = slack, s, d, demand
			}
		}
	}
	sc.starts, sc.ends, sc.released = starts, ends, released
	scratchPool.Put(sc)
	witness := ""
	if worstSlack < math.Inf(1) {
		witness = windowWitness(jobs, worstS, worstD, worstDemand)
	}
	record(start, worstSlack >= 0, observed)
	return worstSlack >= 0, witness, nil
}

// scratch is the working storage of one Feasible sweep.
type scratch struct {
	starts, ends []float64
	released     []int // indices of the jobs released at or after a start
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// windowWitness formats the window [s, d) and the names of the jobs inside
// it, in input order.
func windowWitness(jobs []Job, s, d, demand float64) string {
	size := 0
	for _, j := range jobs {
		if j.EST >= s && j.TCD <= d {
			size += len(j.Name) + 1
		}
	}
	// Sized up front: the names cost one allocation whatever their count.
	var names strings.Builder
	names.Grow(size)
	first := true
	for _, j := range jobs {
		if j.EST >= s && j.TCD <= d {
			if !first {
				names.WriteByte(',')
			}
			names.WriteString(j.Name)
			first = false
		}
	}
	return fmt.Sprintf("window [%g,%g): demand %g of %g {%s}", s, d, demand, d-s, names.String())
}

// FeasibleSet is a convenience wrapper returning only the boolean verdict;
// it reports false for invalid jobs.
func FeasibleSet(jobs []Job) bool {
	ok, _, err := Feasible(jobs)
	return err == nil && ok
}

// Utilization returns total CT over the union span of the jobs' windows —
// a coarse load indicator (not a feasibility test).
func Utilization(jobs []Job) float64 {
	if len(jobs) == 0 {
		return 0
	}
	minS, maxD := math.Inf(1), math.Inf(-1)
	total := 0.0
	for _, j := range jobs {
		minS = math.Min(minS, j.EST)
		maxD = math.Max(maxD, j.TCD)
		total += j.CT
	}
	if maxD <= minS {
		return 0
	}
	return total / (maxD - minS)
}

// Policy selects the uniprocessor scheduling policy for Simulate.
type Policy int

// Scheduling policies (§3.4.3: "If non-preemptive scheduling is used, then
// a timing fault (e.g., a task in an infinite loop) can cause all other
// tasks also to fail. However, the probability of transmission of the
// timing fault can be minimized by using preemptive scheduling").
const (
	// PreemptiveEDF runs the released job with the earliest deadline,
	// preempting on release.
	PreemptiveEDF Policy = iota + 1
	// NonPreemptiveEDF picks by earliest deadline but never preempts a
	// running job.
	NonPreemptiveEDF
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PreemptiveEDF:
		return "preemptive-EDF"
	case NonPreemptiveEDF:
		return "non-preemptive-EDF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Outcome describes one job's fate in a simulated schedule.
type Outcome struct {
	Job        Job
	Start      float64 // first time the job ran
	Finish     float64 // completion time (Inf if never completed)
	MissedLine bool    // finished after TCD (or never)
}

// Schedule is the result of simulating a job set under a policy.
type Schedule struct {
	Policy   Policy
	Outcomes []Outcome // sorted by job name
	Makespan float64
}

// Misses returns the names of jobs that missed their deadlines.
func (s Schedule) Misses() []string {
	var out []string
	for _, o := range s.Outcomes {
		if o.MissedLine {
			out = append(out, o.Job.Name)
		}
	}
	return out
}

// AllMet reports whether every job met its deadline.
func (s Schedule) AllMet() bool { return len(s.Misses()) == 0 }

// Horizon caps simulated time; jobs unfinished at the horizon are deadline
// misses with Finish = +Inf.
const defaultHorizon = 1e6

// Simulate runs the job set on one processor under the given policy using
// event-driven EDF simulation. A job whose Actual demand exceeds its CT
// budget models the paper's "task in an infinite loop" timing fault: under
// NonPreemptiveEDF it occupies the processor once started (until the
// horizon); under PreemptiveEDF the runtime kills it when its budget is
// exhausted, containing the fault. A job with a non-finite EST, TCD or CT,
// a negative CT or a TCD before its EST is rejected with ErrBadJob; unlike
// Validate, a CT beyond the window is accepted (the job simply misses).
func Simulate(jobs []Job, policy Policy) (Schedule, error) {
	for _, j := range jobs {
		// A NaN time would poison the event clock, and the loop below
		// would never finish.
		if err := j.checkFinite(); err != nil {
			return Schedule{}, err
		}
		if j.CT < 0 || j.TCD < j.EST {
			return Schedule{}, fmt.Errorf("%w: %s", ErrBadJob, j.Name)
		}
	}
	type state struct {
		job       Job
		remaining float64 // true demand left
		budget    float64 // declared budget left (preemptive enforcement)
		started   bool
		aborted   bool
		start     float64
		finish    float64
	}
	states := make([]*state, 0, len(jobs))
	for _, j := range jobs {
		st := &state{job: j, remaining: j.Demand(), budget: j.CT, finish: math.Inf(1)}
		if st.remaining == 0 {
			// A zero-work job completes the moment it is released.
			st.started = true
			st.start = j.EST
			st.finish = j.EST
		}
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].job.Name < states[j].job.Name })

	now := 0.0
	var running *state // for non-preemptive continuity
	for {
		// Released, unfinished jobs.
		var ready []*state
		var nextRelease = math.Inf(1)
		for _, st := range states {
			if st.remaining <= 0 || st.aborted {
				continue
			}
			// Budget and deadline enforcement: under preemptive scheduling
			// the runtime regains control at every timer tick, so a job
			// that has exhausted its declared CT budget, or whose deadline
			// has passed, is killed instead of occupying the processor.
			// This is what makes preemption a containment mechanism
			// (§3.4.3).
			if policy == PreemptiveEDF && (st.budget <= 1e-12 || now >= st.job.TCD) {
				st.aborted = true
				continue
			}
			if st.job.EST <= now {
				ready = append(ready, st)
			} else {
				nextRelease = math.Min(nextRelease, st.job.EST)
			}
		}
		if len(ready) == 0 {
			if math.IsInf(nextRelease, 1) {
				break // all done
			}
			now = nextRelease
			continue
		}
		var pick *state
		if policy == NonPreemptiveEDF && running != nil && running.remaining > 0 {
			pick = running
		} else {
			for _, st := range ready {
				if pick == nil || st.job.TCD < pick.job.TCD ||
					(st.job.TCD == pick.job.TCD && st.job.Name < pick.job.Name) {
					pick = st
				}
			}
		}
		if !pick.started {
			pick.started = true
			pick.start = now
		}
		running = pick
		// Run until the job finishes or (preemptive only) the next release.
		runFor := pick.remaining
		if policy == PreemptiveEDF {
			if !math.IsInf(nextRelease, 1) {
				runFor = math.Min(runFor, nextRelease-now)
			}
			// Never run past the job's budget or its deadline: the abort
			// check above fires on the next iteration.
			runFor = math.Min(runFor, pick.budget)
			runFor = math.Min(runFor, pick.job.TCD-now)
		}
		if now+runFor > defaultHorizon {
			// Horizon hit (e.g. an infinite-loop job under non-preemptive
			// scheduling). Everything unfinished misses.
			now = defaultHorizon
			break
		}
		now += runFor
		pick.remaining -= runFor
		pick.budget -= runFor
		if pick.remaining <= 1e-12 {
			pick.remaining = 0
			pick.finish = now
			running = nil
		}
	}

	out := Schedule{Policy: policy, Makespan: now}
	for _, st := range states {
		missed := math.IsInf(st.finish, 1) || st.finish > st.job.TCD+1e-12
		out.Outcomes = append(out.Outcomes, Outcome{
			Job:        st.job,
			Start:      st.start,
			Finish:     st.finish,
			MissedLine: missed,
		})
	}
	return out, nil
}
