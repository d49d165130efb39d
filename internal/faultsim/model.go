package faultsim

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// ErrBadProbability marks a campaign whose injected probabilities — edge
// weights, occurrence weights, the comm-fault fraction, or a fault-model
// parameter — fall outside [0,1] or are not finite. The paper's Eq. (1)
// factors are probabilities; a campaign silently fed a NaN weight would
// bias every estimator, so Run rejects them up front with a
// stage-taxonomy error instead.
var ErrBadProbability = errors.New("faultsim: probability out of range")

// ErrBadModel marks an invalid fault-model parameterisation (burst size
// below 1, non-probability persistence, …).
var ErrBadModel = errors.New("faultsim: invalid fault model")

// FaultModel selects how the initial fault set of each trial is drawn —
// the paper's single-fault assumption ("faults occur in single FCMs, or
// in communication between a pair of FCMs", §2) generalised to the
// correlated and common-mode failure classes layered architectures face.
//
// The interface is sealed: implementations live in this package and are
// obtained from the constructors SingleFault, Correlated, Burst and
// Transient. Sealing is what keeps the determinism contract enforceable —
// every model draws from the trial's private PCG substream in a fixed
// order, so campaign results stay bit-identical across worker counts and
// checkpoint/resume for every model.
type FaultModel interface {
	// Name identifies the model ("single", "correlated", "burst",
	// "transient"); it participates in the checkpoint fingerprint, so a
	// resume under a different model is rejected as a mismatch.
	Name() string

	// validate checks the model parameters at campaign start.
	validate() error

	// fingerprint appends the model identity (name + parameters) to the
	// campaign fingerprint.
	fingerprint(ws func(string), wf func(float64))

	// persist is the probability a fault is permanent rather than
	// transient (1 = every fault permanent; only Transient lowers it).
	persist() float64

	// inject draws the initial fault set for one trial into s, using only
	// s.rng and the immutable env.
	inject(env *campaignEnv, s *trialScratch)
}

// trialOrigin is one initially faulty FCM of a trial.
type trialOrigin struct {
	node int32
	// viaCross marks an origin that became faulty through a corrupted
	// cross-HW communication, so its criticality counts as escaped loss.
	viaCross bool
}

// injectSingle is the paper's original fault model: with probability
// env.commFrac the trial corrupts a communication edge (the receiving FCM
// becomes faulty); otherwise one FCM drawn from the occurrence-weight
// sampler faults. Shared by SingleFault and Transient so both make the
// exact same rng draws as the pre-interface injector.
func injectSingle(env *campaignEnv, s *trialScratch) {
	if env.commFrac > 0 && len(env.eTo) > 0 && s.rng.Float64() < env.commFrac {
		e := s.rng.IntN(len(env.eTo))
		from, to := env.eFrom[e], env.eTo[e]
		crossed := env.hasHW && env.hw[from] != env.hw[to]
		s.commFault, s.commCrossed = true, crossed
		s.origins = append(s.origins, trialOrigin{node: to, viaCross: crossed})
		return
	}
	s.origins = append(s.origins, trialOrigin{node: env.pick(s.rng)})
}

// singleModel is the default: one initial fault per trial.
type singleModel struct{}

// SingleFault returns the paper's single-fault model (the default when
// Campaign.Model is nil): each trial injects one fault, into an FCM or —
// with probability CommFaultFraction — into a communication edge.
func SingleFault() FaultModel { return singleModel{} }

func (singleModel) Name() string                                 { return "single" }
func (singleModel) validate() error                              { return nil }
func (singleModel) fingerprint(ws func(string), _ func(float64)) { ws("single") }
func (singleModel) persist() float64                             { return 1 }
func (singleModel) inject(env *campaignEnv, s *trialScratch)     { injectSingle(env, s) }

// correlatedModel faults every FCM colocated with the drawn one.
type correlatedModel struct{}

// Correlated returns the common-mode fault model: the trial draws one FCM
// from the occurrence-weight sampler and then faults *every* FCM hosted
// on the same HW node simultaneously — the correlated failure class a
// shared power supply, clock or hypervisor induces, which the single-fault
// containment argument of Eq. (1)–(4) does not cover. With no HW mapping
// the model degenerates to SingleFault (there is no colocation to share).
func Correlated() FaultModel { return correlatedModel{} }

func (correlatedModel) Name() string                                 { return "correlated" }
func (correlatedModel) validate() error                              { return nil }
func (correlatedModel) fingerprint(ws func(string), _ func(float64)) { ws("correlated") }
func (correlatedModel) persist() float64                             { return 1 }
func (correlatedModel) inject(env *campaignEnv, s *trialScratch) {
	seed := env.pick(s.rng)
	if !env.hasHW {
		s.origins = append(s.origins, trialOrigin{node: seed})
		return
	}
	host := env.hw[seed]
	// Node ids follow the sorted node list, so the colocated set
	// enumerates in a fixed order — the same order at every worker count
	// and resume point.
	for n, h := range env.hw {
		if h == host {
			s.origins = append(s.origins, trialOrigin{node: int32(n)})
		}
	}
}

// burstModel injects K distinct initial faults per trial.
type burstModel struct{ k int }

// Burst returns the k-simultaneous-fault model: each trial draws k
// distinct FCMs (weighted sampling without replacement over the
// occurrence weights; once the remaining weight mass is exhausted the
// residue is drawn uniformly) and faults them all at once. Burst(1) is
// equivalent to SingleFault with CommFaultFraction 0. k is clamped to the
// node count at injection time.
func Burst(k int) FaultModel { return burstModel{k: k} }

func (m burstModel) Name() string { return "burst" }
func (m burstModel) validate() error {
	if m.k < 1 {
		return fmt.Errorf("%w: burst size %d (must be >= 1)", ErrBadModel, m.k)
	}
	return nil
}
func (m burstModel) fingerprint(ws func(string), _ func(float64)) {
	ws("burst")
	ws(strconv.Itoa(m.k))
}
func (m burstModel) persist() float64 { return 1 }
func (m burstModel) inject(env *campaignEnv, s *trialScratch) {
	k := m.k
	if k > len(env.nodes) {
		k = len(env.nodes)
	}
	// Weighted sampling without replacement: copy the sampler weights,
	// zero each drawn node. When the remaining mass hits zero (forced
	// seed nodes, zero-weight tails) the rest draws uniformly over the
	// not-yet-faulty nodes, so a burst always reaches its size.
	weights := s.weights
	copy(weights, env.weights)
	total := env.weightTotal
	taken := s.taken
	clear(taken)
	for drawn := 0; drawn < k; drawn++ {
		idx := -1
		if total > 0 {
			x := s.rng.Float64() * total
			for i, w := range weights {
				x -= w
				if x < 0 {
					idx = i
					break
				}
			}
			if idx < 0 { // float round-off at the tail
				for i := len(weights) - 1; i >= 0; i-- {
					if weights[i] > 0 {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			// Uniform over the remaining nodes, in sorted-node order.
			nth := s.rng.IntN(len(env.nodes) - drawn)
			for i := range env.nodes {
				if taken[i] {
					continue
				}
				if nth == 0 {
					idx = i
					break
				}
				nth--
			}
		}
		taken[idx] = true
		total -= weights[idx]
		if total < 0 {
			total = 0
		}
		weights[idx] = 0
		s.origins = append(s.origins, trialOrigin{node: int32(idx)})
	}
}

// transientModel is single-fault injection with per-fault recovery.
type transientModel struct{ persistProb float64 }

// Transient returns the transient-vs-permanent fault model: injection is
// the single-fault model's, but every fault — injected or propagated — is
// permanent only with probability persist. A transient fault still
// affects its FCM (it counts toward AffectedCount, criticality loss and
// escape accounting) but recovers before transmitting onward, so it never
// joins the propagation frontier; Result.TransientFaults counts the
// recoveries. Transient(1) is bit-identical to SingleFault.
func Transient(persist float64) FaultModel { return transientModel{persistProb: persist} }

func (m transientModel) Name() string { return "transient" }
func (m transientModel) validate() error {
	if m.persistProb < 0 || m.persistProb > 1 || math.IsNaN(m.persistProb) {
		return fmt.Errorf("%w: transient persistence %g", ErrBadModel, m.persistProb)
	}
	return nil
}
func (m transientModel) fingerprint(ws func(string), wf func(float64)) {
	ws("transient")
	wf(m.persistProb)
}
func (m transientModel) persist() float64                         { return m.persistProb }
func (m transientModel) inject(env *campaignEnv, s *trialScratch) { injectSingle(env, s) }

// ModelByName returns the fault model a CLI selector names: "single",
// "correlated", "burst" (size from burst, minimum 2 when unset) or
// "transient" (persistence from persist). Unknown names are an error
// listing the catalogue.
func ModelByName(name string, burst int, persist float64) (FaultModel, error) {
	switch name {
	case "", "single":
		return SingleFault(), nil
	case "correlated":
		return Correlated(), nil
	case "burst":
		if burst < 1 {
			burst = 2
		}
		return Burst(burst), nil
	case "transient":
		return Transient(persist), nil
	default:
		return nil, fmt.Errorf("%w: unknown model %q (have single, correlated, burst, transient)",
			ErrBadModel, name)
	}
}
