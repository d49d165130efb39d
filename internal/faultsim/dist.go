package faultsim

import (
	"context"
	"fmt"

	"repro/internal/stage"
)

// This file is the distributed execution surface of the campaign engine:
// the pieces a remote coordinator/worker fabric needs to shard a campaign
// across processes or machines while staying bit-identical to Run.
//
// The contract rests on two properties Run already has. First, every trial
// draws from its own PCG substream derived from (Seed, trial index), so a
// chunk's outcome is a pure function of the campaign configuration and the
// chunk bounds — it does not matter which process computes it. Second,
// chunks live on an absolute grid and merge strictly in grid order, so the
// accumulated Result (including every float addition, telemetry
// checkpoint, persistence point and early-stopping decision) is the same
// no matter how chunk computation was scheduled. A ChunkRunner computes
// chunks anywhere; a Merger folds their outputs in grid order; together
// they reproduce Run exactly.

// ChunkSize is the grain of the absolute trial grid: chunk i covers trials
// [i*ChunkSize, min((i+1)*ChunkSize, Trials)).
const ChunkSize = trialChunkSize

// NumChunks returns how many grid chunks a campaign of the given trial
// count has.
func NumChunks(trials int) int {
	return (trials + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the trial bounds [begin, end) of grid chunk i.
func ChunkBounds(i, trials int) (begin, end int) {
	begin = i * ChunkSize
	return begin, chunkEnd(begin, trials)
}

// ChunkIndex returns the grid chunk that begins at trial begin.
func ChunkIndex(begin int) int { return begin / ChunkSize }

// Fingerprint hashes the campaign identity: everything that determines
// the deterministic trial sequence except the trial count and worker
// topology. Two processes that built their campaigns from the same
// specification fingerprint equally; the fabric's handshake compares
// these before any trials move, mirroring the checkpoint fingerprints.
func (c Campaign) Fingerprint() string { return c.fingerprint() }

// ChunkOutput is the serialisable outcome of one grid chunk, suitable for
// a JSON wire. The per-trial float slices preserve addition order across
// the wire: encoding/json round-trips float64 exactly (shortest-form
// rendering), so a merged Result built from remote chunks is bit-identical
// to a local run.
type ChunkOutput struct {
	Begin              int            `json:"begin"`
	End                int            `json:"end"`
	TotalAffected      int            `json:"total_affected"`
	CrossTransmissions int            `json:"cross_transmissions"`
	TrialsWithEscape   int            `json:"trials_with_escape"`
	CommFaultTrials    int            `json:"comm_fault_trials"`
	CriticalAffected   int            `json:"critical_affected"`
	InitialFaults      int            `json:"initial_faults"`
	TransientFaults    int            `json:"transient_faults"`
	CritPerTrial       []float64      `json:"crit_per_trial"`
	EscPerTrial        []float64      `json:"esc_per_trial"`
	AffectedCount      map[string]int `json:"affected_count,omitempty"`
	TransmissionCount  map[string]int `json:"transmission_count,omitempty"`
	EdgeTrials         map[string]int `json:"edge_trials,omitempty"`
}

// ChunkRunner computes grid chunks of one campaign — the worker side of a
// distributed run. It validates the campaign once and precomputes the
// immutable trial environment; Run then executes any chunk on its own
// substreams. A ChunkRunner is safe for concurrent Run calls.
type ChunkRunner struct {
	env    *campaignEnv
	trials int
}

// NewChunkRunner validates c and builds the runner. Only the fields that
// determine the trial sequence matter; telemetry, checkpointing and
// worker-pool fields are ignored.
func NewChunkRunner(c Campaign) (*ChunkRunner, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &ChunkRunner{env: newCampaignEnv(&c), trials: c.Trials}, nil
}

// Trials returns the campaign's configured trial count.
func (r *ChunkRunner) Trials() int { return r.trials }

// Run executes trials [begin, end), which must be exactly one grid chunk.
// The context is polled at every trial boundary; a cancelled chunk is
// all-or-nothing.
func (r *ChunkRunner) Run(ctx context.Context, begin, end int) (*ChunkOutput, error) {
	if begin < 0 || begin%ChunkSize != 0 || end != chunkEnd(begin, r.trials) || begin >= r.trials {
		return nil, stage.Wrap("inject", "chunk", "", fmt.Errorf(
			"faultsim: chunk [%d,%d) is not on the %d-trial grid of %d trials",
			begin, end, ChunkSize, r.trials))
	}
	env := r.env
	ch := env.newChunk()
	if err := env.runChunk(ctx, env.newScratch(), begin, end, ch); err != nil {
		return nil, err
	}
	out := ch.ChunkOutput
	out.AffectedCount = namedCounts(ch.affected, env.nodes)
	out.TransmissionCount = namedCounts(ch.transmissions, env.edgeKey)
	out.EdgeTrials = namedCounts(ch.edgeTrials, env.edgeKey)
	return &out, nil
}

// Merger folds chunk outputs into a campaign Result, strictly in grid
// order — the coordinator side of a distributed run. It owns everything
// Run's merge goroutine owns: the partial Result, the completed-trial
// frontier, telemetry checkpoints, crash-safe persistence
// (Campaign.CheckpointPath, resumable across coordinator restarts via the
// v2 checkpoint format) and Wald early stopping. Callers feed it
// contiguous chunks; out-of-order buffering is the caller's job, exactly
// as in Run's worker pool.
type Merger struct {
	run *campaignRun
}

// NewMerger validates c, restores a checkpoint when c.Resume is set, and
// publishes the "campaign_start" event. workersHint is recorded in that
// event (a distributed fabric may pass 0 for "unknown/dynamic").
func NewMerger(c Campaign, workersHint int) (*Merger, error) {
	run, start, err := newCampaignRun(&c, workersHint)
	if err != nil {
		return nil, err
	}
	_ = start // run.done == start; exposed via Frontier
	return &Merger{run: run}, nil
}

// Frontier returns the completed-trial frontier: every trial below it has
// been merged. A fresh merger starts at 0; a resumed one at the
// checkpoint's frontier.
func (m *Merger) Frontier() int { return m.run.done }

// Trials returns the campaign's configured trial count.
func (m *Merger) Trials() int { return m.run.c.Trials }

// Done reports whether the campaign is complete: the frontier reached the
// trial count, or early stopping ended it.
func (m *Merger) Done() bool {
	return m.run.done >= m.run.c.Trials || m.run.res.EarlyStopped
}

// Absorb folds one chunk into the Result. The chunk must begin exactly at
// the frontier. stop reports that Wald early stopping ended the campaign
// at this chunk's end; the caller must discard any speculative chunks
// beyond it, as Run does.
func (m *Merger) Absorb(co *ChunkOutput) (stop bool, err error) {
	if co.Begin != m.run.done {
		return false, stage.Wrap("inject", "merge", "", fmt.Errorf(
			"faultsim: chunk [%d,%d) absorbed out of order, frontier %d",
			co.Begin, co.End, m.run.done))
	}
	return m.run.merge(&chunkResult{ChunkOutput: *co})
}

// Abort persists the frontier checkpoint (when configured) and returns
// the campaign's cancellation error wrapping cause — the graceful-drain
// exit of a coordinator.
func (m *Merger) Abort(cause error) error { return m.run.cancelled(cause) }

// Finish publishes the terminal telemetry and returns the merged Result.
// Call once, after Done reports true.
func (m *Merger) Finish() Result { return m.run.finish() }
