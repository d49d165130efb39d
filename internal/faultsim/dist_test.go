package faultsim

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stage"
)

// runDistributed replays a campaign through the distributed surface: a
// ChunkRunner computes every grid chunk (optionally after a JSON
// round-trip, as the wire would) and a Merger absorbs them in order.
func runDistributed(t *testing.T, c Campaign, viaJSON bool) Result {
	t.Helper()
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		seq := ChunkIndex(m.Frontier())
		begin, end := ChunkBounds(seq, c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if viaJSON {
			raw, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			out = &ChunkOutput{}
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	return m.Finish()
}

func TestDistributedSurfaceMatchesRun(t *testing.T) {
	g, hw := web(t)
	c := Campaign{
		Graph: g, HWOf: hw, Trials: 1000, Seed: 42,
		CriticalThreshold: 10, CommFaultFraction: 0.3,
	}
	ref := c
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Both the in-memory path and the JSON round-trip must be
	// bit-identical to Run: encoding/json renders float64 in shortest
	// exact form, so per-trial slices survive the wire unchanged.
	if got := runDistributed(t, c, false); !reflect.DeepEqual(got, want) {
		t.Error("in-memory distributed result differs from Run")
	}
	if got := runDistributed(t, c, true); !reflect.DeepEqual(got, want) {
		t.Error("JSON round-tripped distributed result differs from Run")
	}
}

func TestDistributedEarlyStopMatchesRun(t *testing.T) {
	g, hw := web(t)
	c := Campaign{
		Graph: g, HWOf: hw, Trials: 8000, Seed: 42,
		CriticalThreshold: 10, CommFaultFraction: 0.3,
		StopHalfWidth: 0.05,
	}
	ref := c
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EarlyStopped {
		t.Fatal("reference run did not early-stop; widen the test")
	}
	got := runDistributed(t, c, true)
	if !reflect.DeepEqual(got, want) {
		t.Error("early-stopped distributed result differs from Run")
	}
	if got.Trials >= c.Trials {
		t.Errorf("early stop merged all %d trials", got.Trials)
	}
}

func TestDistributedResumeFromCheckpoint(t *testing.T) {
	g, hw := web(t)
	path := filepath.Join(t.TempDir(), "dist.ckpt")
	c := Campaign{
		Graph: g, HWOf: hw, Trials: 1000, Seed: 42,
		CriticalThreshold: 10, CommFaultFraction: 0.3,
		CheckpointPath: path, CheckpointEvery: 100,
	}
	ref := c
	ref.CheckpointPath = ""
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Merge half the chunks, abort (persisting the frontier), then build
	// a fresh Merger with Resume: it must pick up where the first left
	// off and finish bit-identically.
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := NumChunks(c.Trials) / 2
	for i := 0; i < half; i++ {
		begin, end := ChunkBounds(i, c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Abort(context.Canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Abort err = %v, want context.Canceled", err)
	}

	rc := c
	rc.Resume = true
	m2, err := NewMerger(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Frontier() == 0 {
		t.Fatal("resumed merger did not restore the frontier")
	}
	for !m2.Done() {
		begin, end := ChunkBounds(ChunkIndex(m2.Frontier()), c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	if got := m2.Finish(); !reflect.DeepEqual(got, want) {
		t.Error("resumed distributed result differs from uninterrupted Run")
	}
}

func TestChunkRunnerRejectsOffGridBounds(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{
		{1, 65},      // misaligned begin
		{0, 63},      // short end
		{0, 100},     // long end
		{960, 1001},  // end past trials
		{1024, 1088}, // begin past trials
		{-64, 0},     // negative
	} {
		if _, err := runner.Run(context.Background(), tc[0], tc[1]); err == nil {
			t.Errorf("chunk [%d,%d) accepted, want grid error", tc[0], tc[1])
		}
	}
	if _, err := runner.Run(context.Background(), 960, 1000); err != nil {
		t.Errorf("final partial chunk rejected: %v", err)
	}
}

func TestMergerRejectsOutOfOrderChunks(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runner.Run(context.Background(), 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Absorb(out); err == nil {
		t.Fatal("absorbed chunk [64,128) at frontier 0, want order error")
	}
	if m.Frontier() != 0 {
		t.Errorf("failed absorb moved the frontier to %d", m.Frontier())
	}
}

// TestMergerRejectsMisshapedChunks: a chunk whose slices do not have one
// entry per trial, node and live edge is an ErrChunkShape stage error, and
// a failed absorb leaves the Result untouched.
func TestMergerRejectsMisshapedChunks(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(co *ChunkOutput){
		"short crit_per_trial":  func(co *ChunkOutput) { co.CritPerTrial = co.CritPerTrial[:10] },
		"long esc_per_trial":    func(co *ChunkOutput) { co.EscPerTrial = append(co.EscPerTrial, 0) },
		"long affected":         func(co *ChunkOutput) { co.Affected = append(co.Affected, 1) },
		"missing affected":      func(co *ChunkOutput) { co.Affected = nil },
		"short transmissions":   func(co *ChunkOutput) { co.Transmissions = co.Transmissions[1:] },
		"long edge_trials":      func(co *ChunkOutput) { co.EdgeTrials = append(co.EdgeTrials, 1) },
		"end off the grid":      func(co *ChunkOutput) { co.End-- },
		"empty chunk at a gap":  func(co *ChunkOutput) { *co = ChunkOutput{Begin: 1} },
		"chunk past the trials": func(co *ChunkOutput) { co.Begin, co.End = 1024, 1088 },
	} {
		co, err := runner.Run(context.Background(), 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		mutate(co)
		_, err = m.Absorb(co)
		var se *stage.Error
		if !errors.Is(err, ErrChunkShape) || !errors.As(err, &se) || se.Stage != "inject" {
			t.Errorf("%s: Absorb err = %v, want an inject-stage ErrChunkShape", name, err)
		}
	}
	if m.Frontier() != 0 {
		t.Errorf("rejected chunks moved the frontier to %d", m.Frontier())
	}
	co, err := runner.Run(context.Background(), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckShape(co); err != nil {
		t.Errorf("a chunk fresh from the runner fails the shape check: %v", err)
	}
}

func TestFingerprintSeparatesCampaigns(t *testing.T) {
	g, hw := web(t)
	a := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical campaigns fingerprint differently")
	}
	b.Seed = 43
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different seeds share a fingerprint")
	}
	c := a
	c.CommFaultFraction = 0.5
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different comm-fault fractions share a fingerprint")
	}
}

func TestChunkRunnerHonoursContext(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runner.Run(ctx, 0, 64); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chunk err = %v, want context.Canceled", err)
	}
}
