package fabric

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/attrs"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// testGraph builds the small two-host web used across the suite.
func testGraph(t *testing.T) (*graph.Graph, map[string]string) {
	t.Helper()
	g := graph.New()
	crits := map[string]float64{"a": 12, "b": 3, "c": 7, "d": 1}
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: crits[n]})); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		from, to string
		w        float64
	}{
		{"a", "b", 0.6}, {"b", "c", 0.4}, {"c", "d", 0.5}, {"d", "a", 0.3}, {"a", "c", 0.2},
	} {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g, map[string]string{"a": "h1", "b": "h1", "c": "h2", "d": "h2"}
}

func testCampaign(t *testing.T, trials int) faultsim.Campaign {
	t.Helper()
	g, hw := testGraph(t)
	return faultsim.Campaign{
		Graph:             g,
		HWOf:              hw,
		Trials:            trials,
		Seed:              1998,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
	}
}

// localReference runs the campaign in-process with one worker — the
// ground truth every fabric topology must reproduce bit-for-bit.
func localReference(t *testing.T, c faultsim.Campaign) faultsim.Result {
	t.Helper()
	c.Workers = 1
	res, err := faultsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fabricHarness runs one coordinator and n workers over an in-process
// pipe, optionally under chaos, and returns the merged result and stats.
type fabricHarness struct {
	ln      Listener
	dial    Dialer
	cfg     Config
	workers int
	wcfg    func(i int) WorkerConfig // optional per-worker overrides
	wctx    func(i int) context.Context
}

func (h *fabricHarness) run(t *testing.T, c faultsim.Campaign) (faultsim.Result, Stats) {
	t.Helper()
	if h.ln == nil {
		pl := NewPipeListener()
		h.ln = pl
		h.dial = pl.Dial()
	}
	cfg := h.cfg
	cfg.Campaign = c
	cfg.Listener = h.ln
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.MinWorkers == 0 {
		// Hold every lease until all workers are in, so a fast first
		// worker cannot finish the campaign before the others arrive.
		cfg.MinWorkers = h.workers
	}

	type serveOut struct {
		res   faultsim.Result
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer scancel()
	go func() {
		res, stats, err := Serve(sctx, cfg)
		ch <- serveOut{res, stats, err}
	}()

	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	for i := 0; i < h.workers; i++ {
		wc := WorkerConfig{
			Campaign:         c,
			Dial:             h.dial,
			Name:             fmt.Sprintf("w%d", i),
			HeartbeatEvery:   25 * time.Millisecond,
			HandshakeTimeout: 250 * time.Millisecond,
			BackoffBase:      2 * time.Millisecond,
			BackoffMax:       50 * time.Millisecond,
			MaxReconnects:    200,
			Seed:             uint64(i),
		}
		if h.wcfg != nil {
			wc = h.wcfg(i)
		}
		ctx := wctx
		if h.wctx != nil {
			ctx = h.wctx(i)
		}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			// Worker exit reasons are checked by dedicated tests; the
			// harness only guarantees they all terminate.
			_ = RunWorker(ctx, wc)
		}()
	}

	out := <-ch
	// The campaign is over (or failed): release any worker still
	// redialling a closed listener.
	wcancel()
	wwg.Wait()
	if out.err != nil {
		t.Fatalf("Serve: %v", out.err)
	}
	return out.res, out.stats
}

func TestFabricMatchesLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	for _, n := range []int{1, 4} {
		h := &fabricHarness{workers: n}
		got, stats := h.run(t, c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: distributed result differs from Workers=1", n)
		}
		if stats.WorkersSeen != n {
			t.Errorf("%d workers: WorkersSeen = %d", n, stats.WorkersSeen)
		}
		if stats.Duplicates != 0 || stats.LeasesExpired != 0 {
			t.Errorf("%d workers: unexpected churn on a clean transport: %+v", n, stats)
		}
	}
}

// TestFabricQuorumHoldsLeases: with MinWorkers set, the coordinator
// grants its first lease only after the last required handshake, and
// every worker then gets work.
func TestFabricQuorumHoldsLeases(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	bus := obs.NewBus(256)
	defer bus.Close()
	var mu sync.Mutex
	joins, grantsBeforeQuorum := 0, 0
	granted := map[any]bool{}
	bus.Attach(func(ev obs.BusEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case ev.Kind == "fabric_worker" && ev.Attrs["state"] == "join":
			joins++
		case ev.Kind == "fabric_lease" && ev.Attrs["state"] == "grant":
			if joins < 3 {
				grantsBeforeQuorum++
			}
			granted[ev.Attrs["worker"]] = true
		}
	})
	h := &fabricHarness{workers: 3, cfg: Config{Bus: bus, MinWorkers: 3}}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("quorum-gated result differs from Workers=1")
	}
	mu.Lock()
	defer mu.Unlock()
	if grantsBeforeQuorum != 0 {
		t.Errorf("%d leases granted before the third handshake", grantsBeforeQuorum)
	}
	if len(granted) != 3 || stats.WorkersSeen != 3 {
		t.Errorf("leases went to %d workers (WorkersSeen %d), want all 3", len(granted), stats.WorkersSeen)
	}
}

func TestFabricKilledWorkerReassigns(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	// The victim dies the moment it holds a lease; the chunk must be
	// reassigned and the result must not change.
	bus := obs.NewBus(256)
	defer bus.Close()
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	sub := bus.Subscribe(0, 256)
	var once sync.Once
	go func() {
		defer sub.Close()
		for {
			ev, ok := sub.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_lease" && ev.Attrs["worker"] == "victim" && ev.Attrs["state"] == "grant" {
				once.Do(killVictim)
			}
		}
	}()

	h := &fabricHarness{
		workers: 4,
		cfg:     Config{Bus: bus, LeaseTTL: 2 * time.Second},
		wcfg: func(i int) WorkerConfig {
			name := fmt.Sprintf("w%d", i)
			if i == 0 {
				name = "victim"
			}
			return WorkerConfig{
				Campaign: testCampaign(t, 1600), Name: name,
				HeartbeatEvery: 25 * time.Millisecond,
				BackoffBase:    2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
				MaxReconnects: 200, Seed: uint64(i),
			}
		},
		wctx: func(i int) context.Context {
			if i == 0 {
				return victimCtx
			}
			return context.Background()
		},
	}
	// The harness's wcfg above rebuilds the campaign but the dialer comes
	// from the harness; wire it after construction.
	pl := NewPipeListener()
	h.ln = pl
	h.dial = pl.Dial()
	base := h.wcfg
	h.wcfg = func(i int) WorkerConfig {
		wc := base(i)
		wc.Dial = pl.Dial()
		return wc
	}

	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("result with a killed worker differs from Workers=1")
	}
	if stats.WorkersLost == 0 {
		t.Errorf("expected at least one lost worker: %+v", stats)
	}
	if stats.Reassigned == 0 {
		t.Errorf("expected reassigned chunks after the kill: %+v", stats)
	}
}

func TestFabricChaosBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1280)
	want := localReference(t, c)

	chaos := ChaosConfig{Seed: 7, Drop: 0.05, Dup: 0.08, Delay: 0.15, MaxDelay: 10 * time.Millisecond}
	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      ChaosListener(pl, chaos),
		dial:    ChaosDialer(pl.Dial(), chaos),
		workers: 3,
		cfg:     Config{LeaseTTL: 150 * time.Millisecond},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result under chaos transport differs from Workers=1 (stats %+v)", stats)
	}
}

func TestFabricDuplicateResultsSuppressed(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640) // 10 chunks
	want := localReference(t, c)

	pl := NewPipeListener()
	type serveOut struct {
		res   faultsim.Result
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	go func() {
		res, stats, err := Serve(context.Background(), Config{
			Campaign: c, Listener: pl, LeaseTTL: 5 * time.Second,
		})
		ch <- serveOut{res, stats, err}
	}()

	// A hand-rolled worker that speaks the protocol directly and sends
	// every result twice.
	runner, err := faultsim.NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Proto: Proto, Fingerprint: c.Fingerprint(), Worker: "dup"}); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		f, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch f.Type {
		case TypeWelcome:
		case TypeCampaign: // v2 ships the spec; this worker is flag-configured
		case TypeLease:
			out, err := runner.Run(context.Background(), f.Begin, f.End)
			if err != nil {
				t.Fatal(err)
			}
			res := &Frame{Type: TypeResult, Lease: f.Lease, Epoch: f.Epoch, Begin: f.Begin, End: f.End, Chunk: out}
			if err := conn.Send(res); err != nil {
				t.Fatal(err)
			}
			if err := conn.Send(res); err != nil { // the duplicate
				t.Fatal(err)
			}
		case TypeDone:
			done = true
		default:
			t.Fatalf("unexpected frame %q", f.Type)
		}
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("result with duplicated result frames differs from Workers=1")
	}
	// Every chunk was sent twice; the duplicate of the final chunk may
	// arrive after the campaign completed and the coordinator exited.
	if min := faultsim.NumChunks(c.Trials) - 1; out.stats.Duplicates < min {
		t.Errorf("Duplicates = %d, want >= %d (every chunk sent twice)", out.stats.Duplicates, min)
	}
}

func TestFabricRejectsFingerprintMismatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)

	pl := NewPipeListener()
	type serveOut struct {
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	go func() {
		_, stats, err := Serve(context.Background(), Config{Campaign: c, Listener: pl})
		ch <- serveOut{stats, err}
	}()

	// A worker whose campaign differs (other seed → other fingerprint)
	// must be refused permanently, not retried.
	bad := testCampaign(t, 640)
	bad.Seed = 999
	err := RunWorker(context.Background(), WorkerConfig{
		Campaign: bad, Dial: pl.Dial(), Name: "bad",
		BackoffBase: time.Millisecond, MaxReconnects: 3,
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("mismatched worker err = %v, want ErrRejected", err)
	}

	// A matching worker then completes the campaign.
	if err := RunWorker(context.Background(), WorkerConfig{
		Campaign: c, Dial: pl.Dial(), Name: "good",
		HeartbeatEvery: 25 * time.Millisecond, BackoffBase: time.Millisecond, MaxReconnects: 50,
	}); err != nil {
		t.Fatalf("good worker: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.stats.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", out.stats.Rejected)
	}
}

func TestFabricRejectsProtoMismatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	pl := NewPipeListener()
	sctx, scancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	go func() {
		_, _, err := Serve(sctx, Config{Campaign: c, Listener: pl})
		ch <- err
	}()
	conn, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Proto: Proto + 1, Fingerprint: c.Fingerprint()}); err != nil {
		t.Fatal(err)
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if f.Type != TypeReject {
		t.Fatalf("frame = %q, want reject", f.Type)
	}
	scancel()
	if err := <-ch; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve err = %v, want context.Canceled", err)
	}
}

func TestFabricOverTCP(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1280)
	want := localReference(t, c)

	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &fabricHarness{ln: ln, dial: DialTCP(ln.Addr()), workers: 2}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("TCP result differs from Workers=1")
	}
	if stats.WorkersSeen != 2 {
		t.Errorf("WorkersSeen = %d, want 2", stats.WorkersSeen)
	}
}

func TestFabricEarlyStopMatchesLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 6400)
	c.StopHalfWidth = 0.05 // stops well before 6400 trials
	want := localReference(t, c)
	if !want.EarlyStopped {
		t.Fatal("reference run did not early-stop; widen the test")
	}
	h := &fabricHarness{workers: 4}
	got, _ := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("early-stopped distributed result differs from Workers=1")
	}
}

func TestFabricDrainPersistsAndResumes(t *testing.T) {
	testutil.CheckGoroutines(t)
	base := testCampaign(t, 1600)
	want := localReference(t, base)

	path := filepath.Join(t.TempDir(), "fabric.ckpt")
	ck := base
	ck.CheckpointPath = path
	ck.CheckpointEvery = 64

	// Phase 1: drain the coordinator once a few chunks have merged.
	bus := obs.NewBus(256)
	defer bus.Close()
	sctx, drain := context.WithCancel(context.Background())
	defer drain()
	sub := bus.Subscribe(0, 256)
	var once sync.Once
	go func() {
		defer sub.Close()
		n := 0
		for {
			ev, ok := sub.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_lease" && ev.Attrs["state"] == "result" {
				if n++; n >= 5 {
					once.Do(drain)
				}
			}
		}
	}()

	pl := NewPipeListener()
	type serveOut struct {
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	go func() {
		_, stats, err := Serve(sctx, Config{Campaign: ck, Listener: pl, Bus: bus})
		ch <- serveOut{stats, err}
	}()
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(context.Background(), WorkerConfig{
			Campaign: base, Dial: pl.Dial(), Name: "w0",
			HeartbeatEvery: 25 * time.Millisecond, BackoffBase: time.Millisecond, MaxReconnects: 5,
		})
	}()
	out := <-ch
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("drained Serve err = %v, want context.Canceled", out.err)
	}
	if err := <-werr; !errors.Is(err, ErrDrained) {
		t.Fatalf("worker err = %v, want ErrDrained", err)
	}

	// Phase 2: a restarted coordinator resumes from the checkpoint and
	// finishes; the final result is still bit-identical, and fewer leases
	// were granted than a fresh run needs.
	rs := ck
	rs.Resume = true
	h := &fabricHarness{workers: 2}
	got, stats := h.run(t, rs)
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed fabric result differs from Workers=1")
	}
	if total := faultsim.NumChunks(base.Trials); stats.LeasesGranted >= total {
		t.Errorf("resumed run granted %d leases, want < %d (frontier was persisted)", stats.LeasesGranted, total)
	}
}

func TestWorkerBackoffGivesUpAndHonoursContext(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	failDial := func(ctx context.Context) (Conn, error) {
		return nil, errors.New("connection refused")
	}
	err := RunWorker(context.Background(), WorkerConfig{
		Campaign: c, Dial: failDial,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, MaxReconnects: 3,
	})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}

	// Cancellation must cut a long backoff short.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{
			Campaign: c, Dial: failDial,
			BackoffBase: time.Minute, BackoffMax: time.Minute, MaxReconnects: 100,
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not honour context cancellation during backoff")
	}
}

func TestCodecRoundTripAndLimits(t *testing.T) {
	testutil.CheckGoroutines(t)
	// The pipe transport skips the codec; exercise it over TCP loopback.
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	conn, err := DialTCP(ln.Addr())(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv := <-accepted
	defer srv.Close()

	in := &Frame{Type: TypeLease, Lease: 42, Begin: 128, End: 192}
	if err := conn.Send(in); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round-trip mismatch: %+v != %+v", got, in)
	}

	// A hostile length prefix is refused before any allocation happens.
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	srv2 := <-accepted
	defer srv2.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameSize+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("hostile prefix Recv err = %v, want ErrFrameTooLarge", err)
	}
}
