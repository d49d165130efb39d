package fabric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// flaglessWorker is the harness override for a worker with no campaign
// flags: it must self-configure from the shipped spec.
func flaglessWorker(dial Dialer, i int) WorkerConfig {
	return WorkerConfig{
		Dial:             dial,
		Name:             fmt.Sprintf("w%d", i),
		HeartbeatEvery:   25 * time.Millisecond,
		HandshakeTimeout: 250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxReconnects:    200,
		Seed:             uint64(i),
	}
}

func TestSpotCheckedDeterministicAndDense(t *testing.T) {
	const chunks = 4096
	// Identical inputs always select identically — arrival order, worker
	// identity and wall clock are not inputs.
	for seq := 0; seq < 64; seq++ {
		if SpotChecked(42, 3, seq, 0.25) != SpotChecked(42, 3, seq, 0.25) {
			t.Fatalf("SpotChecked(42, 3, %d, 0.25) is not deterministic", seq)
		}
	}
	// Density tracks the fraction.
	for _, frac := range []float64{0.05, 0.25, 0.75} {
		hits := 0
		for seq := 0; seq < chunks; seq++ {
			if SpotChecked(1998, 1, seq, frac) {
				hits++
			}
		}
		got := float64(hits) / chunks
		if math.Abs(got-frac) > 0.05 {
			t.Errorf("frac %.2f: selected %.3f of %d chunks", frac, got, chunks)
		}
	}
	// Edge fractions.
	if SpotChecked(1, 1, 7, 0) {
		t.Error("frac 0 selected a chunk")
	}
	if !SpotChecked(1, 1, 7, 1) {
		t.Error("frac 1 skipped a chunk")
	}
	// Different seeds and epochs pick different sets.
	same := 0
	for seq := 0; seq < chunks; seq++ {
		if SpotChecked(1, 1, seq, 0.5) == SpotChecked(2, 1, seq, 0.5) {
			same++
		}
	}
	if same == chunks {
		t.Error("seed does not influence spot-check selection")
	}
}

// TestFabricLyingWorkerQuarantined is the satellite coverage for the
// quarantine defence: with 1 of 4 workers corrupting every result, the
// liar is quarantined off its first divergent chunk and the merged
// result stays bit-identical to Workers=1.
func TestFabricLyingWorkerQuarantined(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 4,
		cfg:     Config{SpotCheck: 0.25, LeaseTTL: 2 * time.Second},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(pl.Dial(), i)
			wc.Campaign = testCampaign(t, 1600)
			if i == 0 {
				wc.Name = "liar"
				wc.Dial = CorruptDialer(pl.Dial(), 7, 1) // corrupts every result
			}
			return wc
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result with a lying worker differs from Workers=1 (stats %+v)", stats)
	}
	if stats.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 (stats %+v)", stats.Quarantined, stats)
	}
}

// TestFabricAllLiarsFallsBackLocal: when the only worker lies, the
// coordinator quarantines it and finishes the campaign itself —
// graceful degradation to local execution, still bit-identical.
func TestFabricAllLiarsFallsBackLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	want := localReference(t, c)

	bus := obs.NewBus(256)
	defer bus.Close()
	quarantines := make(chan obs.BusEvent, 16)
	sub := bus.Subscribe(0, 256)
	go func() {
		defer sub.Close()
		for {
			ev, ok := sub.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_quarantine" {
				select {
				case quarantines <- ev:
				default:
				}
			}
		}
	}()

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 1,
		cfg:     Config{SpotCheck: 0.25, LeaseTTL: 2 * time.Second, Bus: bus},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(CorruptDialer(pl.Dial(), 11, 1), i)
			wc.Name = "liar"
			return wc
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("local-fallback result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.LocalChunks == 0 {
		t.Errorf("LocalChunks = 0, want > 0 (fallback never engaged; stats %+v)", stats)
	}
	select {
	case ev := <-quarantines:
		if ev.Name != "liar" {
			t.Errorf("fabric_quarantine names %q, want \"liar\"", ev.Name)
		}
	case <-time.After(5 * time.Second):
		t.Error("no fabric_quarantine event observed")
	}
}

// TestFabricFlaglessWorkersSelfConfigure: workers launched with no
// campaign at all adopt the shipped spec (after verifying it against its
// claimed fingerprint) and the result stays bit-identical.
func TestFabricFlaglessWorkersSelfConfigure(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 4,
		wcfg:    func(i int) WorkerConfig { return flaglessWorker(pl.Dial(), i) },
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless-worker result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.WorkersSeen != 4 {
		t.Errorf("WorkersSeen = %d, want 4", stats.WorkersSeen)
	}
}

// TestFabricFlaglessUnderChaos drops/duplicates/delays frames in both
// directions with flagless workers: the campaign frame itself can be
// lost, so this exercises the need_campaign recovery path.
func TestFabricFlaglessUnderChaos(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	pl := NewPipeListener()
	chaos := ChaosConfig{Seed: 13, Drop: 0.15, Dup: 0.15, Delay: 0.2, MaxDelay: 10 * time.Millisecond}
	h := &fabricHarness{
		ln:      ChaosListener(pl, chaos),
		dial:    pl.Dial(),
		workers: 3,
		cfg:     Config{LeaseTTL: 150 * time.Millisecond},
		wcfg: func(i int) WorkerConfig {
			return flaglessWorker(ChaosDialer(pl.Dial(), chaos), i)
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless chaos result differs from Workers=1 (stats %+v)", stats)
	}
}

// TestFabricAuth covers the shared-token handshake: matching tokens
// complete (bit-identical), a wrong token is terminally rejected on the
// worker side (mutual auth fails before the worker sends anything
// campaign-shaped), and a token-less worker refuses a challenging
// coordinator.
func TestFabricAuth(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
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
			Campaign: c, Listener: pl, LeaseTTL: 2 * time.Second, AuthToken: "sesame",
		})
		ch <- serveOut{res, stats, err}
	}()

	// Wrong token: the coordinator's challenge MAC does not verify under
	// the worker's key — terminal ErrRejected, no redial storm.
	wc := flaglessWorker(pl.Dial(), 0)
	wc.Name = "intruder"
	wc.AuthToken = "wrong"
	if err := RunWorker(context.Background(), wc); !errors.Is(err, ErrRejected) {
		t.Errorf("wrong token: err = %v, want ErrRejected", err)
	}
	// No token at all against an authenticated coordinator.
	wc = flaglessWorker(pl.Dial(), 1)
	wc.Name = "anon"
	if err := RunWorker(context.Background(), wc); !errors.Is(err, ErrRejected) {
		t.Errorf("missing token: err = %v, want ErrRejected", err)
	}
	// Matching token: completes and stays bit-identical.
	wc = flaglessWorker(pl.Dial(), 2)
	wc.Name = "legit"
	wc.AuthToken = "sesame"
	if err := RunWorker(context.Background(), wc); err != nil {
		t.Errorf("matching token: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("authenticated result differs from Workers=1")
	}
	if out.stats.WorkersSeen != 1 {
		t.Errorf("WorkersSeen = %d, want 1 (only the matching token)", out.stats.WorkersSeen)
	}
}

// TestFabricAuthLeaksNothingPreAuth drives the handshake raw: a dialer
// that cannot answer the challenge must see no fingerprint, no spec, no
// trials and no lease before its rejection — only the challenge itself.
func TestFabricAuthLeaksNothingPreAuth(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)

	pl := NewPipeListener()
	sctx, scancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	go func() {
		_, _, err := Serve(sctx, Config{Campaign: c, Listener: pl, LeaseTTL: time.Second, AuthToken: "sesame"})
		ch <- err
	}()
	defer func() {
		scancel()
		<-ch
	}()

	conn, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Proto: Proto, Worker: "spy", Nonce: "00"}); err != nil {
		t.Fatal(err)
	}
	var challenge *Frame
	deadline := time.After(5 * time.Second)
	recvOne := func() *Frame {
		type recvOut struct {
			f   *Frame
			err error
		}
		rc := make(chan recvOut, 1)
		go func() {
			f, err := conn.Recv()
			rc <- recvOut{f, err}
		}()
		select {
		case out := <-rc:
			if out.err != nil {
				t.Fatalf("recv: %v", out.err)
			}
			return out.f
		case <-deadline:
			t.Fatal("no frame from coordinator")
			return nil
		}
	}
	challenge = recvOne()
	if challenge.Type != TypeChallenge {
		t.Fatalf("first frame is %q, want challenge", challenge.Type)
	}
	if challenge.Fingerprint != "" || challenge.Spec != nil || challenge.Trials != 0 || challenge.Lease != 0 {
		t.Fatalf("challenge leaks campaign material: %+v", challenge)
	}
	// Answer with garbage; the rejection must also carry nothing.
	if err := conn.Send(&Frame{Type: TypeAuth, MAC: "deadbeef"}); err != nil {
		t.Fatal(err)
	}
	verdict := recvOne()
	if verdict.Type != TypeReject {
		t.Fatalf("frame after bad auth is %q, want reject", verdict.Type)
	}
	if verdict.Fingerprint != "" || verdict.Spec != nil {
		t.Fatalf("reject leaks campaign material: %+v", verdict)
	}
	if !strings.Contains(verdict.Reason, "authentication") {
		t.Errorf("reject reason %q does not mention authentication", verdict.Reason)
	}
}

// TestFabricOverTLS runs a full campaign over mutual TLS plus the token
// handshake — the trust-domain-crossing configuration end to end.
func TestFabricOverTLS(t *testing.T) {
	testutil.CheckGoroutines(t)
	certs, err := WriteEphemeralCerts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := testCampaign(t, 640)
	want := localReference(t, c)

	ln, err := ListenTLS("127.0.0.1:0", certs.ServerCertFile, certs.ServerKeyFile, certs.CAFile)
	if err != nil {
		t.Fatal(err)
	}
	dial, err := DialTLS(ln.Addr(), certs.ClientCertFile, certs.ClientKeyFile, certs.CAFile)
	if err != nil {
		t.Fatal(err)
	}
	h := &fabricHarness{
		ln:      ln,
		dial:    dial,
		workers: 2,
		cfg:     Config{LeaseTTL: 2 * time.Second, AuthToken: "sesame"},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(dial, i)
			wc.AuthToken = "sesame"
			return wc
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TLS result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.WorkersSeen != 2 {
		t.Errorf("WorkersSeen = %d, want 2", stats.WorkersSeen)
	}
}

// TestFabricServeSearchMatchesLocal is the fabric-sharded adversarial
// search contract: ServeSearch over 1 and 4 flagless workers returns a
// SearchResult reflect.DeepEqual-identical to the local Search.
func TestFabricServeSearchMatchesLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	g, hw := testGraph(t)
	scfg := faultsim.SearchConfig{
		Graph:             g,
		HWOf:              hw,
		Trials:            320,
		Seed:              1998,
		MaxEvals:          6,
		CriticalThreshold: 10,
	}
	want, err := faultsim.Search(scfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 4} {
		pl := NewPipeListener()
		type searchOut struct {
			res   faultsim.SearchResult
			stats Stats
			err   error
		}
		ch := make(chan searchOut, 1)
		go func() {
			res, stats, err := ServeSearch(context.Background(), Config{
				Listener: pl, LeaseTTL: 2 * time.Second, SpotCheck: 0.2, Label: "search", MinWorkers: n,
			}, scfg)
			ch <- searchOut{res, stats, err}
		}()
		wctx, wcancel := context.WithCancel(context.Background())
		var wwg sync.WaitGroup
		for i := 0; i < n; i++ {
			wwg.Add(1)
			go func(i int) {
				defer wwg.Done()
				_ = RunWorker(wctx, flaglessWorker(pl.Dial(), i))
			}(i)
		}
		out := <-ch
		wcancel()
		wwg.Wait()
		if out.err != nil {
			t.Fatalf("%d workers: ServeSearch: %v", n, out.err)
		}
		if !reflect.DeepEqual(out.res, want) {
			t.Errorf("%d workers: fabric-sharded search differs from local Search", n)
		}
		if out.stats.WorkersSeen != n {
			t.Errorf("%d workers: WorkersSeen = %d", n, out.stats.WorkersSeen)
		}
	}
}

// TestFabricRelayDeterminism certifies the federation contract: turning
// the telemetry relay on (bus + observer, including a subscriber that
// never drains) must not perturb the merged result by a single bit at
// any worker count, while actually relaying every chunk's phase spans.
func TestFabricRelayDeterminism(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	for _, n := range []int{1, 4} {
		bus := obs.NewBus(64)
		observer := obs.New(obs.WithBus(bus))
		// A jammed subscriber: tiny ring, never drained. Backpressure must
		// land on the subscriber's drop counter, never on the protocol.
		stuck := bus.Subscribe(0, 4)
		h := &fabricHarness{workers: n, cfg: Config{Bus: bus, Observer: observer}}
		got, stats := h.run(t, c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: relay-on result differs from Workers=1", n)
		}
		if stats.Duplicates != 0 || stats.LeasesExpired != 0 {
			t.Errorf("%d workers: unexpected churn with relay on: %+v", n, stats)
		}
		spans := observer.RemoteSpans()
		if wantSpans := 3 * faultsim.NumChunks(c.Trials); len(spans) != wantSpans {
			t.Errorf("%d workers: %d remote spans relayed, want %d (3 per chunk)", n, len(spans), wantSpans)
		}
		for _, rs := range spans {
			if rs.Worker == "" || rs.Parent == 0 || rs.ID == 0 || rs.DurUS < 0 {
				t.Fatalf("%d workers: malformed remote span %+v", n, rs)
			}
		}
		stuck.Close()
		bus.Close()
	}
}

// TestFabricRelayUnderChaos runs the relay over a dropping, duplicating,
// delaying transport with real lease expiries: the merge must stay
// bit-identical, and relayed evaluate spans may be lost with their
// frames but never duplicated — dup suppression covers telemetry too.
func TestFabricRelayUnderChaos(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	chaos := ChaosConfig{Seed: 7, Drop: 0.05, Dup: 0.08, Delay: 0.15, MaxDelay: 10 * time.Millisecond}
	pl := NewPipeListener()
	bus := obs.NewBus(1 << 12)
	defer bus.Close()
	observer := obs.New(obs.WithBus(bus))
	h := &fabricHarness{
		ln:      ChaosListener(pl, chaos),
		dial:    ChaosDialer(pl.Dial(), chaos),
		workers: 3,
		cfg:     Config{Bus: bus, Observer: observer, LeaseTTL: 150 * time.Millisecond},
	}
	got, _ := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("chaos + relay: merged result differs from Workers=1")
	}
	seen := map[int]int{}
	for _, rs := range observer.RemoteSpans() {
		if rs.Name == "evaluate" {
			if seen[rs.Chunk]++; seen[rs.Chunk] > 1 {
				t.Fatalf("chunk %d evaluate span relayed twice", rs.Chunk)
			}
		}
	}
	if len(seen) == 0 {
		t.Error("chaos + relay: no evaluate spans survived")
	}
}

// TestFabricServeSearchRelay certifies that the fabric-sharded search
// stays bit-identical to the local Search with the relay on, across the
// per-evaluation epoch rollovers, and that spans are relayed throughout.
func TestFabricServeSearchRelay(t *testing.T) {
	testutil.CheckGoroutines(t)
	g, hw := testGraph(t)
	scfg := faultsim.SearchConfig{
		Graph:             g,
		HWOf:              hw,
		Trials:            320,
		Seed:              1998,
		MaxEvals:          6,
		CriticalThreshold: 10,
	}
	want, err := faultsim.Search(scfg)
	if err != nil {
		t.Fatal(err)
	}

	bus := obs.NewBus(1 << 12)
	defer bus.Close()
	observer := obs.New(obs.WithBus(bus))
	pl := NewPipeListener()
	type searchOut struct {
		res faultsim.SearchResult
		err error
	}
	ch := make(chan searchOut, 1)
	go func() {
		res, _, err := ServeSearch(context.Background(), Config{
			Listener: pl, LeaseTTL: 2 * time.Second, Label: "search",
			Bus: bus, Observer: observer,
		}, scfg)
		ch <- searchOut{res, err}
	}()
	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			_ = RunWorker(wctx, flaglessWorker(pl.Dial(), i))
		}(i)
	}
	out := <-ch
	wcancel()
	wwg.Wait()
	if out.err != nil {
		t.Fatalf("ServeSearch: %v", out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("relay-on fabric search differs from local Search")
	}
	if len(observer.RemoteSpans()) == 0 {
		t.Error("search relayed no remote spans")
	}
}
