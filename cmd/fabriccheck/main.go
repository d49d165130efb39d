// Fabriccheck is the `make fabric-check` gate: it certifies the
// distributed campaign fabric's core guarantee — the merged result of a
// sharded campaign is bit-identical (reflect.DeepEqual on the full
// faultsim.Result) to a local Workers=1 run — under every failure mode
// the protocol claims to survive:
//
//   - clean transport, 1 worker and 4 workers (and zero lease churn);
//   - a worker killed the moment it first holds a lease, with the
//     coordinator observed reassigning its chunks;
//   - a chaos transport dropping, duplicating and delaying frames in
//     both directions, with a short lease TTL forcing real expiries;
//   - the federated-telemetry relay on (bus + observer), with a worker
//     killed mid-campaign: the merge must stay bit-identical, and every
//     chunk must appear exactly once among the relayed evaluate spans,
//     each parented by a lease the coordinator actually granted over
//     that chunk;
//   - a coordinator drained mid-campaign (graceful ctx cancel) and
//     restarted from its frontier checkpoint, finishing with strictly
//     fewer fresh leases than a from-zero run;
//   - a lying worker corrupting every chunk it returns: deterministic
//     spot-checks quarantine it and the merge stays bit-identical;
//   - an unauthenticated (and a wrong-token) dialer, rejected by the
//     HMAC challenge-response before any campaign material — spec,
//     fingerprint, trials, leases — crosses the wire;
//   - flagless workers self-configuring from the shipped spec over
//     TLS 1.3 with mutual certificate verification plus the token gate,
//     on real TCP sockets;
//   - the fabric-sharded adversarial search, whose SearchResult must be
//     bit-identical to the local faultsim.Search at 1 and 4 workers.
//
// The Makefile runs it under -race, so every scenario doubles as a data
// race probe over the coordinator loop, worker sessions and chaos timers.
// Exits non-zero with a per-scenario report on any violation.
//
// Usage: go run -race ./cmd/fabriccheck [-trials 3200]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/obs"
)

var failures int

func fail(format string, args ...any) {
	failures++
	fmt.Fprintf(os.Stderr, "fabric-check: FAIL: "+format+"\n", args...)
}

func main() {
	trials := flag.Int("trials", 3200, "campaign trials per scenario")
	flag.Parse()

	sys := depint.PaperExample()
	res, err := depint.Integrate(sys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabric-check: integrate: %v\n", err)
		os.Exit(1)
	}
	c := faultsim.Campaign{
		Graph:             res.Expanded,
		HWOf:              res.HWOf(),
		Trials:            *trials,
		Seed:              1998,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
	}
	local := c
	local.Workers = 1
	want, err := faultsim.Run(local)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabric-check: local reference: %v\n", err)
		os.Exit(1)
	}

	cleanTopologies(c, want)
	killedWorker(c, want)
	chaosTransport(c, want)
	telemetryTrace(c, want)
	drainAndResume(c, want)
	lyingWorkerQuarantine(c, want)
	authReject(c, want)
	selfConfiguringTLS(c, want)
	searchIdentity(res.Expanded, res.HWOf(), *trials)

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "fabric-check: %d failure(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("fabric-check: OK")
}

// workerDefaults are the fast-cadence settings every scenario shares.
func workerDefaults(c faultsim.Campaign, dial fabric.Dialer, name string, seed uint64) fabric.WorkerConfig {
	return fabric.WorkerConfig{
		Campaign:         c,
		Dial:             dial,
		Name:             name,
		HeartbeatEvery:   25 * time.Millisecond,
		HandshakeTimeout: 250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxReconnects:    200,
		Seed:             seed,
	}
}

// runFabric serves cfg while n workers (built by wcfg, run under wctx)
// compute, and returns the merged result. Worker errors are intentionally
// ignored: scenarios kill and drain workers on purpose.
func runFabric(ctx context.Context, cfg fabric.Config, n int,
	wcfg func(i int) fabric.WorkerConfig, wctx func(i int) context.Context,
) (faultsim.Result, fabric.Stats, error) {
	type out struct {
		res   faultsim.Result
		stats fabric.Stats
		err   error
	}
	ch := make(chan out, 1)
	go func() {
		res, stats, err := fabric.Serve(ctx, cfg)
		ch <- out{res, stats, err}
	}()
	stop, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := stop
		if wctx != nil {
			c = wctx(i)
		}
		wg.Add(1)
		go func(i int, c context.Context) {
			defer wg.Done()
			_ = fabric.RunWorker(c, wcfg(i))
		}(i, c)
	}
	o := <-ch
	cancel()
	wg.Wait()
	return o.res, o.stats, o.err
}

func cleanTopologies(c faultsim.Campaign, want faultsim.Result) {
	for _, n := range []int{1, 4} {
		pl := fabric.NewPipeListener()
		got, stats, err := runFabric(context.Background(),
			fabric.Config{Campaign: c, Listener: pl, MinWorkers: n}, n,
			func(i int) fabric.WorkerConfig {
				return workerDefaults(c, pl.Dial(), fmt.Sprintf("w%d", i), uint64(i))
			}, nil)
		if err != nil {
			fail("%d workers: %v", n, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			fail("%d workers: merged result differs from Workers=1", n)
		}
		if stats.WorkersSeen != n || stats.Duplicates != 0 || stats.LeasesExpired != 0 {
			fail("%d workers: unexpected churn on a clean transport: %+v", n, stats)
		}
		fmt.Printf("fabric-check: %d worker(s), clean transport: bit-identical (%d leases)\n",
			n, stats.LeasesGranted)
	}
}

func killedWorker(c faultsim.Campaign, want faultsim.Result) {
	bus := obs.NewBus(256)
	defer bus.Close()
	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	sub := bus.Subscribe(0, 256)
	watcherDone := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(watcherDone)
		for {
			ev, ok := sub.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_lease" && ev.Attrs["worker"] == "victim" && ev.Attrs["state"] == "grant" {
				once.Do(kill)
			}
		}
	}()

	pl := fabric.NewPipeListener()
	got, stats, err := runFabric(context.Background(),
		fabric.Config{Campaign: c, Listener: pl, Bus: bus, LeaseTTL: 2 * time.Second}, 4,
		func(i int) fabric.WorkerConfig {
			name := fmt.Sprintf("w%d", i)
			if i == 0 {
				name = "victim"
			}
			return workerDefaults(c, pl.Dial(), name, uint64(i))
		},
		func(i int) context.Context {
			if i == 0 {
				return victimCtx
			}
			return context.Background()
		})
	sub.Close()
	<-watcherDone
	if err != nil {
		fail("killed worker: %v", err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		fail("killed worker: merged result differs from Workers=1")
	}
	if stats.WorkersLost == 0 || stats.Reassigned == 0 {
		fail("killed worker: no observed loss/reassignment (stats %+v) — victim never held a lease?", stats)
	}
	fmt.Printf("fabric-check: killed worker: bit-identical, %d chunk(s) reassigned after %d loss(es)\n",
		stats.Reassigned, stats.WorkersLost)
}

func chaosTransport(c faultsim.Campaign, want faultsim.Result) {
	chaos := fabric.ChaosConfig{
		Seed: 7, Drop: 0.05, Dup: 0.08, Delay: 0.15, MaxDelay: 10 * time.Millisecond,
	}
	pl := fabric.NewPipeListener()
	ln := fabric.ChaosListener(pl, chaos)
	dial := fabric.ChaosDialer(pl.Dial(), chaos)
	got, stats, err := runFabric(context.Background(),
		fabric.Config{Campaign: c, Listener: ln, LeaseTTL: 150 * time.Millisecond}, 3,
		func(i int) fabric.WorkerConfig {
			return workerDefaults(c, dial, fmt.Sprintf("w%d", i), uint64(i))
		}, nil)
	if err != nil {
		fail("chaos transport: %v", err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		fail("chaos transport: merged result differs from Workers=1 (stats %+v)", stats)
	}
	fmt.Printf("fabric-check: chaos transport (drop/dup/delay): bit-identical (%d expired, %d reassigned, %d duplicates suppressed)\n",
		stats.LeasesExpired, stats.Reassigned, stats.Duplicates)
}

// telemetryTrace certifies the federated-telemetry leg: with a bus and
// observer attached, the coordinator propagates trace context on grants
// and absorbs the phase spans workers relay back on their result frames.
// Even with a worker killed mid-campaign (its chunks reassigned), the
// merge must stay bit-identical to Workers=1, every chunk must appear
// exactly once among the relayed evaluate spans, and every span's parent
// must be a lease the coordinator actually granted over that chunk.
func telemetryTrace(c faultsim.Campaign, want faultsim.Result) {
	bus := obs.NewBus(1 << 13)
	defer bus.Close()
	sub := bus.Subscribe(0, 1<<13)
	defer sub.Close()
	observer := obs.New(obs.WithBus(bus))

	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	var once sync.Once
	watch := bus.Subscribe(0, 256)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			ev, ok := watch.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_lease" && ev.Attrs["worker"] == "victim" && ev.Attrs["state"] == "grant" {
				once.Do(kill)
			}
		}
	}()

	pl := fabric.NewPipeListener()
	got, stats, err := runFabric(context.Background(),
		fabric.Config{Campaign: c, Listener: pl, Bus: bus, Observer: observer, LeaseTTL: 2 * time.Second}, 4,
		func(i int) fabric.WorkerConfig {
			name := fmt.Sprintf("w%d", i)
			if i == 0 {
				name = "victim"
			}
			return workerDefaults(c, pl.Dial(), name, uint64(i))
		},
		func(i int) context.Context {
			if i == 0 {
				return victimCtx
			}
			return context.Background()
		})
	watch.Close()
	<-watcherDone
	if err != nil {
		fail("telemetry: %v", err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		fail("telemetry: merged result differs from Workers=1 with relay on (stats %+v)", stats)
	}

	// Granted leases, from the event stream: lease id -> chunk index.
	leaseChunk := map[uint64]int{}
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Kind != "fabric_lease" || ev.Attrs["state"] != "grant" {
			continue
		}
		lease, ok1 := attrInt(ev.Attrs["lease"])
		begin, ok2 := attrInt(ev.Attrs["begin"])
		if ok1 && ok2 {
			leaseChunk[uint64(lease)] = faultsim.ChunkIndex(begin)
		}
	}

	spans := observer.RemoteSpans()
	if len(spans) == 0 {
		fail("telemetry: no remote spans relayed")
		return
	}
	total := faultsim.NumChunks(c.Trials)
	evalSeen := make(map[int]int, total)
	ids := map[uint64]bool{}
	for _, rs := range spans {
		if rs.ID == 0 || ids[rs.ID] {
			fail("telemetry: duplicate or zero span id %d (chunk %d, %s)", rs.ID, rs.Chunk, rs.Name)
			return
		}
		ids[rs.ID] = true
		chunk, granted := leaseChunk[rs.Parent]
		if !granted {
			fail("telemetry: span %s/chunk %d has parent %d, which is not a granted lease", rs.Name, rs.Chunk, rs.Parent)
			return
		}
		if chunk != rs.Chunk {
			fail("telemetry: span parent lease %d was granted chunk %d, span claims chunk %d", rs.Parent, chunk, rs.Chunk)
			return
		}
		if rs.Name == "evaluate" {
			evalSeen[rs.Chunk]++
		}
	}
	for i := 0; i < total; i++ {
		if evalSeen[i] != 1 {
			fail("telemetry: chunk %d appears %d time(s) among evaluate spans, want exactly 1", i, evalSeen[i])
			return
		}
	}
	fmt.Printf("fabric-check: federated telemetry: bit-identical with relay on, %d remote spans, each of %d chunks traced exactly once (%d reassigned after kill)\n",
		len(spans), total, stats.Reassigned)
}

// attrInt coerces the numeric types bus attrs carry in practice.
func attrInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case float64:
		return int(n), true
	}
	return 0, false
}

// lyingWorkerQuarantine certifies the untrusted-worker defence: one of
// four workers corrupts every result chunk it returns. Deterministic
// spot-checks must catch it on its first divergent chunk, quarantine it
// (with local fallback covering its chunks), and the final merge must
// still be bit-identical to the local reference.
func lyingWorkerQuarantine(c faultsim.Campaign, want faultsim.Result) {
	pl := fabric.NewPipeListener()
	got, stats, err := runFabric(context.Background(),
		fabric.Config{Campaign: c, Listener: pl, SpotCheck: 0.25, LeaseTTL: 2 * time.Second}, 4,
		func(i int) fabric.WorkerConfig {
			name := fmt.Sprintf("w%d", i)
			dial := pl.Dial()
			if i == 0 {
				name = "liar"
				dial = fabric.CorruptDialer(dial, 7, 1)
			}
			return workerDefaults(c, dial, name, uint64(i))
		}, nil)
	if err != nil {
		fail("lying worker: %v", err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		fail("lying worker: merged result differs from Workers=1 — corrupt bytes reached the merge (stats %+v)", stats)
	}
	if stats.Quarantined != 1 {
		fail("lying worker: Quarantined = %d, want 1 (stats %+v)", stats.Quarantined, stats)
	}
	fmt.Printf("fabric-check: lying worker: quarantined after %d spot-check(s), merge bit-identical\n",
		stats.Quarantined)
}

// authReject certifies the token gate at the protocol level: a dialer
// with the wrong token (and one with none) must be rejected before any
// campaign material — fingerprint, trials, spec, lease — crosses the
// wire, while a correct-token run stays bit-identical.
func authReject(c faultsim.Campaign, want faultsim.Result) {
	const token = "fabric-check-secret"
	pl := fabric.NewPipeListener()
	serveCtx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := fabric.Serve(serveCtx, fabric.Config{
			Campaign: c, Listener: pl, AuthToken: token, LeaseTTL: 2 * time.Second,
		})
		done <- err
	}()

	// Raw probe: say hello without the token and record every frame the
	// coordinator sends before rejecting us.
	probe := func(mac string) bool {
		conn, err := pl.Dial()(context.Background())
		if err != nil {
			fail("auth: probe dial: %v", err)
			return false
		}
		defer conn.Close()
		if err := conn.Send(&fabric.Frame{Type: fabric.TypeHello, Proto: fabric.Proto, Worker: "probe", Nonce: "00"}); err != nil {
			fail("auth: probe hello: %v", err)
			return false
		}
		for {
			f, err := conn.Recv()
			if err != nil {
				fail("auth: probe recv: %v", err)
				return false
			}
			if f.Fingerprint != "" || f.Spec != nil || f.Trials != 0 || f.Lease != 0 {
				fail("auth: campaign material sent pre-auth in %q frame: %+v", f.Type, f)
				return false
			}
			switch f.Type {
			case fabric.TypeChallenge:
				if err := conn.Send(&fabric.Frame{Type: fabric.TypeAuth, MAC: mac}); err != nil {
					fail("auth: probe auth frame: %v", err)
					return false
				}
			case fabric.TypeReject:
				return true
			default:
				fail("auth: unexpected pre-auth frame %q", f.Type)
				return false
			}
		}
	}
	if probe("") && probe("deadbeef") {
		fmt.Println("fabric-check: auth: unauthenticated and wrong-token dialers rejected, zero campaign material pre-auth")
	}

	// Wrong-token worker: terminal ErrRejected, no retry storm.
	bad := workerDefaults(c, pl.Dial(), "intruder", 99)
	bad.AuthToken = "wrong-" + token
	if err := fabric.RunWorker(context.Background(), bad); !errors.Is(err, fabric.ErrRejected) {
		fail("auth: wrong-token worker returned %v, want ErrRejected", err)
	}

	// Correct token: the campaign completes bit-identically.
	ok := workerDefaults(c, pl.Dial(), "legit", 1)
	ok.AuthToken = token
	wdone := make(chan error, 1)
	go func() { wdone <- fabric.RunWorker(context.Background(), ok) }()
	err := <-done
	stop()
	if werr := <-wdone; werr != nil {
		fail("auth: correct-token worker: %v", werr)
	}
	if err != nil {
		fail("auth: Serve: %v", err)
		return
	}
	fmt.Println("fabric-check: auth: correct-token campaign completed")
}

// selfConfiguringTLS runs the full trust-domain-crossing configuration:
// TLS 1.3 with mutual certificate verification, the shared-token
// handshake, and flagless workers that self-configure from the shipped
// spec — over real TCP sockets, end to end.
func selfConfiguringTLS(c faultsim.Campaign, want faultsim.Result) {
	dir, err := os.MkdirTemp("", "fabriccheck-tls")
	if err != nil {
		fail("tls: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	certs, err := fabric.WriteEphemeralCerts(dir)
	if err != nil {
		fail("tls: %v", err)
		return
	}
	ln, err := fabric.ListenTLS("127.0.0.1:0", certs.ServerCertFile, certs.ServerKeyFile, certs.CAFile)
	if err != nil {
		fail("tls: listen: %v", err)
		return
	}
	dial, err := fabric.DialTLS(ln.Addr(), certs.ClientCertFile, certs.ClientKeyFile, certs.CAFile)
	if err != nil {
		fail("tls: dial: %v", err)
		return
	}
	got, stats, err := runFabric(context.Background(),
		fabric.Config{Campaign: c, Listener: ln, AuthToken: "sesame", SpotCheck: 0.1, LeaseTTL: 2 * time.Second, MinWorkers: 2}, 2,
		func(i int) fabric.WorkerConfig {
			w := workerDefaults(faultsim.Campaign{}, dial, fmt.Sprintf("w%d", i), uint64(i))
			w.AuthToken = "sesame"
			return w
		}, nil)
	if err != nil {
		fail("tls: %v", err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		fail("tls: flagless result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.WorkersSeen != 2 {
		fail("tls: WorkersSeen = %d, want 2", stats.WorkersSeen)
	}
	fmt.Printf("fabric-check: TLS + token + flagless self-configuration over TCP: bit-identical (%d leases)\n",
		stats.LeasesGranted)
}

// searchIdentity certifies the fabric-sharded adversarial search: the
// SearchResult from ServeSearch over 1 and 4 flagless workers must be
// reflect.DeepEqual-identical to the local faultsim.Search — same best
// scenario, same scores, same evaluation trail.
func searchIdentity(g *graph.Graph, hwOf map[string]string, trials int) {
	scfg := faultsim.SearchConfig{
		Graph:             g,
		HWOf:              hwOf,
		Trials:            trials / 4,
		Seed:              1998,
		MaxEvals:          6,
		CriticalThreshold: 10,
	}
	want, err := faultsim.Search(scfg)
	if err != nil {
		fail("search: local reference: %v", err)
		return
	}
	for _, n := range []int{1, 4} {
		pl := fabric.NewPipeListener()
		type out struct {
			res   faultsim.SearchResult
			stats fabric.Stats
			err   error
		}
		ch := make(chan out, 1)
		go func() {
			res, stats, err := fabric.ServeSearch(context.Background(), fabric.Config{
				Listener: pl, SpotCheck: 0.1, LeaseTTL: 2 * time.Second, Label: "search",
			}, scfg)
			ch <- out{res, stats, err}
		}()
		wctx, wcancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_ = fabric.RunWorker(wctx, workerDefaults(faultsim.Campaign{}, pl.Dial(), fmt.Sprintf("w%d", i), uint64(i)))
			}(i)
		}
		o := <-ch
		wcancel()
		wg.Wait()
		if o.err != nil {
			fail("search: %d workers: %v", n, o.err)
			continue
		}
		if !reflect.DeepEqual(o.res, want) {
			fail("search: %d workers: fabric-sharded SearchResult differs from local Search", n)
			continue
		}
		fmt.Printf("fabric-check: fabric-sharded search, %d worker(s): bit-identical to local Search (%d evaluations, best %s)\n",
			n, len(o.res.Evaluations), o.res.Best.Scenario)
	}
}

func drainAndResume(c faultsim.Campaign, want faultsim.Result) {
	dir, err := os.MkdirTemp("", "fabriccheck")
	if err != nil {
		fail("drain/resume: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	c.CheckpointPath = filepath.Join(dir, "frontier.ckpt")
	c.Resume = true

	// Phase 1: cancel the coordinator after a few merged chunks; the
	// frontier checkpoint must survive the drain.
	bus := obs.NewBus(256)
	serveCtx, drain := context.WithCancel(context.Background())
	sub := bus.Subscribe(0, 256)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		results := 0
		for {
			ev, ok := sub.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_lease" && ev.Attrs["state"] == "result" {
				if results++; results == 5 {
					drain()
				}
			}
		}
	}()
	pl := fabric.NewPipeListener()
	_, first, err := runFabric(serveCtx,
		fabric.Config{Campaign: c, Listener: pl, Bus: bus}, 2,
		func(i int) fabric.WorkerConfig {
			return workerDefaults(c, pl.Dial(), fmt.Sprintf("w%d", i), uint64(i))
		}, nil)
	drain()
	sub.Close()
	bus.Close()
	<-watcherDone
	if !errors.Is(err, context.Canceled) {
		fail("drain/resume: drained Serve returned %v, want context.Canceled", err)
		return
	}

	// Phase 2: a fresh coordinator resumes from the frontier and must
	// still match the local reference — with fewer leases than a cold run.
	pl2 := fabric.NewPipeListener()
	got, second, err := runFabric(context.Background(),
		fabric.Config{Campaign: c, Listener: pl2}, 2,
		func(i int) fabric.WorkerConfig {
			return workerDefaults(c, pl2.Dial(), fmt.Sprintf("r%d", i), uint64(i))
		}, nil)
	if err != nil {
		fail("drain/resume: resumed Serve: %v", err)
		return
	}
	if !reflect.DeepEqual(got, want) {
		fail("drain/resume: resumed result differs from Workers=1")
	}
	if total := faultsim.NumChunks(c.Trials); second.LeasesGranted >= total {
		fail("drain/resume: resumed run granted %d leases for %d chunks — checkpoint ignored", second.LeasesGranted, total)
	}
	fmt.Printf("fabric-check: drain + checkpoint resume: bit-identical (%d leases before drain, %d after resume)\n",
		first.LeasesGranted, second.LeasesGranted)
}
