package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	depint "repro"
	"repro/internal/fabric"
	"repro/internal/faultsim"
	"repro/internal/obs"
)

// relayCounts is what the telemetry consumers saw during one campaign.
type relayCounts struct {
	events, dropped uint64
	remote          []obs.RemoteSpan
}

// fabricCampaign runs one distributed campaign in this process: Serve on
// ln plus workers RunWorker loops dialling dial. With relay on, the
// coordinator streams onto a bus drained by one subscriber and collects
// the spans workers relay into an observer. It returns once every worker
// has stopped.
func fabricCampaign(c faultsim.Campaign, workers int, relay bool, ln fabric.Listener, dial fabric.Dialer) (faultsim.Result, fabric.Stats, relayCounts, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bus *obs.Bus
	var observer *obs.Observer
	var sub *obs.Subscriber
	var drained sync.WaitGroup
	if relay {
		bus = obs.NewBus(1 << 12)
		sub = bus.Subscribe(0, 1<<12)
		drained.Add(1)
		go func() {
			defer drained.Done()
			for {
				if _, ok := sub.Next(nil); !ok {
					return
				}
			}
		}()
		observer = obs.New(obs.WithBus(bus))
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fabric.RunWorker(ctx, fabric.WorkerConfig{
				Campaign: c,
				Dial:     dial,
				Name:     fmt.Sprintf("w%d", w),
				Seed:     uint64(w + 1),
			})
		}(w)
	}
	res, stats, err := fabric.Serve(ctx, fabric.Config{Campaign: c, Listener: ln, Bus: bus, Observer: observer})
	if err != nil {
		cancel()
	}
	wg.Wait()
	var rc relayCounts
	if relay {
		rc = relayCounts{events: bus.Seq(), dropped: bus.Dropped(), remote: observer.RemoteSpans()}
		sub.Close()
		drained.Wait()
		bus.Close()
	}
	if err != nil {
		return res, stats, rc, fmt.Errorf("serve: %w", err)
	}
	if err := errors.Join(errs...); err != nil {
		return res, stats, rc, fmt.Errorf("worker: %w", err)
	}
	return res, stats, rc, nil
}

// tcpCampaign runs one untraced campaign over the public TCP transport.
func tcpCampaign(c faultsim.Campaign, workers int, relay bool) (faultsim.Result, float64, error) {
	settle()
	t0 := time.Now()
	ln, err := fabric.ListenTCP("127.0.0.1:0")
	if err != nil {
		return faultsim.Result{}, 0, err
	}
	res, _, _, err := fabricCampaign(c, workers, relay, ln, fabric.DialTCP(ln.Addr()))
	return res, time.Since(t0).Seconds(), err
}

// fabricSetUp integrates the paper's worked example and computes the
// local Workers=1 reference every distributed result must equal.
func fabricSetUp(o options) (*scenario, faultsim.Campaign, faultsim.Result, error) {
	sc, res, err := integrateReference(depint.PaperExample())
	if err != nil {
		return nil, faultsim.Campaign{}, faultsim.Result{}, err
	}
	c := campaignConfig(res, o.trials, o.seed)
	ref, _, err := timedRun(c, 1)
	if err != nil {
		return nil, faultsim.Campaign{}, faultsim.Result{}, fmt.Errorf("reference campaign: %w", err)
	}
	// Compared with itself, the check leaves completeness and both fault
	// paths having run.
	if err := checkCampaign(ref, ref, o.trials); err != nil {
		return nil, faultsim.Campaign{}, faultsim.Result{}, fmt.Errorf("reference campaign: %w", err)
	}
	return sc, c, ref, nil
}

// runFabric is the fabric workload: one caller alternating distributed
// campaigns with the telemetry relay on (op_s) and off (alt_op_s), each
// over loopback TCP with nproc in-process workers. Every merged result
// must equal the local Workers=1 reference.
func runFabric(b *bench) error {
	o := b.opts
	var sc *scenario
	var c faultsim.Campaign
	var ref faultsim.Result
	if err := b.measureSetup(func() (err error) {
		sc, c, ref, err = fabricSetUp(o)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "fabric: %s, %d expanded nodes, %d trials, %d chunks, %d workers\n",
		sc.name, c.Graph.NumNodes(), o.trials, faultsim.NumChunks(o.trials), o.workers)
	if o.trace {
		return b.traceFabric(sc, c, ref)
	}
	var on, off []float64
	dl := deadline(o)
	for i := 0; i < 2 || time.Now().Before(dl); i++ {
		for _, relay := range []bool{true, false} {
			var res faultsim.Result
			var d float64
			var err error
			op := func() { res, d, err = tcpCampaign(c, o.workers, relay) }
			if !relay {
				op()
			} else if perr := b.measurePeak(op); perr != nil {
				return perr
			}
			if err == nil {
				err = checkCampaign(res, ref, o.trials)
			}
			b.check(fmt.Sprintf("fabric campaign relay=%t", relay), err)
			if relay {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	b.showSeries("fabric_trials_per_s", "1/s", perSecond(o.trials, on), byMedian)
	b.showSeries("fabric_quiet_trials_per_s", "1/s", perSecond(o.trials, off), byMedian)
	return b.finishEndToEnd(on, off, byMedian)
}

// wireStats aggregates what the traced transport saw, over every
// campaign of one arm.
type wireStats struct {
	mu          sync.Mutex
	frames      int
	bytes       int64
	resultBytes []float64
	sendUS      []float64
	waitNS      int64
}

func (ws *wireStats) sent(frameType string, n int64, d time.Duration) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.frames++
	ws.bytes += n
	ws.sendUS = append(ws.sendUS, float64(d.Nanoseconds())/1e3)
	if frameType == fabric.TypeResult {
		ws.resultBytes = append(ws.resultBytes, float64(n))
	}
}

func (ws *wireStats) waited(ns int64) {
	ws.mu.Lock()
	ws.waitNS += ns
	ws.mu.Unlock()
}

// countingConn counts the bytes written to a socket and timestamps the
// first read that returns data after its Recv caller arms it.
type countingConn struct {
	net.Conn
	tr        *tracer
	written   atomic.Int64
	firstRead int64 // touched only by the connection's single Recv goroutine
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.firstRead < 0 {
		c.firstRead = c.tr.now()
	}
	return n, err
}

// tracedConn wraps the public frame codec over a countingConn. Sends are
// spans covering encode plus write; receives record a span from the
// frame's first byte to its decoded return, so time spent waiting for a
// frame is not counted as codec work. On worker connections it also
// measures how long the worker held no lease.
type tracedConn struct {
	inner  fabric.Conn
	raw    *countingConn
	tr     *tracer
	root   int
	ws     *wireStats
	worker bool
	sendMu sync.Mutex // one send at a time, so the byte delta is one frame's

	mu          sync.Mutex
	outstanding int   // leases received and not yet answered
	idleSince   int64 // tracer time the worker last ran out of leases
}

func newTracedConn(raw net.Conn, tr *tracer, root int, ws *wireStats, worker bool) *tracedConn {
	cc := &countingConn{Conn: raw, tr: tr, firstRead: -1}
	return &tracedConn{inner: fabric.NewCodecConn(cc), raw: cc, tr: tr, root: root, ws: ws, worker: worker, idleSince: tr.now()}
}

func (c *tracedConn) Send(f *fabric.Frame) error {
	c.sendMu.Lock()
	before := c.raw.written.Load()
	t0 := time.Now()
	sp := c.tr.start("fabric.send", c.root)
	err := c.inner.Send(f)
	c.tr.end(sp)
	d := time.Since(t0)
	n := c.raw.written.Load() - before
	c.sendMu.Unlock()
	c.ws.sent(f.Type, n, d)
	if c.worker && f.Type == fabric.TypeResult && err == nil {
		c.mu.Lock()
		c.outstanding--
		if c.outstanding == 0 {
			c.idleSince = c.tr.now()
		}
		c.mu.Unlock()
	}
	return err
}

func (c *tracedConn) Recv() (*fabric.Frame, error) {
	c.raw.firstRead = -1
	f, err := c.inner.Recv()
	end := c.tr.now()
	if c.raw.firstRead >= 0 {
		c.tr.add("fabric.recv", c.root, c.raw.firstRead, end)
	}
	if err == nil && c.worker && f.Type == fabric.TypeLease {
		c.mu.Lock()
		if c.outstanding == 0 {
			c.ws.waited(end - c.idleSince)
		}
		c.outstanding++
		c.mu.Unlock()
	}
	return f, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// SetRecvLimit keeps the codec's pre-handshake frame bound in force.
func (c *tracedConn) SetRecvLimit(n int) {
	if l, ok := c.inner.(interface{ SetRecvLimit(int) }); ok {
		l.SetRecvLimit(n)
	}
}

// tracedListener is the coordinator side of the traced transport.
type tracedListener struct {
	ln   net.Listener
	tr   *tracer
	root int
	ws   *wireStats
}

func (l *tracedListener) Accept() (fabric.Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, fabric.ErrListenerClosed
		}
		return nil, err
	}
	return newTracedConn(c, l.tr, l.root, l.ws, false), nil
}

func (l *tracedListener) Close() error { return l.ln.Close() }
func (l *tracedListener) Addr() string { return l.ln.Addr().String() }

// fabricArm accumulates one arm's traced campaigns.
type fabricArm struct {
	name     string
	relay    bool
	ws       wireStats
	stats    fabric.Stats
	rc       relayCounts
	chunks   int
	untraced []float64
}

// tracedCampaign runs one campaign over the traced transport under a root
// span, adding the evaluate and encode spans workers relayed (relay on).
func (b *bench) tracedCampaign(tr *tracer, arm *fabricArm, c faultsim.Campaign, ref faultsim.Result) {
	settle()
	root := tr.start("fabric.campaign."+arm.name, -1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.end(root)
		b.check("traced fabric campaign", err)
		return
	}
	addr := ln.Addr().String()
	dial := func(ctx context.Context) (fabric.Conn, error) {
		var d net.Dialer
		raw, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return newTracedConn(raw, tr, root, &arm.ws, true), nil
	}
	res, stats, rc, err := fabricCampaign(c, b.opts.workers, arm.relay, &tracedListener{ln: ln, tr: tr, root: root, ws: &arm.ws}, dial)
	tr.end(root)
	if err == nil {
		err = checkCampaign(res, ref, c.Trials)
	}
	b.check("traced fabric campaign relay="+arm.name, err)
	epochNS := tr.epoch.UnixNano()
	for _, s := range rc.remote {
		if s.Name == "evaluate" || s.Name == "encode" {
			start := s.StartUS*1000 - epochNS
			tr.add("worker."+s.Name, root, start, start+s.DurUS*1000)
		}
	}
	arm.stats.LeasesGranted += stats.LeasesGranted
	arm.stats.Reassigned += stats.Reassigned
	arm.stats.Duplicates += stats.Duplicates
	arm.rc.events += rc.events
	arm.rc.dropped += rc.dropped
	arm.rc.remote = append(arm.rc.remote, rc.remote...)
	arm.chunks += faultsim.NumChunks(c.Trials)
}

// layerValues returns the fabric-layer metrics of one arm, per campaign.
func (arm *fabricArm) layerValues(campaigns int) map[string]float64 {
	n := float64(max(campaigns, 1))
	chunks := float64(max(arm.chunks, 1))
	v := map[string]float64{
		"fabric.frames_per_chunk":     float64(arm.ws.frames) / chunks,
		"fabric.wire_bytes_per_chunk": float64(arm.ws.bytes) / chunks,
		"fabric.result_frame_bytes":   median(arm.ws.resultBytes),
		"fabric.send_us_p50":          median(arm.ws.sendUS),
		"fabric.recv_wait_s":          float64(arm.ws.waitNS) / 1e9 / n,
		"fabric.leases_granted":       float64(arm.stats.LeasesGranted) / n,
		"fabric.lease_useful_ratio":   float64(arm.chunks) / float64(max(arm.stats.LeasesGranted, 1)),
		"fabric.reassigned":           float64(arm.stats.Reassigned) / n,
		"fabric.duplicates":           float64(arm.stats.Duplicates) / n,
		"obs.bus_events":              float64(arm.rc.events) / n,
		"obs.bus_dropped":             float64(arm.rc.dropped) / n,
		"obs.remote_spans":            float64(len(arm.rc.remote)) / n,
	}
	return v
}

// traceFabric is the traced run of the fabric workload. The set-up
// integration and the local reference campaign are replayed layer by
// layer; then untraced and traced campaigns alternate, relay on and off.
// Per-layer metrics are the relay-on arm's; the relay-off arm's are
// printed beside them.
func (b *bench) traceFabric(sc *scenario, c faultsim.Campaign, ref faultsim.Result) error {
	setup := b.traceSetUp(sc)
	acc := &campaignCounts{}
	root := setup.start("campaign.reference", -1)
	got, err := replayCampaign(setup, root, c, acc)
	setup.end(root)
	if err == nil {
		err = checkCampaign(got, ref, c.Trials)
	}
	b.check("reference campaign replay", err)
	b.setCampaignLayers(attribute(setup.snapshot(), "campaign.reference"), acc)

	tr := newTracer()
	arms := []*fabricArm{{name: "relay", relay: true}, {name: "quiet", relay: false}}
	campaigns := 0
	dl := deadline(b.opts)
	for i := 0; i < 2 || time.Now().Before(dl); i++ {
		for _, arm := range arms {
			res, d, err := tcpCampaign(c, b.opts.workers, arm.relay)
			if err == nil {
				err = checkCampaign(res, ref, c.Trials)
			}
			b.check("fabric campaign relay="+arm.name, err)
			arm.untraced = append(arm.untraced, d)
			b.tracedCampaign(tr, arm, c, ref)
		}
		campaigns++
	}
	spans := tr.snapshot()
	var residual, overhead float64
	for _, arm := range arms {
		a := attribute(spans, "fabric.campaign."+arm.name)
		r, ov := b.table("fabric campaign, relay "+arm.name, a, arm.untraced,
			"layers run concurrently on the coordinator and every worker, so their sum can exceed the wall time; "+
				"the residual is wall time with no traced layer active")
		vals := arm.layerValues(campaigns)
		if arm.relay {
			residual, overhead = r, ov
			for k, v := range vals {
				b.set(k, v)
			}
			continue
		}
		fmt.Fprintln(b.out, "fabric layers, relay quiet (printed only):")
		for _, d := range perLayer {
			if v, ok := vals[d.name]; ok {
				b.show(d.name, v, d.unit, "")
			}
		}
	}
	return b.finishTrace(map[string]*tracer{"setup": setup, "fabric": tr}, residual, overhead)
}
