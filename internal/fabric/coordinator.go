package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// Config configures a campaign coordinator.
type Config struct {
	// Campaign is the campaign to shard. All merge-side features ride
	// along unchanged: CheckpointPath/Resume give crash-safe coordinator
	// restart on the v2 frontier format, StopHalfWidth gives Wald early
	// stopping, Span/Ledger report and record as in Run.
	// Used by Serve; ServeSearch runs one campaign per evaluation instead.
	Campaign faultsim.Campaign
	// Listener accepts worker connections; the coordinator owns it and
	// closes it on exit.
	Listener Listener
	// LeaseTTL is how long a granted chunk may go without a result or
	// heartbeat before it is reassigned (default 5s).
	LeaseTTL time.Duration
	// LeasesPerWorker bounds a worker's outstanding chunks (default 2):
	// one computing, one queued to hide the round trip.
	LeasesPerWorker int
	// MinWorkers is the admission quorum: until that many workers have
	// completed their handshake, no lease is granted and no local fallback
	// starts, so the first worker in cannot take the whole campaign
	// before the others arrive. 0 grants from the first handshake on.
	MinWorkers int
	// AuthToken, when non-empty, requires every worker to pass an
	// HMAC-SHA256 challenge-response proving it holds the same token
	// before any campaign material (fingerprint, spec, leases) is sent.
	// The matching worker setting is WorkerConfig.AuthToken.
	AuthToken string
	// SpotCheck is the fraction of returned chunks the coordinator
	// re-evaluates locally and compares byte-for-byte against the
	// worker's answer (0 disables). Selection is a pure function of
	// (SpotSeed, epoch, chunk index) — see SpotChecked — and every
	// worker's first chunk is always audited, so a worker that always
	// lies never contributes a byte to the merge. A divergent worker is
	// quarantined: dropped, its leases reassigned, its name barred from
	// rejoining, and the audited chunk's trusted local bytes merged.
	SpotCheck float64
	// SpotSeed seeds spot-check selection (default Campaign.Seed, or the
	// per-evaluation campaign seed under ServeSearch).
	SpotSeed uint64
	// Bus receives the fabric's own progress events — "fabric_worker"
	// (join/lost/drain), "fabric_lease" (grant/result/expire/duplicate),
	// "fabric_quarantine" (a worker failed a spot-check) and a final
	// "fabric_done" — alongside the campaign_* events Campaign.Span's
	// observer streams. Typically the same bus.
	Bus *obs.Bus
	// Label names the fabric in streamed events (default Campaign.Label,
	// then "campaign").
	Label string
	// Observer, when set, collects the span records workers relay back
	// (decode/evaluate/encode per chunk) into its remote-span store, so
	// its Chrome-trace export renders one merged multi-process timeline —
	// one lane per worker, timestamps rebased onto the coordinator clock.
	// Setting Bus or Observer switches telemetry federation on: campaign
	// frames carry a trace id, grants carry the parent span context, and
	// workers relay spans/events/metrics on the frames they already send.
	Observer *obs.Observer
	// StragglerFactor and StragglerMin tune straggler detection: a worker
	// whose chunk-latency p95 exceeds Factor × the fleet median of
	// per-worker p95s — each worker having delivered at least Min chunks,
	// with at least two workers reporting — is flagged once with a typed
	// fabric_straggler event. Defaults 3 and 8; zero values keep them.
	StragglerFactor float64
	StragglerMin    int
}

// Stats counts the fabric's fault-tolerance activity during one Serve —
// the observable evidence that leases expired, chunks were reassigned and
// duplicates were suppressed rather than double-counted.
type Stats struct {
	// WorkersSeen counts accepted handshakes; WorkersLost counts
	// connections that died while holding state.
	WorkersSeen int
	WorkersLost int
	// Rejected counts refused handshakes (protocol, fingerprint or
	// authentication failure, or a quarantined worker redialling).
	Rejected int
	// LeasesGranted counts every lease handed out, including re-grants of
	// reassigned chunks. LeasesExpired counts TTL expiries.
	LeasesGranted int
	LeasesExpired int
	// Reassigned counts chunks returned to the queue by expiry or worker
	// loss. Duplicates counts completed-chunk results that arrived again
	// (a slow worker finishing a reassigned chunk) and were suppressed.
	Reassigned int
	Duplicates int
	// Quarantined counts workers dropped for failing a spot-check.
	Quarantined int
	// LocalChunks counts chunks the coordinator computed itself after the
	// live worker set emptied (graceful degradation to local execution).
	LocalChunks int
	// Stragglers counts workers flagged by the straggler detector
	// (telemetry federation on only; see Config.StragglerFactor).
	Stragglers int
}

// lease is one granted chunk.
type lease struct {
	id       uint64
	seq      int // grid chunk index
	worker   *workerConn
	deadline time.Time
	// granted timestamps the grant for leased→resulted latency
	// attribution (telemetry only; zero when federation is off).
	granted time.Time
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	name    string
	conn    Conn
	out     chan *Frame
	joined  time.Time
	helloed bool
	closed  bool
	// Challenge-response state while authentication is in flight.
	authPending bool
	authNonce   string
	leases      map[uint64]*lease
	chunks      int // results delivered over this connection

	// Telemetry federation state, loop-owned like everything else here
	// (see telemetry.go). clockOff/rttBest hold the smallest-RTT clock
	// sample; lat is the chunk-latency ring feeding straggler detection.
	clockSet  bool
	clockSeen bool // first fabric_clock event published
	clockOff  int64
	rttBest   int64
	lat       []float64
	latPos    int
	latN      int
	straggler bool
}

// inbound is one reader-goroutine message into the coordinator loop.
type inbound struct {
	w   *workerConn
	f   *Frame
	err error
}

// localResult is one chunk the coordinator computed itself (fallback).
type localResult struct {
	seq int
	out *faultsim.ChunkOutput
	err error
}

// maxWorkerName bounds the worker-announced name the coordinator stores
// and republishes, so a hostile hello cannot inflate event payloads.
const maxWorkerName = 64

// maxRenewIDs bounds how many lease ids one heartbeat may renew; a
// legitimate worker holds LeasesPerWorker (default 2).
const maxRenewIDs = 1024

// Coordinator is a long-lived fabric coordinator: it owns the listener
// and the connected worker set, and runs campaigns over them one at a
// time. Serve wraps one campaign in one Coordinator; ServeSearch keeps a
// Coordinator alive across every evaluation of an adversarial search,
// bumping the campaign epoch and re-shipping the spec each time.
//
// Concurrency contract: Run and Close are caller-driven and must not
// overlap; all fabric state is owned by the single goroutine inside Run.
type Coordinator struct {
	cfg   Config
	label string

	// Per-epoch campaign state, rebuilt by each Run.
	merger   *faultsim.Merger
	runner   *faultsim.ChunkRunner
	spec     *faultsim.WireCampaign
	fp       string
	trials   int
	epoch    uint64
	spotSeed uint64
	runCtx   context.Context

	traceID string // run-scoped trace id ("" with telemetry off)

	totalChunks int
	mergeSeq    int // next chunk index to merge (frontier / ChunkSize)
	nextSeq     int // next never-granted chunk index
	requeue     []int
	completed   map[int]bool
	pending     map[int]*faultsim.ChunkOutput
	leased      map[int]*lease
	leases      map[uint64]*lease
	leaseID     uint64
	stopped     bool

	workers     map[*workerConn]struct{}
	quarantined map[string]bool
	writers     sync.WaitGroup // per-conn writer goroutines; Close waits for their flush
	stats       Stats

	inbox      chan inbound
	accepted   chan Conn
	localCh    chan localResult
	localBusy  bool
	done       chan struct{}
	acceptDone chan struct{}
	closeOnce  sync.Once
	ttl        time.Duration
	perWork    int
}

// NewCoordinator builds a coordinator over cfg.Listener and starts
// accepting connections. Callers must eventually Close it; Serve and
// ServeSearch do this bookkeeping for the two standard lifecycles.
func NewCoordinator(cfg Config) *Coordinator {
	label := cfg.Label
	if label == "" {
		label = cfg.Campaign.Label
	}
	if label == "" {
		label = "campaign"
	}
	co := &Coordinator{
		cfg:         cfg,
		label:       label,
		completed:   map[int]bool{},
		pending:     map[int]*faultsim.ChunkOutput{},
		leased:      map[int]*lease{},
		leases:      map[uint64]*lease{},
		workers:     map[*workerConn]struct{}{},
		quarantined: map[string]bool{},
		inbox:       make(chan inbound, 64),
		accepted:    make(chan Conn),
		done:        make(chan struct{}),
		acceptDone:  make(chan struct{}),
		ttl:         cfg.LeaseTTL,
		perWork:     cfg.LeasesPerWorker,
	}
	if co.ttl <= 0 {
		co.ttl = 5 * time.Second
	}
	if co.perWork <= 0 {
		co.perWork = 2
	}
	go func() {
		defer close(co.acceptDone)
		for {
			c, err := co.cfg.Listener.Accept()
			if err != nil {
				return
			}
			select {
			case co.accepted <- c:
			case <-co.done:
				c.Close()
				return
			}
		}
	}()
	return co
}

// Stats returns the counters accumulated so far. Call only while no Run
// is in flight (the loop goroutine owns them during a Run).
func (co *Coordinator) Stats() Stats { return co.stats }

// Close shuts the listener and every worker connection and waits for the
// writer goroutines to flush. Call after the final Run returns; it does
// not send any protocol verdict — use broadcast first for a clean
// done/drain.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() {
		close(co.done)
		co.cfg.Listener.Close()
		for w := range co.workers {
			co.closeWorker(w)
		}
		// Wait for every writer to flush its queue and close its conn.
		// The caller may exit the process immediately on return; an
		// unflushed writer would strand the final done/drain verdicts in
		// memory, leaving TCP workers redialling a coordinator that no
		// longer exists. Queued frames are small (verdicts, leases), so
		// the flush cannot block on socket buffers in practice.
		co.writers.Wait()
		<-co.acceptDone
	})
	return nil
}

// broadcast sends a terminal verdict frame to every welcomed worker and
// publishes the matching liveness state. Call between Run and Close.
func (co *Coordinator) broadcast(frameType, state string) {
	for w := range co.workers {
		co.send(w, &Frame{Type: frameType})
		co.publishWorker(w, state)
	}
}

// Serve runs the coordinator until the campaign completes, the merge
// fails, or ctx is cancelled (graceful drain: workers get a drain frame,
// the frontier checkpoint is persisted when configured, and the
// cancellation error is returned). The returned Result is DeepEqual-
// identical to faultsim.Run with Workers=1 on the same Campaign, for any
// number of workers, under any transport chaos and with any subset of
// workers lying (given SpotCheck > 0), because chunks merge strictly in
// grid order and a chunk's content is a pure function of
// (campaign, bounds).
func Serve(ctx context.Context, cfg Config) (faultsim.Result, Stats, error) {
	co := NewCoordinator(cfg)
	res, err := co.Run(ctx, cfg.Campaign)
	if err == nil {
		co.broadcast(TypeDone, "done")
	}
	co.Close()
	return res, co.stats, err
}

// Run shards one campaign over the connected worker set and blocks until
// it completes, the merge fails, or ctx is cancelled. Each Run is one
// campaign epoch: the spec is shipped to every connected worker, and
// leases/results from other epochs are ignored. On success the workers
// are left connected and idle, ready for the next Run (ServeSearch's
// loop); the caller broadcasts the final done/drain verdict.
func (co *Coordinator) Run(ctx context.Context, c faultsim.Campaign) (faultsim.Result, error) {
	merger, err := faultsim.NewMerger(c, 0)
	if err != nil {
		return faultsim.Result{}, err
	}
	runner, err := faultsim.NewChunkRunner(c)
	if err != nil {
		return faultsim.Result{}, err
	}
	spec, err := faultsim.NewWireCampaign(c)
	if err != nil {
		return faultsim.Result{}, err
	}
	co.epoch++
	co.merger, co.runner, co.spec = merger, runner, spec
	co.fp = c.Fingerprint()
	co.trials = c.Trials
	co.spotSeed = co.cfg.SpotSeed
	if co.spotSeed == 0 {
		co.spotSeed = c.Seed
	}
	co.traceID = ""
	if co.telemetry() {
		// Deterministic, run-scoped: campaign fingerprint prefix + epoch.
		fp := co.fp
		if len(fp) > 12 {
			fp = fp[:12]
		}
		co.traceID = fmt.Sprintf("%s-e%d", fp, co.epoch)
	}
	co.totalChunks = faultsim.NumChunks(co.trials)
	co.mergeSeq = faultsim.ChunkIndex(merger.Frontier())
	if merger.Frontier() >= co.trials {
		co.mergeSeq = co.totalChunks
	}
	co.nextSeq = co.mergeSeq
	co.requeue = nil
	co.completed = map[int]bool{}
	co.pending = map[int]*faultsim.ChunkOutput{}
	co.leased = map[int]*lease{}
	co.leases = map[uint64]*lease{}
	co.stopped = false
	co.localCh = make(chan localResult, 1)
	co.localBusy = false
	for w := range co.workers {
		w.leases = map[uint64]*lease{}
	}

	// A resumed-complete campaign has nothing to shard.
	if co.mergeSeq >= co.totalChunks {
		res := co.merger.Finish()
		co.publishDone(res)
		return res, nil
	}

	// Ship the new epoch to everyone already connected.
	for w := range co.workers {
		if w.helloed {
			co.sendCampaign(w)
			co.grant(w)
		}
	}
	return co.loop(ctx)
}

// loop is the single-goroutine event loop owning all fabric state for
// one campaign epoch.
func (co *Coordinator) loop(ctx context.Context) (faultsim.Result, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	co.runCtx = runCtx
	tick := time.NewTicker(co.tickEvery())
	defer tick.Stop()
	for {
		if co.mergeSeq >= co.totalChunks || co.stopped {
			res := co.merger.Finish()
			co.publishDone(res)
			return res, nil
		}
		co.maybeLocal()
		select {
		case c := <-co.accepted:
			co.admit(c)
		case in := <-co.inbox:
			if _, live := co.workers[in.w]; !live {
				continue // stale message from an already-dropped worker
			}
			if in.err != nil {
				co.dropWorker(in.w, "lost")
				continue
			}
			if fatal := co.handle(in.w, in.f); fatal != nil {
				return faultsim.Result{}, fatal
			}
		case lr := <-co.localCh:
			co.localBusy = false
			if lr.err != nil {
				if runCtx.Err() != nil {
					continue // cancelled mid-chunk; ctx.Done() exits the loop
				}
				return faultsim.Result{}, lr.err
			}
			co.stats.LocalChunks++
			if fatal := co.acceptChunk(nil, 0, lr.seq, lr.out); fatal != nil {
				return faultsim.Result{}, fatal
			}
		case <-tick.C:
			co.expireLeases()
			co.sweepHandshakes()
		case <-ctx.Done():
			// Graceful drain: notify workers, persist the frontier, exit.
			co.broadcast(TypeDrain, "drain")
			return faultsim.Result{}, co.merger.Abort(ctx.Err())
		}
	}
}

// tickEvery is the lease-expiry scan interval: a quarter TTL, floored so
// tiny test TTLs do not busy-spin.
func (co *Coordinator) tickEvery() time.Duration {
	t := co.ttl / 4
	if t < 5*time.Millisecond {
		t = 5 * time.Millisecond
	}
	return t
}

// handshakeWindow is how long an accepted connection may sit without
// completing its handshake before it is cut off — the read deadline that
// keeps a stalled or hostile dialer from holding coordinator state.
func (co *Coordinator) handshakeWindow() time.Duration {
	if co.ttl > time.Second {
		return co.ttl
	}
	return time.Second
}

// admit starts the reader/writer goroutines of a fresh connection. The
// worker holds no state until its handshake passes, its inbound frames
// are size-capped, and sweepHandshakes cuts it off if the handshake
// stalls.
func (co *Coordinator) admit(c Conn) {
	if rl, ok := c.(recvLimiter); ok {
		rl.SetRecvLimit(preAuthFrameSize)
	}
	w := &workerConn{conn: c, out: make(chan *Frame, 64), joined: time.Now(), leases: map[uint64]*lease{}}
	co.workers[w] = struct{}{}
	co.writers.Add(1)
	go func() { // writer: drains out, then closes the conn
		defer co.writers.Done()
		for f := range w.out {
			_ = c.Send(f)
		}
		c.Close()
	}()
	go func() { // reader: pumps frames into the loop until the conn dies
		for {
			f, err := c.Recv()
			select {
			case co.inbox <- inbound{w: w, f: f, err: err}:
			case <-co.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// sweepHandshakes drops connections that have not completed their
// handshake within the window.
func (co *Coordinator) sweepHandshakes() {
	cutoff := time.Now().Add(-co.handshakeWindow())
	for w := range co.workers {
		if !w.helloed && w.joined.Before(cutoff) {
			co.dropWorker(w, "handshake timeout")
		}
	}
}

// send enqueues one frame for w without ever blocking the loop; a worker
// whose writer queue is jammed is treated as lost.
func (co *Coordinator) send(w *workerConn, f *Frame) {
	select {
	case w.out <- f:
	default:
		co.dropWorker(w, "lost")
	}
}

// closeWorker shuts the worker's writer (flushing queued frames, then
// closing the conn). Idempotent.
func (co *Coordinator) closeWorker(w *workerConn) {
	if !w.closed {
		w.closed = true
		close(w.out)
	}
}

// dropWorker removes w and requeues its leases for reassignment.
func (co *Coordinator) dropWorker(w *workerConn, state string) {
	if _, live := co.workers[w]; !live {
		return
	}
	delete(co.workers, w)
	if w.helloed {
		co.stats.WorkersLost++
		co.publishWorker(w, state)
	}
	for id, l := range w.leases {
		delete(co.leases, id)
		delete(co.leased, l.seq)
		if !co.completed[l.seq] {
			co.requeue = append(co.requeue, l.seq)
			co.stats.Reassigned++
			co.publishLease(l, "reassign")
		}
	}
	co.closeWorker(w)
}

// handle processes one frame; a non-nil return is a fatal merge error.
func (co *Coordinator) handle(w *workerConn, f *Frame) error {
	switch f.Type {
	case TypeHello:
		if w.helloed || w.authPending {
			return nil // duplicated hello frame (chaos): already in progress
		}
		if f.Proto != Proto {
			co.reject(w, fmt.Sprintf("protocol version %d, want %d", f.Proto, Proto))
			return nil
		}
		name := f.Worker
		if len(name) > maxWorkerName {
			name = name[:maxWorkerName]
		}
		if name == "" {
			name = fmt.Sprintf("w%d", co.stats.WorkersSeen+1)
		}
		if co.quarantined[name] {
			co.reject(w, "worker quarantined")
			return nil
		}
		if co.cfg.AuthToken != "" {
			// Authenticated handshake: challenge first; the campaign
			// fingerprint is deferred to the worker's auth frame, so a
			// peer that cannot answer learns nothing about the campaign.
			nonce, err := newNonce()
			if err != nil {
				co.reject(w, "authentication unavailable")
				return nil
			}
			w.authPending = true
			w.authNonce = nonce
			w.name = name
			co.send(w, &Frame{Type: TypeChallenge, Nonce: nonce, MAC: signNonce(co.cfg.AuthToken, f.Nonce)})
			return nil
		}
		if bad, reason := co.fingerprintMismatch(f.Fingerprint); bad {
			co.reject(w, reason)
			return nil
		}
		co.welcome(w, name)
	case TypeAuth:
		if !w.authPending || w.helloed {
			return nil // stray or duplicated auth frame
		}
		if !verifyMAC(co.cfg.AuthToken, w.authNonce, f.MAC) {
			co.reject(w, "authentication failed")
			return nil
		}
		w.authPending = false
		if bad, reason := co.fingerprintMismatch(f.Fingerprint); bad {
			co.reject(w, reason)
			return nil
		}
		co.welcome(w, w.name)
	case TypeNeedCampaign:
		if w.helloed && co.merger != nil {
			co.sendCampaign(w)
		}
	case TypeHeartbeat:
		co.renew(w, f.Leases)
		co.telemetryIn(w, f)
	case TypeResult:
		if !w.helloed {
			return nil
		}
		co.renew(w, f.Leases)
		// Telemetry rides the result frame and is absorbed before the
		// result itself: the spans of an accepted chunk land exactly once,
		// and a duplicate's spans are rejected by the same completed-chunk
		// test that suppresses the duplicate (see absorbSpans).
		co.telemetryIn(w, f)
		if f.Epoch != co.epoch {
			return nil // stale epoch: result of a previous Run
		}
		if err := co.result(w, f); err != nil {
			return err
		}
		co.grant(w)
	}
	return nil
}

// fingerprintMismatch checks a worker-announced campaign fingerprint
// against the current epoch's. An empty announcement is a flagless
// worker — it configures from the shipped spec, nothing to compare.
func (co *Coordinator) fingerprintMismatch(fp string) (bool, string) {
	if fp == "" || co.merger == nil || fp == co.fp {
		return false, ""
	}
	return true, fmt.Sprintf("campaign fingerprint %s, want %s", fp, co.fp)
}

// welcome completes a handshake: the worker becomes eligible for leases
// and, in the same breath, receives the current campaign spec.
func (co *Coordinator) welcome(w *workerConn, name string) {
	w.helloed = true
	w.name = name
	co.stats.WorkersSeen++
	if rl, ok := w.conn.(recvLimiter); ok {
		rl.SetRecvLimit(maxFrameSize)
	}
	co.send(w, &Frame{Type: TypeWelcome, Trials: co.trials, Worker: w.name})
	co.publishWorker(w, "join")
	if co.merger == nil {
		return
	}
	co.sendCampaign(w)
	if co.stats.WorkersSeen != co.cfg.MinWorkers {
		co.grant(w)
		return
	}
	// This handshake completed the quorum: everyone waiting gets work.
	for x := range co.workers {
		co.grant(x)
	}
}

// sendCampaign ships the current epoch's encoded campaign spec (plus the
// trace id and a clock stamp when telemetry federation is on).
func (co *Coordinator) sendCampaign(w *workerConn) {
	co.send(w, co.stampTS(&Frame{
		Type:        TypeCampaign,
		Epoch:       co.epoch,
		Fingerprint: co.fp,
		Trials:      co.trials,
		Spec:        co.spec,
		Trace:       co.traceID,
	}))
}

// reject refuses a handshake and discards the connection.
func (co *Coordinator) reject(w *workerConn, reason string) {
	co.stats.Rejected++
	co.send(w, &Frame{Type: TypeReject, Reason: reason})
	delete(co.workers, w)
	co.closeWorker(w)
}

// renew pushes the deadlines of the leases the worker says it holds out
// by one TTL. Leases the worker does not list — its grant frame was lost
// in transit — are left to expire on schedule so they get reassigned;
// renewing blindly on any sign of life would keep a lost grant alive for
// as long as the worker heartbeats. The list is capped: a legitimate
// worker holds LeasesPerWorker leases, so anything past maxRenewIDs is a
// hostile payload, not a renewal.
func (co *Coordinator) renew(w *workerConn, ids []uint64) {
	if len(ids) > maxRenewIDs {
		ids = ids[:maxRenewIDs]
	}
	deadline := time.Now().Add(co.ttl)
	for _, id := range ids {
		if l, ok := w.leases[id]; ok {
			l.deadline = deadline
		}
	}
}

// quorate reports whether Config.MinWorkers workers have been welcomed.
func (co *Coordinator) quorate() bool { return co.stats.WorkersSeen >= co.cfg.MinWorkers }

// grant hands w chunks until it holds LeasesPerWorker, preferring
// reassigned chunks over fresh ones. Nothing is granted before quorum.
func (co *Coordinator) grant(w *workerConn) {
	for co.quorate() && !co.stopped && w.helloed && !w.closed && len(w.leases) < co.perWork {
		seq, ok := co.nextChunk()
		if !ok {
			return
		}
		co.leaseID++
		now := time.Now()
		l := &lease{id: co.leaseID, seq: seq, worker: w, deadline: now.Add(co.ttl), granted: now}
		co.leases[l.id] = l
		co.leased[seq] = l
		w.leases[l.id] = l
		begin, end := faultsim.ChunkBounds(seq, co.trials)
		co.stats.LeasesGranted++
		co.send(w, co.stampTS(&Frame{Type: TypeLease, Lease: l.id, Epoch: co.epoch, Begin: begin, End: end}))
		co.publishLease(l, "grant")
	}
}

// nextChunk picks the next chunk needing an owner: reassignments first
// (skipping any that completed while queued), then the fresh frontier.
func (co *Coordinator) nextChunk() (int, bool) {
	for len(co.requeue) > 0 {
		seq := co.requeue[0]
		co.requeue = co.requeue[1:]
		if !co.completed[seq] && seq >= co.mergeSeq && co.leased[seq] == nil {
			return seq, true
		}
	}
	if co.nextSeq < co.totalChunks {
		seq := co.nextSeq
		co.nextSeq++
		return seq, true
	}
	return 0, false
}

// liveWorkers counts welcomed, still-connected workers.
func (co *Coordinator) liveWorkers() int {
	n := 0
	for w := range co.workers {
		if w.helloed {
			n++
		}
	}
	return n
}

// maybeLocal starts one local chunk computation when the fabric has
// degraded to zero live workers (all lost or quarantined) while work
// remains — the graceful-degradation path: the campaign completes as a
// plain local run instead of stalling. One chunk at a time keeps the
// loop responsive to workers rejoining.
func (co *Coordinator) maybeLocal() {
	if co.localBusy || co.stopped || co.merger == nil {
		return
	}
	if co.stats.WorkersSeen == 0 || !co.quorate() || co.liveWorkers() > 0 {
		return
	}
	seq, ok := co.nextChunk()
	if !ok {
		return
	}
	co.localBusy = true
	begin, end := faultsim.ChunkBounds(seq, co.trials)
	co.publishLease(&lease{seq: seq}, "local")
	runner, ctx, ch := co.runner, co.runCtx, co.localCh
	go func() {
		out, err := runner.Run(ctx, begin, end)
		ch <- localResult{seq: seq, out: out, err: err} // buffered; never blocks
	}()
}

// expireLeases reassigns chunks whose lease outlived its TTL. The slow
// worker stays connected — if its result still arrives first it is
// accepted (the content is deterministic), and if it arrives after the
// reassigned copy it is suppressed as a duplicate.
func (co *Coordinator) expireLeases() {
	now := time.Now()
	for id, l := range co.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(co.leases, id)
		delete(l.worker.leases, id)
		delete(co.leased, l.seq)
		co.stats.LeasesExpired++
		co.publishLease(l, "expire")
		if !co.completed[l.seq] {
			co.requeue = append(co.requeue, l.seq)
			co.stats.Reassigned++
		}
		co.grant(l.worker)
	}
}

// result accepts one chunk result: validates its bounds, suppresses
// duplicates, audits it when spot-check selection says so, then merges
// every contiguous pending chunk in grid order.
func (co *Coordinator) result(w *workerConn, f *Frame) error {
	if f.Chunk == nil {
		return nil
	}
	wantB, wantE := faultsim.ChunkBounds(faultsim.ChunkIndex(f.Begin), co.trials)
	if f.Begin != wantB || f.End != wantE || f.Chunk.Begin != f.Begin || f.Chunk.End != f.End {
		return nil // malformed bounds: ignore; the lease will expire
	}
	seq := faultsim.ChunkIndex(f.Begin)
	if seq < co.mergeSeq || co.completed[seq] {
		co.stats.Duplicates++
		co.publishLease(&lease{seq: seq, worker: w}, "duplicate")
		return nil
	}
	if co.cfg.SpotCheck > 0 && (w.chunks == 0 || SpotChecked(co.spotSeed, co.epoch, seq, co.cfg.SpotCheck)) {
		local, err := co.runner.Run(co.runCtx, wantB, wantE)
		if err != nil {
			if co.runCtx.Err() != nil {
				return nil // cancelled mid-audit; ctx.Done() exits the loop
			}
			return err
		}
		if !chunkEqual(local, f.Chunk) {
			// The worker lied. Quarantine it (dropWorker requeues its
			// leases, including this chunk's) and merge the trusted
			// locally-computed bytes instead — the audit already paid for
			// them.
			co.quarantine(w, wantB, wantE)
			return co.acceptChunk(nil, 0, seq, local)
		}
	}
	w.chunks++
	return co.acceptChunk(w, f.Lease, seq, f.Chunk)
}

// acceptChunk records one trusted chunk (from a worker, a spot-check
// re-evaluation, or the local fallback) and merges every contiguous
// pending chunk in grid order.
func (co *Coordinator) acceptChunk(w *workerConn, leaseID uint64, seq int, out *faultsim.ChunkOutput) error {
	// Leased→resulted latency of the delivering worker's own grant,
	// measured before the release below discards the lease. Feeds the
	// per-worker histograms and the straggler detector (telemetry only).
	latMS := -1.0
	if w != nil && co.telemetry() {
		if l, ok := w.leases[leaseID]; ok && l.seq == seq && !l.granted.IsZero() {
			latMS = float64(time.Since(l.granted)) / float64(time.Millisecond)
		}
	}
	// Release whichever lease covers the chunk — possibly another
	// worker's, when the chunk was reassigned and the first owner won.
	if l := co.leased[seq]; l != nil {
		delete(co.leases, l.id)
		delete(l.worker.leases, l.id)
		delete(co.leased, seq)
	}
	if w != nil {
		if l, ok := w.leases[leaseID]; ok && l.seq == seq {
			delete(co.leases, l.id)
			delete(w.leases, l.id)
		}
	}
	co.completed[seq] = true
	co.pending[seq] = out
	if latMS >= 0 {
		co.publishLease(&lease{id: leaseID, seq: seq, worker: w}, "result", obs.Float("latency_ms", latMS))
		co.observeLatency(w, latMS)
	} else {
		co.publishLease(&lease{id: leaseID, seq: seq, worker: w}, "result")
	}
	for !co.stopped {
		out, ok := co.pending[co.mergeSeq]
		if !ok {
			break
		}
		delete(co.pending, co.mergeSeq)
		stop, err := co.merger.Absorb(out)
		if err != nil {
			return err
		}
		co.mergeSeq++
		// The dup-suppression set only needs entries at or above the merge
		// frontier (anything below is caught by the seq < mergeSeq test);
		// pruning as the frontier advances keeps it bounded by the
		// in-flight window instead of the campaign size.
		delete(co.completed, co.mergeSeq-1)
		if stop {
			// Early stopping: discard speculative chunks beyond the
			// stopping frontier, exactly as the in-process pool does.
			co.stopped = true
			co.pending = map[int]*faultsim.ChunkOutput{}
		}
	}
	return nil
}

// quarantine drops a worker whose chunk bytes diverged from the local
// re-evaluation and bars its name from rejoining this coordinator.
func (co *Coordinator) quarantine(w *workerConn, begin, end int) {
	co.stats.Quarantined++
	co.quarantined[w.name] = true
	if co.cfg.Bus != nil {
		co.cfg.Bus.Publish("fabric_quarantine", w.name,
			obs.String("campaign", co.label),
			obs.Int("begin", begin),
			obs.Int("end", end),
			obs.Int("chunks_done", w.chunks))
	}
	co.dropWorker(w, "quarantined")
}

// chunkEqual compares two chunk outputs byte-for-byte via their
// canonical JSON encoding — the same bytes the merge consumes.
func chunkEqual(a, b *faultsim.ChunkOutput) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// publishWorker emits a "fabric_worker" liveness event.
func (co *Coordinator) publishWorker(w *workerConn, state string) {
	if co.cfg.Bus == nil {
		return
	}
	co.cfg.Bus.Publish("fabric_worker", w.name,
		obs.String("state", state),
		obs.String("campaign", co.label),
		obs.Int("leases", len(w.leases)),
		obs.Int("chunks_done", w.chunks))
}

// publishLease emits a "fabric_lease" churn event (extra carries
// state-specific attributes, e.g. latency_ms on results).
func (co *Coordinator) publishLease(l *lease, state string, extra ...obs.Attr) {
	if co.cfg.Bus == nil {
		return
	}
	begin, end := faultsim.ChunkBounds(l.seq, co.trials)
	name := ""
	if l.worker != nil {
		name = l.worker.name
	}
	attrs := append([]obs.Attr{
		obs.String("state", state),
		obs.String("worker", name),
		obs.Int("lease", int(l.id)),
		obs.Int("begin", begin),
		obs.Int("end", end),
	}, extra...)
	co.cfg.Bus.Publish("fabric_lease", co.label, attrs...)
}

// publishDone emits the terminal "fabric_done" event.
func (co *Coordinator) publishDone(res faultsim.Result) {
	if co.cfg.Bus == nil {
		return
	}
	co.cfg.Bus.Publish("fabric_done", co.label,
		obs.Int("trials_done", res.Trials),
		obs.Int("workers_seen", co.stats.WorkersSeen),
		obs.Int("workers_lost", co.stats.WorkersLost),
		obs.Int("leases_granted", co.stats.LeasesGranted),
		obs.Int("leases_expired", co.stats.LeasesExpired),
		obs.Int("reassigned", co.stats.Reassigned),
		obs.Int("duplicates", co.stats.Duplicates),
		obs.Int("quarantined", co.stats.Quarantined),
		obs.Int("local_chunks", co.stats.LocalChunks),
		obs.Int("stragglers", co.stats.Stragglers),
		obs.Bool("early_stopped", res.EarlyStopped))
}
