package fabric

// Worker-side telemetry relay. When the coordinator's campaign frame
// carries a trace id, the worker opens child spans for every chunk it
// computes — decode (grant receipt to compute start), evaluate (the
// chunk computation) and encode (result assembly) — and attaches the
// completed records, its liveness bus events and a small metric snapshot
// to the frames it was sending anyway. A nil *relay is the telemetry-off
// state: every method is a pointer comparison and nothing else, so the
// relay-disabled hot path allocates exactly as much as a fabric without
// federation (pinned by TestRelayOffZeroAlloc), and frames carry only zero-valued —
// hence wire-elided — telemetry fields.

import (
	"time"

	"repro/internal/obs"
)

// relaySpanBuf bounds the pending-span backlog between sends; results
// drain three spans per chunk, so the bound only matters to a worker
// whose coordinator stopped granting while frames still flow. Overflow
// is counted and dropped.
const relaySpanBuf = 256

// relayEventBuf bounds buffered liveness events the same way.
const relayEventBuf = 32

// relay holds the per-connection telemetry state of one worker session.
type relay struct {
	trace string

	spans        []obs.RemoteSpan
	spansDropped int

	events        []obs.BusEvent
	eventsDropped int

	// leaseRecv records the worker clock (unix µs) at grant receipt per
	// held lease: the decode span's start.
	leaseRecv map[uint64]int64

	// Clock echo: the most recent coordinator timestamp and the worker
	// clock when it arrived (for the hold-time measurement).
	echoTS int64
	recvAt int64
}

func nowUS() int64 { return time.Now().UnixMicro() }

// reset clears chunk-scoped state (pending spans, lease receipt times,
// the clock echo) at the start of a new connection; spans buffered on a
// dead connection belong to chunks the coordinator will reassign.
// Buffered liveness events survive — a retry storm between sessions is
// exactly what the relay should deliver once reconnected.
func (r *relay) reset() {
	if r == nil {
		return
	}
	r.spans = nil
	r.leaseRecv = map[uint64]int64{}
	r.echoTS, r.recvAt = 0, 0
}

// noteTS remembers a coordinator clock stamp for the next echo.
func (r *relay) noteTS(ts int64) {
	if r == nil || ts == 0 {
		return
	}
	r.echoTS, r.recvAt = ts, nowUS()
}

// leaseSeen records grant receipt time (the decode span start).
func (r *relay) leaseSeen(lease uint64) {
	if r == nil {
		return
	}
	if r.leaseRecv == nil {
		r.leaseRecv = map[uint64]int64{}
	}
	r.leaseRecv[lease] = nowUS()
}

// addSpan buffers one completed record, dropping on overflow.
func (r *relay) addSpan(rs obs.RemoteSpan) {
	if len(r.spans) >= relaySpanBuf {
		r.spansDropped++
		return
	}
	r.spans = append(r.spans, rs)
}

// chunkSpans records the three phase spans of one computed chunk. The
// parent span id is the lease id (the per-chunk context the grant frame
// carried); phase span ids derive from it so they are unique per grant
// without coordination.
func (r *relay) chunkSpans(lease, epoch uint64, chunk int, startUS, endUS int64) {
	if r == nil {
		return
	}
	recv := r.leaseRecv[lease]
	delete(r.leaseRecv, lease)
	if recv == 0 || recv > startUS {
		recv = startUS // grant receipt unseen (chaos reorder): zero-width decode
	}
	now := nowUS()
	r.addSpan(obs.RemoteSpan{
		Name: "decode", ID: lease*4 + 1, Parent: lease, Epoch: epoch,
		Chunk: chunk, StartUS: recv, DurUS: startUS - recv,
	})
	r.addSpan(obs.RemoteSpan{
		Name: "evaluate", ID: lease*4 + 2, Parent: lease, Epoch: epoch,
		Chunk: chunk, StartUS: startUS, DurUS: endUS - startUS,
	})
	r.addSpan(obs.RemoteSpan{
		Name: "encode", ID: lease*4 + 3, Parent: lease, Epoch: epoch,
		Chunk: chunk, StartUS: endUS, DurUS: now - endUS,
	})
}

// event buffers a worker liveness event for relay (drop-oldest).
func (r *relay) event(kind, name string, attrs map[string]any) {
	if r == nil {
		return
	}
	if len(r.events) >= relayEventBuf {
		copy(r.events, r.events[1:])
		r.events = r.events[:len(r.events)-1]
		r.eventsDropped++
	}
	r.events = append(r.events, obs.BusEvent{Kind: kind, Name: name, Attrs: attrs})
}

// stamp attaches the relay payload to an outbound worker frame: the
// clock echo, any pending spans and events (handed over as bounded,
// freshly-owned slices — transports may hold frame pointers past the
// send), and, on heartbeats, the metric snapshot.
func (r *relay) stamp(f *Frame, chunks int, heartbeat bool) {
	if r == nil {
		return
	}
	now := nowUS()
	f.WTS = now
	if r.echoTS != 0 {
		f.EchoTS = r.echoTS
		f.HoldUS = now - r.recvAt
	}
	if n := len(r.spans); n > 0 {
		if n <= maxFrameSpans {
			f.Spans = r.spans
			r.spans = nil
		} else {
			f.Spans = r.spans[:maxFrameSpans:maxFrameSpans]
			r.spans = append([]obs.RemoteSpan(nil), r.spans[maxFrameSpans:]...)
		}
	}
	if n := len(r.events); n > 0 {
		if n <= maxFrameEvents {
			f.Events = r.events
			r.events = nil
		} else {
			f.Events = r.events[:maxFrameEvents:maxFrameEvents]
			r.events = append([]obs.BusEvent(nil), r.events[maxFrameEvents:]...)
		}
	}
	if heartbeat {
		f.Meter = map[string]float64{
			"chunks_done":    float64(chunks),
			"spans_pending":  float64(len(r.spans)),
			"spans_dropped":  float64(r.spansDropped),
			"events_dropped": float64(r.eventsDropped),
		}
	}
}
