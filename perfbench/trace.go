package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// maxSpans bounds the in-memory span log of one traced run. Aggregates
// (counts and summed durations) stay exact past it; only the raw log stops.
const maxSpans = 1 << 17

// span is one timed interval: a call into a layer made at a seam the
// benchmark owns, or one of the benchmark's own calls. Cause is the ID of
// the span that caused it, and Op the unit op it belongs to, when the
// benchmark knows them; spans fired on the stack's own goroutines carry
// neither and are attributed by layer only.
type span struct {
	ID    uint32 `json:"id"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes,omitempty"`
	Cause uint32 `json:"cause,omitempty"`
	Op    uint32 `json:"op,omitempty"`
}

// acc accumulates one span name's calls, items (packets, bytes) and time.
type acc struct {
	calls, items, bytes, ns atomic.Int64
}

func (a *acc) add(items, bytes int, d time.Duration) {
	a.calls.Add(1)
	a.items.Add(int64(items))
	a.bytes.Add(int64(bytes))
	a.ns.Add(int64(d))
}

func (a *acc) reset() {
	a.calls.Store(0)
	a.items.Store(0)
	a.bytes.Store(0)
	a.ns.Store(0)
}

// Span names. Each is the layer the span times, then the call.
const (
	spTransportSend  = iota // kernel socket send (DATA or plain datagram)
	spTransportAck          // kernel socket send of an rudp ACK
	spTransportRecv         // kernel socket receive (includes waiting)
	spTransportOpen         // ListenUDP for a sockif socket
	spTransportClose        // kernel endpoint Close
	spSimnetSend            // simnet datagram send
	spSimnetAck             // simnet send of an rudp ACK
	spSimnetRecv            // simnet datagram receive (includes waiting)
	spSimnetClose           // simnet endpoint Close
	spStreamWrite           // simnet stream Write (MPA's output)
	spStreamRead            // simnet stream Read (includes waiting)
	spRudpRecvWork          // rudp's receive loop between two lower receive calls
	spRudpSend              // rudp SendTo, child sends included
	spRudpRecv              // rudp Recv (includes waiting)
	spMsgSend               // msg.Send
	spMsgSendRdv            // msg.Send of a rendezvous-size message
	spCorePost              // RCQP PostWrite + PostSend of one op
	spCQWait                // CQ.Poll on the notify path
	spSockSocket            // sockif.Interface.Socket
	spSockClose             // sockif.Socket.Close
	spSockRecvFrom          // server RecvFrom
	spSipCall               // sip.Client.Call
	spScrape                // telemetry.Default scrape
	spOp                    // one unit op, start to verified delivery
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"transport.send", "transport.send_ack", "transport.recv", "transport.open",
	"transport.close", "simnet.send", "simnet.send_ack", "simnet.recv",
	"simnet.close", "simnet.stream_write", "simnet.stream_read", "rudp.recv_work",
	"rudp.send", "rudp.recv", "msg.send", "msg.send_rdv", "core.post",
	"core.cq_wait", "sockif.socket", "sockif.close", "sockif.recvfrom",
	"sip.call", "telemetry.scrape", "op",
}

// tracer records spans in memory for the traced run. A nil *tracer is the
// untraced run: every method is a no-op and no seam wrapper is installed.
type tracer struct {
	base  time.Time
	t0    atomic.Int64 // start of the timed phase, ns after base
	accs  [numSpanNames]acc
	next  atomic.Uint32
	spans []span
	// errors counts seam calls that failed other than by timing out or
	// by the endpoint having been closed.
	errors atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, maxSpans)}
}

// reset zeroes the aggregates at the start of the timed phase, so set-up
// and warm-up traffic is not attributed to it. The span log keeps them;
// span times are relative to the phase start, so theirs are negative.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	for i := range t.accs {
		t.accs[i].reset()
	}
	t.t0.Store(time.Since(t.base).Nanoseconds())
}

// record adds one span and returns its ID (0 when untraced).
func (t *tracer) record(name int, start time.Time, items, bytes int, cause, op uint32) uint32 {
	if t == nil {
		return 0
	}
	end := time.Now()
	t.accs[name].add(items, bytes, end.Sub(start))
	id := t.next.Add(1)
	if int(id) <= len(t.spans) {
		t0 := t.t0.Load()
		t.spans[id-1] = span{
			ID: id, Name: spanNames[name],
			Start: start.Sub(t.base).Nanoseconds() - t0, End: end.Sub(t.base).Nanoseconds() - t0,
			Bytes: bytes, Cause: cause, Op: op,
		}
	}
	return id
}

// callErr counts err unless it is a receive timeout or a closed endpoint.
func (t *tracer) callErr(err error) {
	if err != nil && !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, transport.ErrClosed) {
		t.errors.Add(1)
	}
}

// addGap charges d to name without logging a span: the work a layer did
// between two receive calls on its own goroutine.
func (t *tracer) addGap(name int, d time.Duration) {
	if t != nil {
		t.accs[name].add(1, 0, d)
	}
}

func (t *tracer) calls(name int) float64 { return float64(t.accs[name].calls.Load()) }
func (t *tracer) items(name int) float64 { return float64(t.accs[name].items.Load()) }
func (t *tracer) bytes(name int) float64 { return float64(t.accs[name].bytes.Load()) }
func (t *tracer) ns(name int) float64    { return float64(t.accs[name].ns.Load()) }

// meanUS is the mean duration of one name's spans in microseconds.
func (t *tracer) meanUS(name int) float64 { return ratio(t.ns(name)/1e3, t.calls(name)) }

// write dumps the span log as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(int(t.next.Load()), len(t.spans))
	for i := 0; i < n; i++ {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
