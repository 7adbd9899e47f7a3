package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// The tensor workloads: two msg endpoints in a bidirectional ring, one
// sender goroutine each, sending tensors from a seeded size mix as fast as
// msg's credit and rendezvous backpressure allow (a closed loop). A unit op
// is one tensor delivered to the peer's handler and verified there; its
// latency runs from the Send call to that verification.

const (
	// tensorHdr is the tensor preamble: sender (4), sequence (4) and
	// prepared-tensor index (4). The rest is seeded content.
	tensorHdr = 12
	// tensorVariants is how many distinct contents each sender prepares
	// per size class.
	tensorVariants = 8
	// schedLen is the length of each sender's seeded tensor schedule,
	// replayed cyclically. It also sizes the send-time ring, so it must
	// exceed the ops one sender can have in flight (msg's eager window).
	schedLen = 8192
	// tensorLoss is tensor-loss's per-fragment Bernoulli loss rate.
	tensorLoss = 0.001
	// drainTimeout bounds the wait for in-flight tensors after the phase.
	drainTimeout = 30 * time.Second
)

// tensorClasses spans msg's eager path (64 B, 4 KiB) and its rendezvous
// Write-Record path (256 KiB, 1 MiB; the default threshold is 16 KiB).
// The weights put p50 inside the 4 KiB class and p99 inside the 1 MiB one.
var tensorClasses = []struct {
	size   int
	weight float64
}{{64, 0.35}, {4 << 10, 0.35}, {256 << 10, 0.2}, {1 << 20, 0.1}}

// tensorInputs is everything the generator derives from the seed.
type tensorInputs struct {
	bufs  [2][][]byte // per sender: prepared tensors, header stamped but for the sequence
	sched [2][]uint16 // per sender: index into bufs for sequence mod schedLen
}

func genTensors(seed int64) *tensorInputs {
	r := rand.New(rand.NewSource(seed))
	in := &tensorInputs{}
	for s := range in.bufs {
		for _, cl := range tensorClasses {
			for v := 0; v < tensorVariants; v++ {
				b := make([]byte, cl.size)
				r.Read(b[tensorHdr:])
				binary.BigEndian.PutUint32(b[0:4], uint32(s))
				binary.BigEndian.PutUint32(b[8:12], uint32(len(in.bufs[s])))
				in.bufs[s] = append(in.bufs[s], b)
			}
		}
		in.sched[s] = make([]uint16, schedLen)
		for i := range in.sched[s] {
			c, f := 0, r.Float64()
			for c < len(tensorClasses)-1 && f >= tensorClasses[c].weight {
				f -= tensorClasses[c].weight
				c++
			}
			in.sched[s][i] = uint16(c*tensorVariants + r.Intn(tensorVariants))
		}
	}
	return in
}

func prepareTensorUDP(seed int64) opener {
	in := genTensors(seed)
	return func(tr *tracer) (instance, error) {
		return openTensors(in, tr, func(i int) (transport.Datagram, seamNames, error) {
			ep, err := transport.ListenUDP("127.0.0.1", 0)
			return ep, kernelSeam, err
		})
	}
}

func prepareTensorLoss(seed int64) opener {
	in := genTensors(seed)
	return func(tr *tracer) (instance, error) {
		net := simnet.New(simnet.Config{LossRate: tensorLoss, Seed: seed})
		ts, err := openTensors(in, tr, func(i int) (transport.Datagram, seamNames, error) {
			ep, err := net.OpenDatagram(fmt.Sprintf("t%d", i), 1)
			return ep, simnetSeam, err
		})
		if err == nil {
			ts.net = net
		}
		return ts, err
	}
}

// tensorStack is one set-up ring: endpoint i receives sender 1-i's tensors.
type tensorStack struct {
	in   *tensorInputs
	tr   *tracer
	net  *simnet.Network // nil over kernel UDP
	llp  [2]*rudp.Endpoint
	eps  [2]*msg.Endpoint
	to   [2]transport.Addr // sender s's destination
	rx   [2]*tensorRx      // state of sender s's tensors at the receiver
	next [2]uint32         // sender s's next sequence number
}

// tensorRx verifies one sender's tensors at the receiver.
type tensorRx struct {
	sentAt [schedLen]atomic.Int64 // mono() at Send, by sequence mod schedLen

	mu        sync.Mutex
	ph        phase
	first     uint32   // first sequence of the current phase
	seen      []uint64 // bitset of delivered sequences since first
	delivered int64
	last      int64 // mono() of the latest delivery
}

func openTensors(in *tensorInputs, tr *tracer, base func(i int) (transport.Datagram, seamNames, error)) (*tensorStack, error) {
	ts := &tensorStack{in: in, tr: tr}
	for i := range ts.eps {
		ts.rx[i] = &tensorRx{}
		lower, names, err := base(i)
		if err != nil {
			ts.close()
			return nil, err
		}
		if tr != nil {
			wrapped, err := wrapDatagram(lower, tr, names.withGap(spRudpRecvWork))
			if err != nil {
				lower.Close()
				ts.close()
				return nil, err
			}
			lower = wrapped
		}
		ts.llp[i] = rudp.New(lower)
		var upper transport.Datagram = ts.llp[i]
		if tr != nil {
			if upper, err = wrapDatagram(upper, tr, rudpSeam); err != nil {
				ts.llp[i].Close()
				ts.close()
				return nil, err
			}
		}
		from := 1 - i
		ep, err := msg.Open(upper, msg.Config{
			Reliable: true,
			Handler:  func(m msg.Message) { ts.deliver(from, m) },
		})
		if err != nil {
			upper.Close()
			ts.close()
			return nil, err
		}
		ts.eps[i] = ep
	}
	ts.to[0], ts.to[1] = ts.eps[1].LocalAddr(), ts.eps[0].LocalAddr()
	return ts, nil
}

// deliver is the msg handler for tensors from sender s.
func (ts *tensorStack) deliver(s int, m msg.Message) {
	now := mono()
	d := m.Data
	var problem string
	seq, idx := uint32(0), uint32(0)
	if len(d) < tensorHdr || binary.BigEndian.Uint32(d[0:4]) != uint32(s) {
		problem = fmt.Sprintf("tensor of %d bytes with a bad sender header", len(d))
	} else {
		seq, idx = binary.BigEndian.Uint32(d[4:8]), binary.BigEndian.Uint32(d[8:12])
		want := ts.in.sched[s][seq%schedLen]
		ref := ts.in.bufs[s][want]
		switch {
		case idx != uint32(want):
			problem = fmt.Sprintf("sender %d seq %d: tensor %d, want %d", s, seq, idx, want)
		case len(d) != len(ref) || !bytes.Equal(d[tensorHdr:], ref[tensorHdr:]):
			problem = fmt.Sprintf("sender %d seq %d: %d bytes differ from the %d sent", s, seq, len(d), len(ref))
		}
	}
	size := len(d)
	m.Release()
	rx := ts.rx[s]
	sent := rx.sentAt[seq%schedLen].Load()
	rx.mu.Lock()
	defer rx.mu.Unlock()
	rx.delivered++
	rx.last = now
	if off := seq - rx.first; problem == "" && off >= schedLen<<10 {
		problem = fmt.Sprintf("sender %d seq %d is not from this phase", s, seq)
	} else if problem == "" {
		w, bit := off/64, uint64(1)<<(off%64)
		for int(w) >= len(rx.seen) {
			rx.seen = append(rx.seen, 0)
		}
		if rx.seen[w]&bit != 0 {
			problem = fmt.Sprintf("sender %d seq %d delivered twice", s, seq)
		}
		rx.seen[w] |= bit
	}
	if problem != "" {
		rx.ph.fail("%s", problem)
		return
	}
	rx.ph.complete(time.Duration(now-sent), int64(size))
	ts.tr.record(spOp, monoTime(sent), 1, size, 0, opID(s, seq))
}

func opID(s int, seq uint32) uint32 { return uint32(s)<<31 | seq&(1<<31-1) }

func (ts *tensorStack) run(seconds float64, limit int64) phase {
	for s, rx := range ts.rx {
		rx.mu.Lock()
		rx.ph, rx.first, rx.seen, rx.delivered = phase{}, ts.next[s], rx.seen[:0], 0
		rx.mu.Unlock()
	}
	start := mono()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var sent [2]int64
	var sendPh [2]phase
	var wg sync.WaitGroup
	for s := range ts.eps {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sent[s], sendPh[s] = ts.send(s, deadline, limit)
		}(s)
	}
	wg.Wait()

	// Drain: every sent tensor must arrive before the phase ends.
	stop := time.Now().Add(drainTimeout)
	for {
		done := true
		for s, rx := range ts.rx {
			rx.mu.Lock()
			if rx.delivered < sent[s] {
				done = false
			}
			rx.mu.Unlock()
		}
		if done || time.Now().After(stop) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	var ph phase
	end := start
	for s, rx := range ts.rx {
		ph.merge(sendPh[s])
		rx.mu.Lock()
		ph.merge(rx.ph)
		rx.ph = phase{}
		if missing := sent[s] - rx.delivered; missing > 0 {
			ph.failed += missing - 1
			ph.fail("sender %d: %d of %d tensors not delivered within %v", s, missing, sent[s], drainTimeout)
		}
		end = max(end, rx.last)
		rx.mu.Unlock()
	}
	ph.elapsed = time.Duration(end - start)
	return ph
}

// send runs sender s's closed loop until the deadline or limit sends.
func (ts *tensorStack) send(s int, deadline time.Time, limit int64) (int64, phase) {
	var ph phase
	ep, to := ts.eps[s], ts.to[s]
	rx := ts.rx[s]
	var n int64
	for n < limit && time.Now().Before(deadline) {
		seq := ts.next[s]
		ts.next[s]++
		buf := ts.in.bufs[s][ts.in.sched[s][seq%schedLen]]
		binary.BigEndian.PutUint32(buf[4:8], seq)
		ph.attempted++
		start := time.Now()
		rx.sentAt[seq%schedLen].Store(start.Sub(clockBase).Nanoseconds())
		err := ep.Send(to, buf)
		name := spMsgSend
		if len(buf) > ep.Threshold() {
			name = spMsgSendRdv
		}
		ts.tr.record(name, start, 1, len(buf), 0, opID(s, seq))
		if err != nil {
			ph.fail("sender %d seq %d: Send: %v", s, seq, err)
			break
		}
		n++
	}
	return n, ph
}

func (ts *tensorStack) counters(c map[string]float64) {
	for _, e := range ts.llp {
		if e == nil {
			continue
		}
		s := e.Snapshot()
		c["rudp.retransmits"] += float64(s.Retransmits)
		c["rudp.rto"] += float64(s.RTOExpirations)
		c["rudp.fast"] += float64(s.FastRetransmits)
		c["rudp.spurious"] += float64(s.SpuriousRexmits)
		c["rudp.window_drops"] += float64(s.WindowDrops)
		c["rudp.crc"] += float64(s.CRCFailures)
	}
	for _, e := range ts.eps {
		if e == nil {
			continue
		}
		s := e.Stats()
		c["msg.eager_sent"] += float64(s.EagerSent)
		c["msg.rdv_sent"] += float64(s.RdvSent)
		c["msg.credit_stalls"] += float64(s.CreditStalls)
		c["msg.rdv_swept"] += float64(s.RdvSwept)
	}
	if ts.net != nil {
		nc := ts.net.Counters()
		c["simnet.lost_loss"] = float64(nc.LostLoss)
		c["simnet.fragments"] = float64(nc.FragmentsSent)
	}
}

func (ts *tensorStack) cwnd() float64 {
	sum := 0.0
	for _, e := range ts.llp {
		sum += float64(e.Snapshot().Cwnd)
	}
	return sum / float64(len(ts.llp))
}

func (ts *tensorStack) close() error {
	var first error
	for _, e := range ts.eps {
		if e != nil {
			if err := e.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// clockBase anchors mono(): monotonic nanoseconds that fit an atomic.Int64.
var clockBase = time.Now()

func mono() int64 { return time.Since(clockBase).Nanoseconds() }

func monoTime(ns int64) time.Time { return clockBase.Add(time.Duration(ns)) }
