package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rudp"
	"repro/internal/transport"
)

// Seam wrappers time the calls one layer makes into the endpoint the
// benchmark handed it. A wrapper must not change the path the stack takes,
// so it exposes exactly the optional interfaces its inner endpoint has:
// the DDP channel probes BatchSender/BatchRecver/RecvPoolStats/
// BatchCapabilities and rudp probes Recycler, and a wrapper that added or
// hid one would have the traced stack run different code.

// Optional-interface bits of a transport.Datagram.
const (
	optBatchSend = 1 << iota
	optBatchRecv
	optRecycler
	optPoolStats
	optCapabilities
)

// optionalSet reports which optional interfaces d implements.
func optionalSet(d transport.Datagram) int {
	set := 0
	if _, ok := d.(transport.BatchSender); ok {
		set |= optBatchSend
	}
	if _, ok := d.(transport.BatchRecver); ok {
		set |= optBatchRecv
	}
	if _, ok := d.(transport.Recycler); ok {
		set |= optRecycler
	}
	if _, ok := d.(transport.RecvPoolStats); ok {
		set |= optPoolStats
	}
	if _, ok := d.(transport.BatchCapabilities); ok {
		set |= optCapabilities
	}
	return set
}

// seamNames picks the span names a datagram seam records under; -1
// records nothing. gap names the work of the layer above the seam between
// two of its receive calls.
type seamNames struct{ send, ack, recv, close, gap int }

var (
	kernelSeam = seamNames{spTransportSend, spTransportAck, spTransportRecv, spTransportClose, -1}
	simnetSeam = seamNames{spSimnetSend, spSimnetAck, spSimnetRecv, spSimnetClose, -1}
	rudpSeam   = seamNames{spRudpSend, spRudpSend, spRudpRecv, -1, -1}
)

func (n seamNames) withGap(gap int) seamNames {
	n.gap = gap
	return n
}

// dgramSeam is the Datagram part of every datagram wrapper.
type dgramSeam struct {
	inner transport.Datagram
	tr    *tracer
	names seamNames
	// lastRecv is when the previous receive call returned (ns since the
	// tracer's base; 0 before the first). The next call's start minus it
	// is the time the layer above spent on what it received.
	lastRecv atomic.Int64
}

// wrapDatagram returns inner behind a seam recording into tr under names.
// It fails for an optional-interface combination it has no faithful
// wrapper for, rather than silently changing the stack's path.
func wrapDatagram(inner transport.Datagram, tr *tracer, names seamNames) (transport.Datagram, error) {
	s := &dgramSeam{inner: inner, tr: tr, names: names}
	b := batchSeam{s}
	switch set := optionalSet(inner); set {
	case 0:
		return s, nil
	case optBatchSend | optBatchRecv | optRecycler | optPoolStats:
		return &b, nil
	case optBatchSend | optBatchRecv | optRecycler | optPoolStats | optCapabilities:
		return &capSeam{b}, nil
	default:
		return nil, fmt.Errorf("seam: no faithful wrapper for %T (optional set %05b)", inner, set)
	}
}

func (s *dgramSeam) sendName(p []byte) int {
	if rudp.IsAckPacket(p) {
		return s.names.ack
	}
	return s.names.send
}

func (s *dgramSeam) SendTo(p []byte, to transport.Addr) error {
	name := s.sendName(p)
	start := time.Now()
	err := s.inner.SendTo(p, to)
	s.tr.record(name, start, 1, len(p), 0, 0)
	s.tr.callErr(err)
	return err
}

// recvStart charges the gap since the previous receive returned.
func (s *dgramSeam) recvStart() time.Time {
	start := time.Now()
	if last := s.lastRecv.Load(); last != 0 && s.names.gap >= 0 {
		s.tr.addGap(s.names.gap, time.Duration(start.Sub(s.tr.base).Nanoseconds()-last))
	}
	return start
}

func (s *dgramSeam) recvEnd(start time.Time, pkts, bytes int) {
	s.tr.record(s.names.recv, start, pkts, bytes, 0, 0)
	s.lastRecv.Store(time.Since(s.tr.base).Nanoseconds())
}

func (s *dgramSeam) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	start := s.recvStart()
	p, from, err := s.inner.Recv(timeout)
	s.tr.callErr(err)
	if err != nil {
		s.recvEnd(start, 0, 0)
	} else {
		s.recvEnd(start, 1, len(p))
	}
	return p, from, err
}

func (s *dgramSeam) LocalAddr() transport.Addr { return s.inner.LocalAddr() }
func (s *dgramSeam) MaxDatagram() int          { return s.inner.MaxDatagram() }
func (s *dgramSeam) PathMTU() int              { return s.inner.PathMTU() }

func (s *dgramSeam) Close() error {
	start := time.Now()
	err := s.inner.Close()
	if s.names.close >= 0 {
		s.tr.record(s.names.close, start, 1, 0, 0, 0)
	}
	return err
}

// batchSeam adds the batch, recycling and pool-statistics interfaces a
// simnet endpoint has.
type batchSeam struct{ *dgramSeam }

func (b *batchSeam) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	start := time.Now()
	n, err := b.inner.(transport.BatchSender).SendBatch(pkts, to)
	bytes := 0
	for _, p := range pkts[:n] {
		bytes += len(p)
	}
	b.tr.record(b.names.send, start, n, bytes, 0, 0)
	b.tr.callErr(err)
	return n, err
}

func (b *batchSeam) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	start := b.recvStart()
	n, err := b.inner.(transport.BatchRecver).RecvBatch(pkts, froms, timeout)
	bytes := 0
	for _, p := range pkts[:n] {
		bytes += len(p)
	}
	b.recvEnd(start, n, bytes)
	b.tr.callErr(err)
	return n, err
}

func (b *batchSeam) Recycle(p []byte) { b.inner.(transport.Recycler).Recycle(p) }

func (b *batchSeam) RecvPoolStats() (hits, misses int64) {
	return b.inner.(transport.RecvPoolStats).RecvPoolStats()
}

// capSeam adds BatchCapabilities, which a kernel UDP endpoint has.
type capSeam struct{ batchSeam }

func (c *capSeam) BatchFeatures() transport.BatchFeatures {
	return c.inner.(transport.BatchCapabilities).BatchFeatures()
}

// memFootprinter is the optional interface the DDP stream channel probes
// on a stream for its Figure 11 memory accounting.
type memFootprinter interface{ MemFootprint() int64 }

// streamSeam times MPA's reads and writes on a stream.
type streamSeam struct {
	inner transport.Stream
	tr    *tracer
}

// wrapStream returns inner behind a seam, keeping MemFootprint visible
// exactly when inner has it.
func wrapStream(inner transport.Stream, tr *tracer) transport.Stream {
	s := &streamSeam{inner: inner, tr: tr}
	if _, ok := inner.(memFootprinter); ok {
		return &footprintStream{s}
	}
	return s
}

func (s *streamSeam) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := s.inner.Read(p)
	s.tr.record(spStreamRead, start, 1, n, 0, 0)
	return n, err
}

func (s *streamSeam) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := s.inner.Write(p)
	s.tr.record(spStreamWrite, start, 1, n, 0, 0)
	return n, err
}

func (s *streamSeam) Close() error               { return s.inner.Close() }
func (s *streamSeam) LocalAddr() transport.Addr  { return s.inner.LocalAddr() }
func (s *streamSeam) RemoteAddr() transport.Addr { return s.inner.RemoteAddr() }

type footprintStream struct{ *streamSeam }

func (f *footprintStream) MemFootprint() int64 { return f.inner.(memFootprinter).MemFootprint() }
