// Package pcap holds the wire taps: a [DatagramTap] or [StreamTap]
// interposes on the transport seam — the boundary between the iWARP stack
// and its LLP — and copies every datagram or stream chunk that crosses it
// into a standard pcap savefile, so any run (simnet or real sockets) can
// be opened in Wireshark. Traffic is re-encapsulated: datagrams as
// Ethernet/IPv4/UDP frames, stream chunks as Ethernet/IPv4/TCP segments
// with a synthetic handshake and tracked sequence numbers. transport.Addr nodes that parse
// as IPv4 keep their address; symbolic simnet nodes ("a", "b", "mcast")
// map deterministically into 10.0.0.0/8 so two-node captures stay legible.
//
// All pcap integers are written big-endian with the standard magic; pcap
// readers detect byte order from the magic, and the tree's wire-format
// convention (wirecheck) is network order throughout.
package pcap

import (
	"bufio"
	"encoding/binary"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// pcap file constants.
const (
	pcapMagic       = 0xa1b2c3d4
	pcapVerMajor    = 2
	pcapVerMinor    = 4
	pcapSnapLen     = 65535 + 54 // worst-case frame: max datagram + headers
	pcapLinkEther   = 1          // LINKTYPE_ETHERNET
	pcapRecHdrLen   = 16
	etherHdrLen     = 14
	ipv4HdrLen      = 20
	udpHdrLen       = 8
	tcpHdrLen       = 20
	maxEncapPayload = 65535 - ipv4HdrLen - udpHdrLen // IPv4 total-length ceiling
)

// PcapWriter serializes packets into pcap savefile format. It is safe for
// concurrent use (taps on both directions of a connection share one
// writer); writes are buffered and errors are sticky — a tap never fails
// the datapath it observes, so I/O errors surface through [PcapWriter.Err]
// and Close rather than through SendTo/Recv.
type PcapWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	under   io.Writer
	err     error
	ipID    uint16
	scratch [etherHdrLen + ipv4HdrLen + tcpHdrLen]byte
	hdr     [pcapRecHdrLen]byte

	scope   *telemetry.Scope
	packets *telemetry.Counter // diwarp_pcap_packets_total
	bytes   *telemetry.Counter
}

// NewPcapWriter starts a pcap stream on w, writing the file header
// immediately. If w is an io.Closer, Close closes it after flushing.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	sc := telemetry.Default.Scope()
	pw := &PcapWriter{
		bw:      bufio.NewWriterSize(w, 64<<10),
		under:   w,
		scope:   sc,
		packets: sc.Counter("diwarp_pcap_packets_total"),
		bytes:   sc.Counter("diwarp_pcap_bytes_total"),
	}
	var fh [24]byte
	binary.BigEndian.PutUint32(fh[0:], pcapMagic)
	binary.BigEndian.PutUint16(fh[4:], pcapVerMajor)
	binary.BigEndian.PutUint16(fh[6:], pcapVerMinor)
	// thiszone and sigfigs stay zero.
	binary.BigEndian.PutUint32(fh[16:], pcapSnapLen)
	binary.BigEndian.PutUint32(fh[20:], pcapLinkEther)
	if _, err := pw.bw.Write(fh[:]); err != nil {
		sc.Close()
		return nil, err
	}
	return pw, nil
}

// Packets returns how many packet records have been written.
func (pw *PcapWriter) Packets() int64 { return pw.packets.Load() }

// Err returns the first write error, if any.
func (pw *PcapWriter) Err() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.err
}

// Close flushes the buffer and closes the underlying writer when it is a
// Closer.
func (pw *PcapWriter) Close() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.scope.Close()
	if ferr := pw.bw.Flush(); pw.err == nil {
		pw.err = ferr
	}
	if c, ok := pw.under.(io.Closer); ok {
		if cerr := c.Close(); pw.err == nil {
			pw.err = cerr
		}
	}
	return pw.err
}

// ipFor maps a transport node name to an IPv4 address: parseable v4
// addresses pass through; anything else hashes into 10.0.0.0/8.
func ipFor(node string) [4]byte {
	if ip := net.ParseIP(node); ip != nil {
		if v4 := ip.To4(); v4 != nil {
			return [4]byte(v4)
		}
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(node)) // fnv's Write cannot fail
	s := h.Sum32()
	return [4]byte{10, byte(s >> 16), byte(s >> 8), byte(s)}
}

// onesComplement computes the RFC 1071 internet checksum of b.
func onesComplement(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// writeFrame emits one pcap record: Ethernet + IPv4 + (UDP | TCP) headers
// built in the scratch buffer, then the payload. proto is 17 (UDP) or
// 6 (TCP); seq/ack/flags are used only for TCP.
func (pw *PcapWriter) writeFrame(src, dst transport.Addr, proto byte, seq, ack uint32, flags byte, payload []byte) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.err != nil {
		return
	}
	sip, dip := ipFor(src.Node), ipFor(dst.Node)
	l4len := udpHdrLen
	if proto == 6 {
		l4len = tcpHdrLen
	}
	totLen := ipv4HdrLen + l4len + len(payload)
	frame := pw.scratch[:etherHdrLen+ipv4HdrLen+l4len]

	// Ethernet: locally-administered MACs derived from the IPs.
	copy(frame[0:6], []byte{0x02, 0x00, dip[0], dip[1], dip[2], dip[3]})
	copy(frame[6:12], []byte{0x02, 0x00, sip[0], sip[1], sip[2], sip[3]})
	binary.BigEndian.PutUint16(frame[12:], 0x0800)

	// IPv4 header.
	ip := frame[etherHdrLen:]
	ip[0] = 0x45
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:], uint16(totLen))
	pw.ipID++
	binary.BigEndian.PutUint16(ip[4:], pw.ipID)
	binary.BigEndian.PutUint16(ip[6:], 0) // no fragmentation in the encap
	ip[8] = 64
	ip[9] = proto
	binary.BigEndian.PutUint16(ip[10:], 0)
	copy(ip[12:16], sip[:])
	copy(ip[16:20], dip[:])
	binary.BigEndian.PutUint16(ip[10:], onesComplement(ip[:ipv4HdrLen]))

	// Transport header.
	l4 := ip[ipv4HdrLen:]
	binary.BigEndian.PutUint16(l4[0:], src.Port)
	binary.BigEndian.PutUint16(l4[2:], dst.Port)
	if proto == 17 {
		binary.BigEndian.PutUint16(l4[4:], uint16(udpHdrLen+len(payload)))
		binary.BigEndian.PutUint16(l4[6:], 0) // UDP checksum 0: "not computed"
	} else {
		binary.BigEndian.PutUint32(l4[4:], seq)
		binary.BigEndian.PutUint32(l4[8:], ack)
		l4[12] = tcpHdrLen / 4 << 4
		l4[13] = flags
		binary.BigEndian.PutUint16(l4[14:], 0xffff) // window
		binary.BigEndian.PutUint16(l4[16:], 0)      // checksum: see below
		binary.BigEndian.PutUint16(l4[18:], 0)      // urgent
		binary.BigEndian.PutUint16(l4[16:], tcpChecksum(sip, dip, l4[:tcpHdrLen], payload))
	}

	// Record header: seconds, microseconds, captured length, original length.
	now := time.Now()
	wire := etherHdrLen + totLen
	binary.BigEndian.PutUint32(pw.hdr[0:], uint32(now.Unix()))
	binary.BigEndian.PutUint32(pw.hdr[4:], uint32(now.Nanosecond()/1e3))
	binary.BigEndian.PutUint32(pw.hdr[8:], uint32(wire))
	binary.BigEndian.PutUint32(pw.hdr[12:], uint32(wire))

	if _, err := pw.bw.Write(pw.hdr[:]); err != nil {
		pw.err = err
		return
	}
	if _, err := pw.bw.Write(frame); err != nil {
		pw.err = err
		return
	}
	if _, err := pw.bw.Write(payload); err != nil {
		pw.err = err
		return
	}
	pw.packets.Inc()
	pw.bytes.Add(int64(wire))
}

// tcpChecksum computes the TCP checksum over the IPv4 pseudo-header,
// header, and payload.
func tcpChecksum(sip, dip [4]byte, hdr, payload []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], sip[:])
	copy(pseudo[4:8], dip[:])
	pseudo[9] = 6
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(hdr)+len(payload)))
	var sum uint32
	add := func(b []byte) {
		for len(b) >= 2 {
			sum += uint32(binary.BigEndian.Uint16(b))
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint32(b[0]) << 8
		}
	}
	add(pseudo[:])
	add(hdr)
	add(payload)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// DatagramTap wraps a transport.Datagram, mirroring every datagram that
// crosses it into a pcap file as a UDP packet and counting transport-seam
// traffic into the registry. It forwards the optional BatchSender and
// Recycler capabilities of the endpoint below, so a tapped LLP keeps its
// batched, pooled datapath. Closing the tap closes the inner endpoint but
// NOT the writer — both directions of a simnet pair typically share one
// PcapWriter, which the caller closes once.
type DatagramTap struct {
	inner transport.Datagram
	pw    *PcapWriter

	scope                 *telemetry.Scope
	sent, recvd           *telemetry.Counter
	sentBytes, recvdBytes *telemetry.Counter
}

var _ transport.Datagram = (*DatagramTap)(nil)
var _ transport.BatchSender = (*DatagramTap)(nil)
var _ transport.BatchRecver = (*DatagramTap)(nil)
var _ transport.Recycler = (*DatagramTap)(nil)
var _ transport.RecvPoolStats = (*DatagramTap)(nil)
var _ transport.BatchCapabilities = (*DatagramTap)(nil)

// BatchFeatures forwards the inner endpoint's kernel batch capabilities, so
// tapping a link does not change the burst sizing of the layers above.
func (t *DatagramTap) BatchFeatures() transport.BatchFeatures {
	if bc, ok := t.inner.(transport.BatchCapabilities); ok {
		return bc.BatchFeatures()
	}
	return transport.BatchFeatures{}
}

// TapDatagram interposes a pcap tap over inner, writing to pw.
func TapDatagram(inner transport.Datagram, pw *PcapWriter) *DatagramTap {
	sc := telemetry.Default.Scope()
	return &DatagramTap{
		inner:      inner,
		pw:         pw,
		scope:      sc,
		sent:       sc.Counter("diwarp_transport_datagrams_sent_total"),
		recvd:      sc.Counter("diwarp_transport_datagrams_recv_total"),
		sentBytes:  sc.Counter("diwarp_transport_bytes_sent_total"),
		recvdBytes: sc.Counter("diwarp_transport_bytes_recv_total"),
	}
}

// SendTo implements transport.Datagram.
func (t *DatagramTap) SendTo(p []byte, to transport.Addr) error {
	err := t.inner.SendTo(p, to)
	if err == nil {
		t.pw.writeFrame(t.inner.LocalAddr(), to, 17, 0, 0, 0, p)
		t.sent.Inc()
		t.sentBytes.Add(int64(len(p)))
	}
	return err
}

// SendBatch implements transport.BatchSender, delegating to the inner
// endpoint's batched path when it has one. Only datagrams actually handed
// to the network are captured.
func (t *DatagramTap) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	if bs, ok := t.inner.(transport.BatchSender); ok {
		n, err := bs.SendBatch(pkts, to)
		from := t.inner.LocalAddr()
		for _, p := range pkts[:n] {
			t.pw.writeFrame(from, to, 17, 0, 0, 0, p)
			t.sentBytes.Add(int64(len(p)))
		}
		t.sent.Add(int64(n))
		return n, err
	}
	for i, p := range pkts {
		if err := t.SendTo(p, to); err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// Recv implements transport.Datagram.
func (t *DatagramTap) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	p, from, err := t.inner.Recv(timeout)
	if err == nil {
		t.pw.writeFrame(from, t.inner.LocalAddr(), 17, 0, 0, 0, p)
		t.recvd.Inc()
		t.recvdBytes.Add(int64(len(p)))
	}
	return p, from, err
}

// RecvBatch implements transport.BatchRecver, delegating to the inner
// endpoint's batched path when it has one and degrading to one Recv
// otherwise, so a tapped LLP keeps the batched receive seam. Every datagram
// in the burst is captured and counted.
func (t *DatagramTap) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	var n int
	var err error
	if br, ok := t.inner.(transport.BatchRecver); ok {
		n, err = br.RecvBatch(pkts, froms, timeout)
	} else {
		if len(pkts) == 0 || len(froms) == 0 {
			return 0, nil
		}
		pkts[0], froms[0], err = t.inner.Recv(timeout)
		if err == nil {
			n = 1
		}
	}
	local := t.inner.LocalAddr()
	for i := 0; i < n; i++ {
		t.pw.writeFrame(froms[i], local, 17, 0, 0, 0, pkts[i])
		t.recvdBytes.Add(int64(len(pkts[i])))
	}
	t.recvd.Add(int64(n))
	return n, err
}

// Recycle implements transport.Recycler when the inner endpoint does.
func (t *DatagramTap) Recycle(p []byte) {
	if r, ok := t.inner.(transport.Recycler); ok {
		r.Recycle(p)
	}
}

// RecvPoolStats implements transport.RecvPoolStats when the inner endpoint
// does; otherwise it reports zeroes (no pool below, nothing to observe).
func (t *DatagramTap) RecvPoolStats() (hits, misses int64) {
	if ps, ok := t.inner.(transport.RecvPoolStats); ok {
		return ps.RecvPoolStats()
	}
	return 0, 0
}

// LocalAddr implements transport.Datagram.
func (t *DatagramTap) LocalAddr() transport.Addr { return t.inner.LocalAddr() }

// MaxDatagram implements transport.Datagram.
func (t *DatagramTap) MaxDatagram() int { return t.inner.MaxDatagram() }

// PathMTU implements transport.Datagram.
func (t *DatagramTap) PathMTU() int { return t.inner.PathMTU() }

// Close implements transport.Datagram.
func (t *DatagramTap) Close() error {
	defer t.scope.Close()
	return t.inner.Close()
}

// StreamTap wraps a transport.Stream (the RC mode's LLP), mirroring reads
// and writes into the pcap file as TCP segments. A synthetic three-way
// handshake is emitted at tap time so protocol analyzers track the
// conversation; sequence numbers count actual bytes in each direction.
type StreamTap struct {
	inner transport.Stream
	pw    *PcapWriter

	mu    sync.Mutex
	txSeq uint32 // next local→remote sequence number
	rxSeq uint32 // next remote→local sequence number
}

var _ transport.Stream = (*StreamTap)(nil)

// TapStream interposes a pcap tap over inner, writing to pw.
func TapStream(inner transport.Stream, pw *PcapWriter) *StreamTap {
	t := &StreamTap{inner: inner, pw: pw}
	l, r := inner.LocalAddr(), inner.RemoteAddr()
	pw.writeFrame(l, r, 6, 0, 0, 0x02, nil) // SYN
	pw.writeFrame(r, l, 6, 0, 1, 0x12, nil) // SYN|ACK
	pw.writeFrame(l, r, 6, 1, 1, 0x10, nil) // ACK
	t.txSeq, t.rxSeq = 1, 1
	return t
}

// record splits one direction's chunk into IPv4-sized TCP segments.
func (t *StreamTap) record(src, dst transport.Addr, seq, ack *uint32, p []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(p) > 0 {
		n := min(len(p), maxEncapPayload)
		t.pw.writeFrame(src, dst, 6, *seq, *ack, 0x18, p[:n]) // PSH|ACK
		*seq += uint32(n)
		p = p[n:]
	}
}

// Read implements transport.Stream.
func (t *StreamTap) Read(p []byte) (int, error) {
	n, err := t.inner.Read(p)
	if n > 0 {
		t.record(t.inner.RemoteAddr(), t.inner.LocalAddr(), &t.rxSeq, &t.txSeq, p[:n])
	}
	return n, err
}

// Write implements transport.Stream.
func (t *StreamTap) Write(p []byte) (int, error) {
	n, err := t.inner.Write(p)
	if n > 0 {
		t.record(t.inner.LocalAddr(), t.inner.RemoteAddr(), &t.txSeq, &t.rxSeq, p[:n])
	}
	return n, err
}

// LocalAddr implements transport.Stream.
func (t *StreamTap) LocalAddr() transport.Addr { return t.inner.LocalAddr() }

// RemoteAddr implements transport.Stream.
func (t *StreamTap) RemoteAddr() transport.Addr { return t.inner.RemoteAddr() }

// Close implements transport.Stream, emitting a FIN pair for the capture.
func (t *StreamTap) Close() error {
	t.mu.Lock()
	l, r := t.inner.LocalAddr(), t.inner.RemoteAddr()
	t.pw.writeFrame(l, r, 6, t.txSeq, t.rxSeq, 0x11, nil) // FIN|ACK
	t.pw.writeFrame(r, l, 6, t.rxSeq, t.txSeq+1, 0x10, nil)
	t.mu.Unlock()
	return t.inner.Close()
}
