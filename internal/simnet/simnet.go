// Package simnet is an in-process network simulator providing the datagram
// and stream LLPs the iWARP stack runs over in tests and benchmarks.
//
// It stands in for the paper's experimental apparatus: two Opteron hosts on
// a 10-Gigabit Ethernet switch, with packet loss injected by a Linux traffic
// control FIFO queue "configured to drop packets at a defined rate"
// (§VI.A.2). The simulator reproduces the properties that shape the paper's
// results:
//
//   - a wire MTU (default 1500 B): datagrams larger than the MTU are
//     IP-fragmented, and loss of ANY fragment destroys the whole datagram —
//     the cliff in Figures 7 and 8;
//   - a 64 KB maximum datagram: messages beyond it need several datagrams,
//     which is where Write-Record's partial placement starts to win;
//   - independent Bernoulli loss per fragment at a configurable rate
//     (datagram mode only — streams are reliable and ordered, like TCP);
//   - an optional one-way latency, IP multicast groups, and bounded receive
//     queues with sender backpressure, like loopback socket buffers.
//
// simnet is only the wire. Every other impairment — burst loss, reordering,
// duplication, corruption, ECN congestion marks, partitions — is injected
// by wrapping an endpoint in faultnet.Wrap, whose decisions are logged and
// replayable from a seed.
//
// All randomness is drawn from a single seeded source, so every experiment
// is reproducible.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config parameterises a simulated network. Zero values select defaults.
type Config struct {
	// MTU is the wire MTU in bytes (default transport.DefaultMTU).
	MTU int
	// MaxDatagram is the largest datagram payload (default 65507, UDP's).
	MaxDatagram int
	// LossRate is the per-fragment drop probability in [0, 1).
	LossRate float64
	// Latency is an optional one-way delivery delay.
	Latency time.Duration
	// QueueLen bounds each endpoint's receive queue in packets
	// (default 4096).
	QueueLen int
	// StreamBufSize sets each direction's stream buffering in bytes
	// (default DefaultStreamBufSize) — the simulated SO_SNDBUF/SO_RCVBUF.
	StreamBufSize int
	// Seed seeds the loss RNG (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = transport.DefaultMTU
	}
	if c.MaxDatagram == 0 {
		c.MaxDatagram = transport.MaxDatagramSize
	}
	if c.QueueLen == 0 {
		c.QueueLen = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Counters exposes the simulator's traffic statistics. Losses are split by
// cause — Bernoulli wire loss, latency-stranded deliveries (the destination
// closed while the packet was in flight), and multicast-leg drops — with
// DatagramsLost their sum, so experiments can attribute loss instead of
// guessing.
type Counters struct {
	DatagramsSent int64
	DatagramsLost int64
	LostLoss      int64 // Bernoulli wire loss (unicast legs)
	LostLatency   int64 // latency-delayed packet found its destination closed
	LostMcast     int64 // multicast legs lost (wire loss or closed member)
	FragmentsSent int64
	BytesSent     int64
}

// Network is a simulated network segment. All endpoints opened on it can
// exchange traffic; the Config's impairments apply to datagram traffic.
type Network struct {
	cfg Config

	rngMu sync.Mutex
	rng   *rand.Rand

	lossMicro atomic.Int64 // LossRate * 1e6, runtime-adjustable

	mu        sync.Mutex
	dgram     map[transport.Addr]*DatagramEndpoint
	listeners map[transport.Addr]*listener
	nextPort  map[string]uint16

	mcastOnce   sync.Once
	mcastGroups *mcastState

	// Traffic counters are telemetry-registry handles (DESIGN.md §4.6),
	// with loss accounted per cause.
	sent, frags, bytes               *telemetry.Counter
	lostLoss, lostLatency, lostMcast *telemetry.Counter
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	n := &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		dgram:     make(map[transport.Addr]*DatagramEndpoint),
		listeners: make(map[transport.Addr]*listener),
		nextPort:  make(map[string]uint16),
	}
	n.lossMicro.Store(int64(cfg.LossRate * 1e6))
	n.sent = telemetry.Default.Counter("diwarp_simnet_datagrams_sent_total")
	n.frags = telemetry.Default.Counter("diwarp_simnet_fragments_total")
	n.bytes = telemetry.Default.Counter("diwarp_simnet_bytes_sent_total")
	n.lostLoss = telemetry.Default.Counter("diwarp_simnet_drop_loss_total")
	n.lostLatency = telemetry.Default.Counter("diwarp_simnet_drop_latency_total")
	n.lostMcast = telemetry.Default.Counter("diwarp_simnet_drop_mcast_total")
	return n
}

// SetLossRate changes the per-fragment loss probability at runtime; the
// benchmark harness sweeps it the way the paper swept tc/netem rates.
func (n *Network) SetLossRate(p float64) { n.lossMicro.Store(int64(p * 1e6)) }

// Counters returns a snapshot of traffic statistics.
func (n *Network) Counters() Counters {
	loss, lat, mc := n.lostLoss.Load(), n.lostLatency.Load(), n.lostMcast.Load()
	return Counters{
		DatagramsSent: n.sent.Load(),
		DatagramsLost: loss + lat + mc,
		LostLoss:      loss,
		LostLatency:   lat,
		LostMcast:     mc,
		FragmentsSent: n.frags.Load(),
		BytesSent:     n.bytes.Load(),
	}
}

// MTU returns the configured wire MTU.
func (n *Network) MTU() int { return n.cfg.MTU }

// chance draws a Bernoulli sample with probability micro/1e6.
func (n *Network) chance(micro int64) bool {
	if micro <= 0 {
		return false
	}
	n.rngMu.Lock()
	v := n.rng.Int63n(1e6)
	n.rngMu.Unlock()
	return v < micro
}

func (n *Network) allocPort(node string) uint16 {
	p, ok := n.nextPort[node]
	if !ok {
		p = 49152
	}
	for {
		p++
		if p == 0 {
			p = 49153
		}
		a := transport.Addr{Node: node, Port: p}
		if _, used := n.dgram[a]; used {
			continue
		}
		if _, used := n.listeners[a]; used {
			continue
		}
		n.nextPort[node] = p
		return p
	}
}

// fragPayload is the usable payload per wire fragment: MTU minus the 20-byte
// IP header and 8-byte UDP header.
func (n *Network) fragPayload() int { return n.cfg.MTU - 28 }

// fragments returns how many wire fragments a datagram of size sz needs.
func (n *Network) fragments(sz int) int {
	fp := n.fragPayload()
	if sz <= fp {
		return 1
	}
	return (sz + fp - 1) / fp
}

// lostOnWire puts one datagram of size bytes bound for to on the wire: it
// accounts the send, then rolls the loss model once per fragment. Losing any
// fragment kills the datagram, because IP reassembly cannot complete; the
// loss is counted on lost and traced with cause. A lost datagram was still
// handed to the network, so it still counts as sent.
func (n *Network) lostOnWire(size int, to transport.Addr, lost *telemetry.Counter, cause uint32) bool {
	n.sent.Inc()
	n.bytes.Add(int64(size))
	k := n.fragments(size)
	n.frags.Add(int64(k))
	loss := n.lossMicro.Load()
	for i := 0; i < k; i++ {
		if n.chance(loss) {
			lost.Inc()
			telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(to), size, cause)
			return true
		}
	}
	return false
}

// OpenDatagram binds a datagram endpoint on node (port 0 auto-allocates).
func (n *Network) OpenDatagram(node string, port uint16) (*DatagramEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if port == 0 {
		port = n.allocPort(node)
	}
	addr := transport.Addr{Node: node, Port: port}
	if _, used := n.dgram[addr]; used {
		return nil, fmt.Errorf("simnet: address %s already bound", addr)
	}
	ep := &DatagramEndpoint{
		net:  n,
		addr: addr,
		q:    newQueue(n.cfg.QueueLen),
	}
	n.dgram[addr] = ep
	return ep, nil
}

func (n *Network) lookupDatagram(addr transport.Addr) (*DatagramEndpoint, bool) {
	n.mu.Lock()
	ep, ok := n.dgram[addr]
	n.mu.Unlock()
	return ep, ok
}

func (n *Network) dropDatagram(addr transport.Addr) {
	n.mu.Lock()
	delete(n.dgram, addr)
	n.mu.Unlock()
}

// DatagramEndpoint is a simulated UDP socket.
type DatagramEndpoint struct {
	net  *Network
	addr transport.Addr
	q    *queue
}

var (
	_ transport.Datagram      = (*DatagramEndpoint)(nil)
	_ transport.BatchSender   = (*DatagramEndpoint)(nil)
	_ transport.BatchRecver   = (*DatagramEndpoint)(nil)
	_ transport.Recycler      = (*DatagramEndpoint)(nil)
	_ transport.RecvPoolStats = (*DatagramEndpoint)(nil)
)

// SendTo implements transport.Datagram. The payload is fragmented against
// the MTU, subjected to the loss model, copied into a pooled buffer and
// enqueued at the destination — after Config.Latency when one is set.
// Blocks only when the destination queue is full (socket-buffer
// backpressure).
func (e *DatagramEndpoint) SendTo(p []byte, to transport.Addr) error {
	nw := e.net
	if IsGroupAddr(to) {
		return e.sendMulticast(p, to)
	}
	if len(p) > nw.cfg.MaxDatagram {
		return transport.ErrTooLarge
	}
	dst, ok := nw.lookupDatagram(to)
	if !ok {
		return fmt.Errorf("%w: %s", transport.ErrNoRoute, to)
	}
	if nw.lostOnWire(len(p), to, nw.lostLoss, telemetry.DropLoss) {
		return nil // silently dropped, like a real lossy network
	}
	pk := packet{payload: getPktBuf(len(p)), from: e.addr}
	copy(pk.payload, p)
	if nw.cfg.Latency <= 0 {
		if err := dst.q.put(pk); err != nil {
			putPktBuf(pk.payload)
			return fmt.Errorf("%w: %s", transport.ErrNoRoute, to)
		}
		return nil
	}
	time.AfterFunc(nw.cfg.Latency, func() {
		// The sender returned long ago; a delivery failure here
		// (destination queue closed mid-flight) is a lost packet. Count it
		// and recycle the buffer nobody will consume.
		if err := dst.q.put(pk); err != nil {
			nw.lostLatency.Inc()
			telemetry.DefaultTrace.Record(telemetry.EvDrop, telemetry.PeerToken(to), len(pk.payload), telemetry.DropLatency)
			putPktBuf(pk.payload)
		}
	})
	return nil
}

// SendBatch implements transport.BatchSender: the whole burst is subjected
// to the per-datagram loss model, copied into pooled packet buffers, and
// enqueued at the destination under a single queue lock — the simulated
// analogue of a sendmmsg burst. Multicast destinations and latency-shaped
// networks fall back to per-packet SendTo (both deliver asynchronously, so
// there is no shared lock to amortize).
func (e *DatagramEndpoint) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	nw := e.net
	if IsGroupAddr(to) || nw.cfg.Latency > 0 {
		for i, p := range pkts {
			if err := e.SendTo(p, to); err != nil {
				return i, err
			}
		}
		return len(pkts), nil
	}
	for _, p := range pkts {
		if len(p) > nw.cfg.MaxDatagram {
			return 0, transport.ErrTooLarge
		}
	}
	dst, ok := nw.lookupDatagram(to)
	if !ok {
		return 0, fmt.Errorf("%w: %s", transport.ErrNoRoute, to)
	}
	batch := make([]packet, 0, len(pkts))
	orig := make([]int, 0, len(pkts)) // source datagram index per batch slot
	for i, p := range pkts {
		if nw.lostOnWire(len(p), to, nw.lostLoss, telemetry.DropLoss) {
			continue
		}
		buf := getPktBuf(len(p))
		copy(buf, p)
		batch = append(batch, packet{payload: buf, from: e.addr})
		orig = append(orig, i)
	}
	enq, err := dst.q.putBatch(batch)
	if err != nil {
		// putBatch recycled the unenqueued tail's buffers; report how many
		// source datagrams made it in.
		sent := 0
		if enq > 0 {
			sent = orig[enq-1] + 1
		}
		return sent, fmt.Errorf("%w: %s", transport.ErrNoRoute, to)
	}
	return len(pkts), nil
}

// Recv implements transport.Datagram.
func (e *DatagramEndpoint) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	pkt, err := e.q.get(timeout)
	if err != nil {
		return nil, transport.Addr{}, err
	}
	return pkt.payload, pkt.from, nil
}

// maxRecvBurst bounds one RecvBatch pop; BatchRecver's contract is "up to
// min(len(pkts), len(froms))", so capping the burst only splits oversized
// requests across calls.
const maxRecvBurst = 64

// pktScratchPool recycles the []packet staging slices RecvBatch pops into,
// keeping the batch receive path allocation-free.
var pktScratchPool = sync.Pool{New: func() any {
	s := make([]packet, maxRecvBurst)
	return &s
}}

// RecvBatch implements transport.BatchRecver: one queue lock round-trip pops
// the whole burst — the simulated analogue of recvmmsg, and the receive-side
// mirror of SendBatch's single-lock putBatch.
func (e *DatagramEndpoint) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	max := min(len(pkts), len(froms), maxRecvBurst)
	if max == 0 {
		return 0, nil
	}
	sp := pktScratchPool.Get().(*[]packet)
	scratch := (*sp)[:max]
	n, err := e.q.getBatch(scratch, timeout)
	for i := 0; i < n; i++ {
		pkts[i], froms[i] = scratch[i].payload, scratch[i].from
		scratch[i] = packet{} // drop the payload reference: caller owns it now
	}
	pktScratchPool.Put(sp)
	return n, err
}

// RecvPoolStats implements transport.RecvPoolStats, reporting the simulator's
// shared packet-pool hit/miss counters.
func (e *DatagramEndpoint) RecvPoolStats() (hits, misses int64) { return pktBufStats() }

// LocalAddr implements transport.Datagram.
func (e *DatagramEndpoint) LocalAddr() transport.Addr { return e.addr }

// MaxDatagram implements transport.Datagram.
func (e *DatagramEndpoint) MaxDatagram() int { return e.net.cfg.MaxDatagram }

// PathMTU implements transport.Datagram.
func (e *DatagramEndpoint) PathMTU() int { return e.net.cfg.MTU }

// Recycle implements transport.Recycler: consumers hand fully-processed
// receive buffers back to the simulator's packet pools.
func (e *DatagramEndpoint) Recycle(p []byte) { putPktBuf(p) }

// Close implements transport.Datagram.
func (e *DatagramEndpoint) Close() error {
	e.net.dropDatagram(e.addr)
	e.q.close()
	return nil
}
