// Package transport defines the Lower Layer Protocol (LLP) abstraction the
// iWARP stack runs over, mirroring the paper's Figure 4: the same DDP/RDMAP
// code binds to a reliable byte stream (TCP — the standard's RC mode) or to
// an unreliable datagram service (UDP — the paper's datagram-iWARP mode).
//
// Three interchangeable LLP families implement these interfaces:
//
//   - package simnet: an in-process simulated network with configurable MTU
//     and per-fragment loss (stands in for the testbed + tc/netem loss
//     injection used in the paper's evaluation); package faultnet wraps any
//     Datagram to add reordering, duplication and the other faults;
//   - this package's udp.go / tcp.go: real kernel sockets, used by the
//     cmd/iwarpd demo daemon and available to all benchmarks;
//   - package rudp: a reliable-datagram layer (the paper's "reliable UDP"
//     supplement) stacked on any Datagram.
package transport

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/peertab"
)

// Errors shared by every LLP implementation.
var (
	// ErrTimeout reports that a receive deadline elapsed with no data. The
	// paper makes timeout-based polling mandatory for datagram-iWARP: "it is
	// essential that the completion queue be polled with a defined timeout
	// period" because a lost datagram means the matching completion never
	// arrives.
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrClosed reports use of a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTooLarge reports a datagram exceeding MaxDatagram.
	ErrTooLarge = errors.New("transport: datagram exceeds maximum size")
	// ErrNoRoute reports an unknown destination address.
	ErrNoRoute = errors.New("transport: no route to destination")
)

// MaxDatagramSize is the largest payload a single datagram may carry,
// matching the UDP limit the paper cites ("datagrams are technically defined
// up to a maximum size of 64 KB", minus headers).
const MaxDatagramSize = 65507

// DefaultMTU is the wire MTU assumed throughout the evaluation (standard
// Ethernet, "WANs normally run using a 1500 byte MTU").
const DefaultMTU = 1500

// Addr identifies an LLP endpoint: a node (hostname or IP text) and a port.
// It is comparable and usable as a map key, which the UD completion path
// relies on to report datagram sources back to applications.
type Addr struct {
	Node string
	Port uint16
}

func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Node, a.Port) }

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.Node == "" && a.Port == 0 }

// Hash is the stack's one peer hash: FNV-1a over the node name, then the
// port. The UD placement workers and every per-peer table (core, rudp,
// msg) shard by it, so one peer lands on the same index at every layer.
//
//diwarp:hotpath
func (a Addr) Hash() uint32 {
	return peertab.HashUint32(peertab.HashString(peertab.Seed(), a.Node), uint32(a.Port))
}

// Datagram is a connectionless, message-boundary-preserving LLP endpoint —
// the service UDP provides. Implementations may silently drop, reorder, or
// duplicate messages; the iWARP layers above are designed for exactly that.
type Datagram interface {
	// SendTo transmits one datagram to the destination. It may block for
	// flow control but never blocks awaiting the receiver's application.
	// Implementations must not retain p after SendTo returns: the caller
	// may recycle the buffer immediately, as a pooled datapath does.
	SendTo(p []byte, to Addr) error
	// Recv returns the next datagram and its source. A zero timeout blocks
	// until data or close; otherwise ErrTimeout is returned when the
	// deadline passes. The returned slice is owned by the caller.
	Recv(timeout time.Duration) ([]byte, Addr, error)
	// LocalAddr returns the bound address.
	LocalAddr() Addr
	// MaxDatagram returns the largest sendable payload in bytes.
	MaxDatagram() int
	// PathMTU returns the wire MTU below which a datagram avoids
	// fragmentation — the efficiency knee in Figures 7 and 8.
	PathMTU() int
	// Close releases the endpoint; concurrent Recv calls return ErrClosed.
	Close() error
}

// BatchSender is an optional interface a Datagram implementation may
// provide: SendBatch transmits a burst of datagrams to one destination,
// amortizing per-send costs (address resolution, queue locking, eventually
// sendmmsg) across the batch. It returns the number of datagrams handed to
// the network before any error. Loss models and kernel drops do NOT count
// as errors — like SendTo, handing a datagram to a lossy network succeeds.
// Implementations must not retain any packet buffer after returning, so
// callers can recycle the whole batch immediately.
//
// The segmented DDP send path probes for this interface once per message
// and falls back to per-packet SendTo when it is absent.
type BatchSender interface {
	SendBatch(pkts [][]byte, to Addr) (int, error)
}

// BatchRecver is an optional interface a Datagram implementation may
// provide: RecvBatch fills pkts and froms with up to min(len(pkts),
// len(froms)) datagrams, amortizing per-receive costs (queue locking,
// deadline arming, eventually recvmmsg) across the burst — the receive-side
// mirror of BatchSender. It blocks up to timeout for the FIRST datagram
// (zero blocks until data or close, like Recv) and then drains whatever
// else is immediately available without waiting. It returns the number of
// datagrams received; n ≥ 1 on nil error. Buffer ownership matches Recv:
// each pkts[i] is owned by the caller, which may hand it back through
// Recycler once consumed.
//
// The DDP datagram channel probes for this interface once per channel and
// falls back to per-packet Recv when it is absent.
type BatchRecver interface {
	RecvBatch(pkts [][]byte, froms []Addr, timeout time.Duration) (int, error)
}

// RecvPoolStats is an optional interface a Datagram implementation may
// provide, reporting its receive-buffer pool's cumulative hit/miss
// counters. The layer above re-exports them as telemetry so pool health is
// observable without coupling this package to the telemetry registry.
type RecvPoolStats interface {
	RecvPoolStats() (hits, misses int64)
}

// Recycler is an optional interface a Datagram implementation may provide:
// a receiver that has fully consumed a buffer returned by Recv can hand it
// back for reuse, bounding the datapath's allocation rate the way a real
// stack recycles its receive-ring buffers. Recycling is always optional and
// buffers from foreign sources must be tolerated (and dropped).
type Recycler interface {
	Recycle(p []byte)
}

// Stream is a connected, reliable, ordered byte stream — the service TCP
// provides to standard iWARP. Message boundaries are NOT preserved, which is
// why the MPA layer exists in RC mode.
type Stream interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	Close() error
	LocalAddr() Addr
	RemoteAddr() Addr
}

// Listener accepts incoming stream connections for RC mode.
type Listener interface {
	Accept() (Stream, error)
	Addr() Addr
	Close() error
}
