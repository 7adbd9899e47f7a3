// Package mpa implements Marker PDU Aligned framing (Culley et al., RDMA
// Consortium 2002): the adaptation shim that lets the message-oriented DDP
// layer ride the stream-oriented TCP. Each upper-layer PDU (ULPDU) is
// wrapped in an FPDU carrying a length header, pad, and CRC32C; markers are
// inserted into the byte stream every MarkerInterval octets, each pointing
// back at the FPDU header so a receiver can resynchronise after middle-box
// resegmentation.
//
// The paper's motivation for datagram-iWARP starts here: "packet marking ...
// is a high overhead activity and is very expensive to implement in
// hardware" (§IV.A), while "such functionality is not needed for datagrams
// as they have defined message boundaries" (§II). Datagram mode bypasses
// this package entirely (Figure 2: "MPA bypassed for datagrams"); RC mode
// pays for it on every byte. The cost difference between those two paths is
// physical, not simulated: the marker copies and CRC below execute for real
// in the RC benchmarks.
//
// Simplification vs. the wire spec: the CRC is computed over the unmarked
// FPDU rather than the marked byte stream, which keeps the per-byte cost
// identical while making the framing logic independent of marker phase.
package mpa

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/crcx"
	"repro/internal/nio"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Framing and negotiation errors.
var (
	ErrCRC       = errors.New("mpa: FPDU CRC mismatch")
	ErrTooLong   = errors.New("mpa: ULPDU exceeds MULPDU")
	ErrBadFrame  = errors.New("mpa: malformed FPDU")
	ErrBadReqRep = errors.New("mpa: malformed MPA request/reply frame")
	ErrRejected  = errors.New("mpa: connection rejected by responder")
)

// DefaultMarkerInterval is the spec-mandated 512-octet marker period.
const DefaultMarkerInterval = 512

// markerLen is the size of one marker: a 16-bit FPDU pointer plus 16 bits
// reserved.
const markerLen = 4

// DefaultMaxULPDU sizes FPDUs so that one FPDU plus TCP/IP headers fits an
// Ethernet frame (1500 - 20 IP - 20 TCP - 2 len - 4 CRC - worst-case one
// marker), matching how an RNIC picks its MULPDU from the path MSS.
const DefaultMaxULPDU = 1450

// Config parameterises an MPA connection.
type Config struct {
	// MarkerInterval is the marker period in stream octets; 0 disables
	// markers (legal per spec if both sides agree — our "markerless RC"
	// ablation). Default DefaultMarkerInterval.
	MarkerInterval int
	// DisableCRC turns off the FPDU CRC (the spec allows disabling it when
	// the LLP checksum is trusted — the CRC ablation benchmark).
	DisableCRC bool
	// MaxULPDU is the largest ULPDU carried in one FPDU.
	// Default DefaultMaxULPDU.
	MaxULPDU int
}

func (c Config) withDefaults() Config {
	if c.MarkerInterval == 0 {
		c.MarkerInterval = DefaultMarkerInterval
	}
	if c.MarkerInterval < 0 {
		c.MarkerInterval = 0 // explicit "no markers"
	}
	if c.MaxULPDU == 0 {
		c.MaxULPDU = DefaultMaxULPDU
	}
	return c
}

// Conn frames ULPDUs over a reliable stream. One goroutine may call Send
// concurrently with one goroutine calling Recv; Send and Recv are
// individually serialised by internal locks.
type Conn struct {
	stream transport.Stream
	cfg    Config

	sendMu  sync.Mutex
	sendPos uint64 // octets of marked stream emitted so far
	sendBuf []byte

	recvMu   sync.Mutex
	recvPos  uint64
	rd       io.Reader
	ulpduBuf []byte

	// Buffer capacities mirrored atomically so BufferFootprint never
	// contends with a receive loop blocked inside Recv holding recvMu.
	sendBufCap atomic.Int64
	recvBufCap atomic.Int64

	// crcFail counts FPDUs rejected on CRC, in the connection's telemetry
	// scope (DESIGN.md §4.6). On RC a CRC failure is fatal to the
	// connection, so a non-zero count pairs with a torn-down QP.
	scope   *telemetry.Scope
	crcFail *telemetry.Counter
}

// NewConn wraps an established stream (after any MPA negotiation) with the
// given framing configuration. Both ends must use identical Config — that
// is what Connect/Accept negotiate.
func NewConn(s transport.Stream, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	sc := telemetry.Default.Scope()
	return &Conn{
		stream:  s,
		cfg:     cfg,
		rd:      s,
		scope:   sc,
		crcFail: sc.Counter("diwarp_mpa_crc_fail_total"),
	}
}

// MaxULPDU reports the largest payload Send accepts.
func (c *Conn) MaxULPDU() int { return c.cfg.MaxULPDU }

// Stream returns the underlying transport stream.
func (c *Conn) Stream() transport.Stream { return c.stream }

// BufferFootprint reports the bytes of framing buffers the connection has
// grown (send assembly, receive reassembly), for socket memory accounting.
// Lock-free: reads atomic mirrors so it is safe to call while the receive
// loop is blocked mid-Recv.
func (c *Conn) BufferFootprint() int64 {
	return c.sendBufCap.Load() + c.recvBufCap.Load()
}

// Close closes the underlying stream and retires the connection's
// telemetry.
func (c *Conn) Close() error {
	defer c.scope.Close()
	return c.stream.Close()
}

// Send frames one ULPDU (given as a gather vector) into an FPDU, inserts
// any markers that fall within it, and writes it to the stream.
func (c *Conn) Send(ulpdu nio.Vec) error {
	n := ulpdu.Len()
	if n > c.cfg.MaxULPDU {
		return fmt.Errorf("%w: %d > %d", ErrTooLong, n, c.cfg.MaxULPDU)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()

	// Assemble the unmarked FPDU: 2-byte length, payload, pad to 4, CRC.
	pad := (4 - (2+n)%4) % 4
	raw := c.sendBuf[:0]
	raw = nio.PutU16(raw, uint16(n))
	for _, seg := range ulpdu {
		raw = append(raw, seg...)
	}
	for i := 0; i < pad; i++ {
		raw = append(raw, 0)
	}
	if !c.cfg.DisableCRC {
		raw = nio.PutU32(raw, crcx.Checksum(raw))
	}
	c.sendBuf = raw[:0] // keep the (possibly grown) backing array
	c.sendBufCap.Store(int64(cap(raw)))

	return c.writeMarked(raw)
}

// writeMarked emits raw into the stream, inserting a marker whenever the
// stream position crosses a multiple of the marker interval. The marker's
// FPDU pointer records the distance back to the current FPDU's start.
func (c *Conn) writeMarked(raw []byte) error {
	mi := c.cfg.MarkerInterval
	if mi == 0 {
		_, err := c.stream.Write(raw)
		c.sendPos += uint64(len(raw))
		return err
	}
	fpduStart := c.sendPos
	out := make([]byte, 0, len(raw)+markerLen*(len(raw)/mi+2))
	for len(raw) > 0 {
		if c.sendPos%uint64(mi) == 0 {
			back := c.sendPos - fpduStart
			out = nio.PutU16(out, uint16(back))
			out = nio.PutU16(out, 0)
			c.sendPos += markerLen
			// Markers occupy stream octets but do not move the marker
			// phase: the next marker is one interval after this one, so
			// account for the marker bytes against the interval.
		}
		room := mi - int(c.sendPos%uint64(mi))
		k := min(room, len(raw))
		out = append(out, raw[:k]...)
		raw = raw[k:]
		c.sendPos += uint64(k)
	}
	_, err := c.stream.Write(out)
	return err
}

// readUnmarked fills p with the next len(p) octets of unmarked FPDU data,
// consuming and discarding any markers encountered.
func (c *Conn) readUnmarked(p []byte) error {
	mi := c.cfg.MarkerInterval
	if mi == 0 {
		_, err := io.ReadFull(c.rd, p)
		c.recvPos += uint64(len(p))
		return err
	}
	var mk [markerLen]byte
	for len(p) > 0 {
		if c.recvPos%uint64(mi) == 0 {
			if _, err := io.ReadFull(c.rd, mk[:]); err != nil {
				return err
			}
			c.recvPos += markerLen
		}
		room := mi - int(c.recvPos%uint64(mi))
		k := min(room, len(p))
		if _, err := io.ReadFull(c.rd, p[:k]); err != nil {
			return err
		}
		c.recvPos += uint64(k)
		p = p[k:]
	}
	return nil
}

// Recv reads the next ULPDU from the stream, verifying the FPDU CRC. The
// returned slice is valid until the next Recv call.
func (c *Conn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()

	var hdr [2]byte
	if err := c.readUnmarked(hdr[:]); err != nil {
		return nil, err
	}
	n := int(nio.U16(hdr[:]))
	if n > c.cfg.MaxULPDU {
		return nil, fmt.Errorf("%w: length %d > MULPDU %d", ErrBadFrame, n, c.cfg.MaxULPDU)
	}
	pad := (4 - (2+n)%4) % 4
	rest := n + pad
	if !c.cfg.DisableCRC {
		rest += crcx.Size
	}
	if cap(c.ulpduBuf) < rest {
		c.ulpduBuf = make([]byte, rest)
		c.recvBufCap.Store(int64(cap(c.ulpduBuf)))
	}
	body := c.ulpduBuf[:rest]
	if err := c.readUnmarked(body); err != nil {
		return nil, err
	}
	if !c.cfg.DisableCRC {
		want := nio.U32(body[n+pad:])
		got := crcx.Update(crcx.Checksum(hdr[:]), body[:n+pad])
		if got != want {
			c.crcFail.Inc()
			telemetry.DefaultTrace.Record(telemetry.EvCRCFail, telemetry.PeerToken(c.stream.RemoteAddr()), n, 0)
			return nil, ErrCRC
		}
	}
	return body[:n], nil
}
