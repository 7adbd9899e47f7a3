package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// rc-stream: one RC connection over a simnet stream, so every byte goes
// through MPA framing (markers, CRC) and simnet's stream. A unit op is a
// 64 KiB RDMA Write into one slot of the receiver's region followed by a
// small stamped Send (the Figure 3 completion pattern); the receiver
// byte-compares the slot against the sender's copy when the notify
// completes. Stream backpressure closes the loop; a slot is reused only
// after the receiver has checked it.

const (
	rcWriteSize = 64 << 10
	rcSlots     = 16
	rcNotifyLen = 16 // sequence (8), slot (4), content offset (4)
	rcPoolSize  = 4 << 20
	rcRecvs     = 2 * rcSlots
)

// rcInputs is the seeded content pool and the per-op offsets into it.
type rcInputs struct {
	pool    []byte
	offsets []uint32 // by sequence mod schedLen
}

func prepareRCStream(seed int64) opener {
	r := rand.New(rand.NewSource(seed))
	in := &rcInputs{pool: make([]byte, rcPoolSize), offsets: make([]uint32, schedLen)}
	r.Read(in.pool)
	for i := range in.offsets {
		in.offsets[i] = uint32(r.Intn(rcPoolSize - rcWriteSize))
	}
	return func(tr *tracer) (instance, error) { return openRC(in, seed, tr) }
}

type rcStack struct {
	in         *rcInputs
	tr         *tracer
	lis        transport.Listener
	qpA, qpB   *iwarp.RCQP
	scqA, rcqB *iwarp.CQ
	region     *memreg.Region
	recvBufs   [rcRecvs][]byte
	free       chan int // slots the receiver has verified
	notify     []byte
	next       uint64

	sentAt [schedLen]int64 // mono() at PostWrite; guarded by mu

	mu        sync.Mutex
	ph        phase
	delivered int64
	last      int64

	done chan struct{}
	wg   sync.WaitGroup
}

func openRC(in *rcInputs, seed int64, tr *tracer) (*rcStack, error) {
	net := simnet.New(simnet.Config{Seed: seed})
	lis, err := net.Listen("rcB", 0)
	if err != nil {
		return nil, err
	}
	st := &rcStack{in: in, tr: tr, lis: lis, free: make(chan int, rcSlots),
		notify: make([]byte, rcNotifyLen), done: make(chan struct{})}
	wrap := func(s transport.Stream) transport.Stream {
		if tr == nil {
			return s
		}
		return wrapStream(s, tr)
	}
	pdB, tblB := memreg.NewPD(), memreg.NewTable()
	st.rcqB = iwarp.NewCQ(4 * rcRecvs)
	type accepted struct {
		qp  *iwarp.RCQP
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		s, err := lis.Accept()
		if err != nil {
			acc <- accepted{nil, err}
			return
		}
		qp, _, err := iwarp.AcceptRC(wrap(s), pdB, tblB, iwarp.NewCQ(4*rcRecvs), st.rcqB, iwarp.RCConfig{}, nil)
		acc <- accepted{qp, err}
	}()
	s, err := net.Dial("rcA", lis.Addr())
	if err != nil {
		lis.Close()
		<-acc
		return nil, err
	}
	st.scqA = iwarp.NewCQ(4096)
	st.qpA, _, err = iwarp.ConnectRC(wrap(s), memreg.NewPD(), memreg.NewTable(), st.scqA, iwarp.NewCQ(4), iwarp.RCConfig{}, nil)
	a := <-acc
	st.qpB = a.qp
	if err == nil {
		err = a.err
	}
	if err == nil {
		st.region, err = tblB.Register(pdB, make([]byte, rcSlots*rcWriteSize), memreg.RemoteWrite)
	}
	for i := range st.recvBufs {
		if err != nil {
			break
		}
		st.recvBufs[i] = make([]byte, rcNotifyLen)
		err = st.qpB.PostRecv(uint64(i), st.recvBufs[i])
	}
	if err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < rcSlots; i++ {
		st.free <- i
	}
	st.wg.Add(1)
	go st.receive()
	return st, nil
}

// receive verifies each notify's slot and hands the slot back.
func (st *rcStack) receive() {
	defer st.wg.Done()
	for {
		start := time.Now()
		e, err := st.rcqB.Poll(20 * time.Millisecond)
		if errors.Is(err, iwarp.ErrCQEmpty) {
			select {
			case <-st.done:
				return
			default:
				continue
			}
		}
		now := mono()
		if err != nil {
			return
		}
		st.tr.record(spCQWait, start, 1, e.ByteLen, 0, 0)
		if e.Type != iwarp.WTRecv || !e.Ok() || e.ByteLen != rcNotifyLen || e.WRID >= rcRecvs {
			st.mu.Lock()
			st.delivered++
			st.ph.fail("notify completion %v %v (%d bytes): %v", e.Type, e.Status, e.ByteLen, e.Err)
			st.mu.Unlock()
			continue
		}
		buf := st.recvBufs[e.WRID]
		seq := binary.BigEndian.Uint64(buf[0:8])
		slot := int(binary.BigEndian.Uint32(buf[8:12]))
		off := binary.BigEndian.Uint32(buf[12:16])
		var problem string
		if slot >= rcSlots || off != st.in.offsets[seq%schedLen] {
			problem = fmt.Sprintf("op %d: notify names slot %d offset %d", seq, slot, off)
		} else if !bytes.Equal(st.region.Bytes()[slot*rcWriteSize:(slot+1)*rcWriteSize], st.in.pool[off:off+rcWriteSize]) {
			problem = fmt.Sprintf("op %d: slot %d differs from the bytes written", seq, slot)
		}
		if err := st.qpB.PostRecv(e.WRID, buf); err != nil {
			problem = fmt.Sprintf("repost receive: %v", err)
		}
		st.mu.Lock()
		st.delivered++
		st.last = now
		if problem != "" {
			st.ph.fail("%s", problem)
		} else {
			st.ph.complete(time.Duration(now-st.sentAt[seq%schedLen]), rcWriteSize)
			st.tr.record(spOp, monoTime(st.sentAt[seq%schedLen]), 1, rcWriteSize, 0, uint32(seq))
		}
		st.mu.Unlock()
		if slot < rcSlots {
			st.free <- slot
		}
	}
}

func (st *rcStack) run(seconds float64, limit int64) phase {
	st.mu.Lock()
	st.ph, st.delivered = phase{}, 0
	st.mu.Unlock()
	start := mono()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var sender phase
	var sent int64
	for sent < limit && time.Now().Before(deadline) {
		var slot int
		select {
		case slot = <-st.free:
		case <-time.After(drainTimeout):
			sender.fail("no slot verified within %v", drainTimeout)
		}
		if sender.failed > 0 {
			break
		}
		if err := st.post(slot); err != nil {
			sender.attempted++
			sender.fail("op %d: %v", st.next-1, err)
			break
		}
		sender.attempted++
		sent++
	}
	stop := time.Now().Add(drainTimeout)
	for {
		st.mu.Lock()
		n := st.delivered
		st.mu.Unlock()
		if n >= sent || time.Now().After(stop) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ph := st.ph
	st.ph = phase{}
	ph.merge(sender)
	if missing := sent - st.delivered; missing > 0 {
		ph.failed += missing - 1
		ph.fail("%d of %d notifies not delivered within %v", missing, sent, drainTimeout)
	}
	ph.elapsed = time.Duration(max(st.last, start) - start)
	return ph
}

// post issues one op: the Write into slot and its stamped notify.
func (st *rcStack) post(slot int) error {
	seq := st.next
	st.next++
	off := st.in.offsets[seq%schedLen]
	binary.BigEndian.PutUint64(st.notify[0:8], seq)
	binary.BigEndian.PutUint32(st.notify[8:12], uint32(slot))
	binary.BigEndian.PutUint32(st.notify[12:16], off)
	start := time.Now()
	st.mu.Lock()
	st.sentAt[seq%schedLen] = start.Sub(clockBase).Nanoseconds()
	st.mu.Unlock()
	if err := st.qpA.PostWrite(seq, st.region.STag(), uint64(slot*rcWriteSize), nio.VecOf(st.in.pool[off:off+rcWriteSize])); err != nil {
		return fmt.Errorf("PostWrite: %w", err)
	}
	if err := st.qpA.PostSend(seq, nio.VecOf(st.notify)); err != nil {
		return fmt.Errorf("PostSend: %w", err)
	}
	st.tr.record(spCorePost, start, 2, rcWriteSize+rcNotifyLen, 0, uint32(seq))
	for {
		e, err := st.scqA.Poll(0)
		if err != nil {
			return nil
		}
		if !e.Ok() {
			return fmt.Errorf("send completion %v: %v", e.Status, e.Err)
		}
	}
}

func (st *rcStack) counters(map[string]float64) {}

func (st *rcStack) close() error {
	close(st.done)
	st.wg.Wait()
	var first error
	for _, qp := range []*iwarp.RCQP{st.qpA, st.qpB} {
		if qp != nil {
			if err := qp.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := st.lis.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
