package simnet

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// packet is one datagram in flight.
type packet struct {
	payload []byte
	from    transport.Addr
}

// queue is a bounded FIFO of packets supporting blocking put with
// backpressure, timed get, and close. It is the receive queue of a
// simulated socket.
type queue struct {
	mu     sync.Mutex
	q      []packet
	cap    int
	closed bool
	avail  chan struct{} // pulsed when data arrives
	space  chan struct{} // pulsed when space frees up
	done   chan struct{} // closed on close()
}

func newQueue(capacity int) *queue {
	return &queue{
		cap:   capacity,
		avail: make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

func pulse(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends pkt, blocking while the queue is full. Returns
// transport.ErrClosed if the queue closes.
func (q *queue) put(pkt packet) error {
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return transport.ErrClosed
		}
		if len(q.q) < q.cap {
			q.q = append(q.q, pkt)
			q.mu.Unlock()
			pulse(q.avail)
			return nil
		}
		q.mu.Unlock()
		select {
		case <-q.space:
		case <-q.done:
			return transport.ErrClosed
		}
	}
}

// get pops the head packet. A zero timeout blocks until data or close.
// The timeout timer is armed lazily: a queue with data ready (the common
// case under load) never touches the runtime timer heap.
func (q *queue) get(timeout time.Duration) (packet, error) {
	var timer *time.Timer
	var tch <-chan time.Time
	for {
		q.mu.Lock()
		if len(q.q) > 0 {
			pkt := q.q[0]
			q.q[0] = packet{}
			q.q = q.q[1:]
			if len(q.q) == 0 {
				// Reset backing storage so the slice does not grow without
				// bound as the window slides.
				q.q = nil
			}
			q.mu.Unlock()
			pulse(q.space)
			return pkt, nil
		}
		if q.closed {
			q.mu.Unlock()
			return packet{}, transport.ErrClosed
		}
		q.mu.Unlock()
		if timeout > 0 && timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
			tch = timer.C
		}
		select {
		case <-q.avail:
		case <-tch:
			return packet{}, transport.ErrTimeout
		case <-q.done:
		}
	}
}

// putBatch appends a burst of packets under one lock acquisition, blocking
// while the queue is full, and returns the number enqueued. This is the
// receive-side half of transport.BatchSender: a whole segmented message
// costs one (or a few, under backpressure) lock round-trips instead of one
// per packet. Packets not enqueued on close are recycled here.
func (q *queue) putBatch(pkts []packet) (int, error) {
	i := 0
	for i < len(pkts) {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			for _, pk := range pkts[i:] {
				putPktBuf(pk.payload)
			}
			return i, transport.ErrClosed
		}
		for i < len(pkts) && len(q.q) < q.cap {
			q.q = append(q.q, pkts[i])
			i++
		}
		q.mu.Unlock()
		pulse(q.avail)
		if i == len(pkts) {
			return i, nil
		}
		select {
		case <-q.space:
		case <-q.done:
		}
	}
	return i, nil
}

// getBatch pops up to max packets into dst under one lock acquisition — the
// receive-side mirror of putBatch. It blocks for the FIRST packet exactly
// like get (zero timeout blocks until data or close), then takes whatever
// else is already queued without waiting. Returns the number popped; n ≥ 1
// on nil error.
func (q *queue) getBatch(dst []packet, timeout time.Duration) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	var timer *time.Timer
	var tch <-chan time.Time
	for {
		q.mu.Lock()
		if k := len(q.q); k > 0 {
			n := min(k, len(dst))
			copy(dst, q.q[:n])
			for i := range q.q[:n] {
				q.q[i] = packet{}
			}
			q.q = q.q[n:]
			if len(q.q) == 0 {
				q.q = nil
			} else {
				// More data remains and other readers may be parked on the
				// cap-1 avail pulse this wakeup consumed; re-pulse so a
				// concurrent reader is not stranded (lost-wakeup cascade).
				pulse(q.avail)
			}
			q.mu.Unlock()
			pulse(q.space)
			return n, nil
		}
		if q.closed {
			q.mu.Unlock()
			return 0, transport.ErrClosed
		}
		q.mu.Unlock()
		if timeout > 0 && timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
			tch = timer.C
		}
		select {
		case <-q.avail:
		case <-tch:
			return 0, transport.ErrTimeout
		case <-q.done:
		}
	}
}

// putDrop appends pkt without blocking, dropping it when the queue is full
// (ack traffic: losing one is harmless, the next ack is cumulative).
func (q *queue) putDrop(pkt packet) {
	q.mu.Lock()
	if q.closed || len(q.q) >= q.cap {
		q.mu.Unlock()
		putPktBuf(pkt.payload)
		return
	}
	q.q = append(q.q, pkt)
	q.mu.Unlock()
	pulse(q.avail)
}

// tryGet pops the head packet without blocking; it fails on an empty or
// closed-and-drained queue.
func (q *queue) tryGet() (packet, error) {
	q.mu.Lock()
	if len(q.q) == 0 {
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return packet{}, transport.ErrClosed
		}
		return packet{}, transport.ErrTimeout
	}
	pkt := q.q[0]
	q.q[0] = packet{}
	q.q = q.q[1:]
	if len(q.q) == 0 {
		q.q = nil
	}
	q.mu.Unlock()
	pulse(q.space)
	return pkt, nil
}

// len reports the number of queued packets.
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q)
}

// close marks the queue closed; queued packets remain readable until
// drained, after which get returns transport.ErrClosed.
func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.done)
}
