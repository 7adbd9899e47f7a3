package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sip"
	"repro/internal/sockif"
	"repro/internal/transport"
)

// sip-churn: SipStone basic calls (INVITE/180/200, ACK, BYE/200) against
// one long-lived sip.Server socket. Callers are independent users, so the
// load is an open loop: calls arrive on a seeded Poisson schedule and each
// runs on a freshly opened client socket that is closed after BYE. A unit
// op is one call; its latency runs from its scheduled time to the INVITE's
// 200 OK. telemetry.Default is scraped at a fixed period throughout, as a
// monitoring agent would.

const (
	// sipRate is the arrival rate, in calls per second; the stack
	// sustains it with little queueing.
	sipRate = 250
	// sipCallers bounds the calls in flight; an arrival that finds both
	// busy waits, and the wait counts in its latency.
	sipCallers = 2
	// sipTimeout bounds each request/response exchange of a call.
	sipTimeout = 2 * time.Second
	// scrapePeriod is the monitoring agent's scrape interval.
	scrapePeriod = 100 * time.Millisecond
	// maxScheduleSeconds is how far ahead the arrival schedule reaches.
	maxScheduleSeconds = 70
)

func prepareSIPChurn(seed int64) opener {
	r := rand.New(rand.NewSource(seed))
	var arrivals []time.Duration
	for t := 0.0; t < maxScheduleSeconds; {
		t += r.ExpFloat64() / sipRate
		arrivals = append(arrivals, time.Duration(t*float64(time.Second)))
	}
	return func(tr *tracer) (instance, error) { return openSIP(arrivals, tr) }
}

type sipStack struct {
	arrivals []time.Duration
	tr       *tracer
	ifc      *sockif.Interface
	srvSock  *sockif.Socket
	srv      *sip.Server
	srvAddr  transport.Addr

	stop     chan struct{}
	wg       sync.WaitGroup
	serveErr atomic.Value // error that ended the server loop early
}

func openSIP(arrivals []time.Duration, tr *tracer) (*sipStack, error) {
	st := &sipStack{arrivals: arrivals, tr: tr, stop: make(chan struct{})}
	st.ifc = sockif.New(sockif.Config{
		OpenDatagram: func(port uint16) (transport.Datagram, error) {
			start := time.Now()
			ep, err := transport.ListenUDP("127.0.0.1", port)
			tr.record(spTransportOpen, start, 1, 0, 0, 0)
			if err != nil || tr == nil {
				return ep, err
			}
			w, err := wrapDatagram(ep, tr, kernelSeam)
			if err != nil {
				ep.Close()
			}
			return w, err
		},
	})
	sock, err := st.ifc.Socket(sockif.DatagramSocket)
	if err != nil {
		return nil, err
	}
	st.srvSock, st.srv, st.srvAddr = sock, sip.NewServer(sock), sock.LocalAddr()
	st.wg.Add(1)
	go st.serve()
	return st, nil
}

// serve is the server's main loop, timed per receive, until stop.
func (st *sipStack) serve() {
	defer st.wg.Done()
	buf := make([]byte, 4096)
	for {
		select {
		case <-st.stop:
			return
		default:
		}
		start := time.Now()
		n, from, err := st.srvSock.RecvFrom(buf, 20*time.Millisecond)
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			st.serveErr.Store(err)
			return
		}
		st.tr.record(spSockRecvFrom, start, 1, n, 0, 0)
		st.srv.Handle(buf[:n], from)
	}
}

func (st *sipStack) run(seconds float64, limit int64) phase {
	d := time.Duration(seconds * float64(time.Second))
	calls := 0
	for calls < len(st.arrivals) && int64(calls) < limit && st.arrivals[calls] < d {
		calls++
	}
	srvBefore := st.srv.Stats()

	start := time.Now()
	var next atomic.Int64
	parts := make([]phase, sipCallers)
	totals := make([][]time.Duration, sipCallers)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= calls {
					return
				}
				if total, ok := st.call(start.Add(st.arrivals[i]), uint32(i+1), &parts[c]); ok {
					totals[c] = append(totals[c], total)
				}
			}
		}(c)
	}
	scrapeDone := make(chan struct{})
	scraperDone := make(chan error, 1)
	go func() { scraperDone <- st.scrapeLoop(scrapeDone) }()
	wg.Wait()
	end := time.Now()
	close(scrapeDone)

	var ph phase
	for _, p := range parts {
		ph.merge(p)
	}
	ph.elapsed = end.Sub(start)
	if err := <-scraperDone; err != nil {
		ph.fail("telemetry scrape: %v", err)
	}
	if err, _ := st.serveErr.Load().(error); err != nil {
		ph.fail("server RecvFrom: %v", err)
	}
	// Every call must have reached the terminated state on the server:
	// its dialog created by INVITE, acknowledged, and removed by BYE.
	srv := st.srv.Stats()
	ok := ph.attempted - ph.failed
	inv, acks, byes := srv.Invites-srvBefore.Invites, srv.Acks-srvBefore.Acks, srv.Byes-srvBefore.Byes
	if inv != ph.attempted || acks != ok || byes != ok || st.srv.Calls() != 0 || srv.Malformed != 0 {
		ph.fail("server saw %d INVITE, %d ACK, %d BYE, %d malformed for %d calls (%d completed); %d dialogs left open",
			inv, acks, byes, srv.Malformed, ph.attempted, ok, st.srv.Calls())
	}
	var all []time.Duration
	for _, t := range totals {
		all = append(all, t...)
	}
	sortDurations(all)
	ph.layer = map[string]float64{"sip.call_total_us": micros(quantile(all, 0.99))}
	return ph
}

// call runs one scheduled call on a fresh socket and reports its total
// duration from sip.Client.Call.
func (st *sipStack) call(sched time.Time, id uint32, ph *phase) (time.Duration, bool) {
	if d := time.Until(sched); d > 0 {
		time.Sleep(d)
	}
	ph.late = append(ph.late, time.Since(sched))
	ph.attempted++
	start := time.Now()
	sock, err := st.ifc.Socket(sockif.DatagramSocket)
	st.tr.record(spSockSocket, start, 1, 0, 0, id)
	if err != nil {
		ph.fail("call %d: Socket: %v", id, err)
		return 0, false
	}
	start = time.Now()
	inviteRT, total, err := sip.NewClient(sock, st.srvAddr).Call(sipTimeout)
	st.tr.record(spSipCall, start, 1, 0, 0, id)
	ss := sock.Stats()
	closeStart := time.Now()
	cerr := sock.Close()
	st.tr.record(spSockClose, closeStart, 1, 0, 0, id)
	switch {
	case err != nil:
		ph.fail("call %d: %v", id, err)
		return 0, false
	case cerr != nil:
		ph.fail("call %d: Close: %v", id, cerr)
		return 0, false
	}
	// The call's payload: requests the server verified by completing the
	// dialog, and responses the client parsed.
	ph.complete(start.Add(inviteRT).Sub(sched), ss.BytesSent+ss.BytesReceived)
	return total, true
}

// scrapeLoop scrapes telemetry.Default every scrapePeriod until done.
func (st *sipStack) scrapeLoop(done chan struct{}) error {
	var buf bytes.Buffer
	t := time.NewTicker(scrapePeriod)
	defer t.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-t.C:
			if err := scrape(st.tr, &buf); err != nil {
				return fmt.Errorf("scrape: %w", err)
			}
		}
	}
}

func (st *sipStack) counters(map[string]float64) {}

func (st *sipStack) close() error {
	close(st.stop)
	st.wg.Wait()
	return st.srvSock.Close()
}
