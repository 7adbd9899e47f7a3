package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"repro/internal/msg"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// The seam wrappers must not change the path the stack takes: every
// optional interface of the wrapped endpoint stays visible, and the batch
// capabilities the probe picked read the same through the wrapper.
func TestSeamsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	udp, err := transport.ListenUDP("127.0.0.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{})
	sim, err := net.OpenDatagram("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := net.OpenDatagram("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	rd := rudp.New(sim2)
	for _, inner := range []transport.Datagram{udp, sim, rd} {
		w, err := wrapDatagram(inner, tr, kernelSeam)
		if err != nil {
			t.Fatalf("%T: %v", inner, err)
		}
		if got, want := optionalSet(w), optionalSet(inner); got != want {
			t.Errorf("%T: wrapper exposes optional set %05b, endpoint has %05b", inner, got, want)
		}
		if bc, ok := inner.(transport.BatchCapabilities); ok {
			if got, want := w.(transport.BatchCapabilities).BatchFeatures(), bc.BatchFeatures(); got != want {
				t.Errorf("%T: wrapper reports %v, endpoint %v", inner, got, want)
			}
		}
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}

	lis, err := net.Listen("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		if s, err := lis.Accept(); err == nil {
			s.Close()
		}
	}()
	s, err := net.Dial("c", lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, has := s.(memFootprinter)
	_, wrappedHas := wrapStream(s, tr).(memFootprinter)
	if !has || !wrappedHas {
		t.Errorf("stream MemFootprint: endpoint %v, wrapper %v; want both", has, wrappedHas)
	}
}

// A short seeded run of each workload delivers the same ops, all verified,
// on the plain stack and on the stack built with seam wrappers, and the
// wrappers record spans, so they are in the path.
func TestTracedStackDeliversTheSame(t *testing.T) {
	const seed, ops = 7, 150
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			open := w.prepare(seed)
			tr := newTracer()
			var counts [2]int
			for i, tracer := range []*tracer{nil, tr} {
				inst, err := open(tracer)
				if err != nil {
					t.Fatal(err)
				}
				ph := inst.run(60, ops)
				if err := inst.close(); err != nil {
					t.Error(err)
				}
				if ph.failed != 0 || len(ph.lat) == 0 {
					t.Fatalf("traced=%v: %d of %d ops failed, %d delivered: %v",
						tracer != nil, ph.failed, ph.attempted, len(ph.lat), ph.problems)
				}
				counts[i] = len(ph.lat)
			}
			if counts[0] != counts[1] {
				t.Errorf("plain stack delivered %d ops, traced stack %d", counts[0], counts[1])
			}
			if tr.next.Load() == 0 {
				t.Error("traced stack recorded no spans")
			}
		})
	}
}

// The tensor check rejects a corrupted byte and a second delivery.
func TestTensorCheckCountsBadDeliveries(t *testing.T) {
	in := genTensors(3)
	ts := &tensorStack{in: in}
	for i := range ts.rx {
		ts.rx[i] = &tensorRx{}
	}
	const seq = 5
	good := append([]byte(nil), in.bufs[0][in.sched[0][seq]]...)
	binary.BigEndian.PutUint32(good[4:8], seq)
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1

	ts.deliver(0, msg.Message{Data: bad})
	ts.deliver(0, msg.Message{Data: good})
	ts.deliver(0, msg.Message{Data: good})
	ph := ts.rx[0].ph
	if len(ph.lat) != 1 || ph.failed != 2 {
		t.Errorf("want 1 verified and 2 failed deliveries, got %d and %d: %v", len(ph.lat), ph.failed, ph.problems)
	}
}

// BENCHMARK.json at the repository root is what -describe prints.
func TestBenchmarkJSONMatchesDescription(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b bytes.Buffer
	if err := writeDescription(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, b.Bytes()) {
		t.Errorf("BENCHMARK.json differs from -describe; regenerate it with go run . -describe > ../BENCHMARK.json")
	}
}
