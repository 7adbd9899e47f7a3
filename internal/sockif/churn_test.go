package sockif

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestUDPSocketChurnReleasesTelemetry opens and closes kernel UDP sockets
// in rounds — the shape of a SIP server taking one short call per socket —
// and pins that nothing a closed socket registered outlives it: the
// registry's live handle count returns to its pre-churn value, retained
// heap stays flat, and the scrape neither grows nor drops a series.
func TestUDPSocketChurnReleasesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("opens 9,000 kernel sockets")
	}
	ifc := New(Config{OpenDatagram: func(port uint16) (transport.Datagram, error) {
		return transport.ListenUDP("127.0.0.1", port)
	}})
	if s, err := ifc.Socket(DatagramSocket); err != nil {
		t.Skipf("no loopback UDP: %v", err)
	} else if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	const rounds, perRound = 3, 3000
	handles := telemetry.Default.Handles()
	var heap [rounds]uint64
	var scrape [rounds]int
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			s, err := ifc.Socket(DatagramSocket)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if got := telemetry.Default.Handles(); got != handles {
			t.Fatalf("round %d: %d live handles, want the pre-churn %d", r, got, handles)
		}
		heap[r] = liveHeap()
		var buf bytes.Buffer
		if err := telemetry.Default.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		scrape[r] = buf.Len()
	}
	t.Logf("live heap after each round %v B, scrape %v B", heap, scrape)
	// Round 0 warms pools and maps; growth is measured over the rest.
	if heap[rounds-1] > heap[0] {
		perSocket := float64(heap[rounds-1]-heap[0]) / float64((rounds-1)*perRound)
		if perSocket >= 100 {
			t.Errorf("retained heap grew %.0f B per closed socket (live heap %v)", perSocket, heap)
		}
	}
	for r := 1; r < rounds; r++ {
		if scrape[r] != scrape[0] {
			t.Errorf("scrape is %d bytes after round %d, %d after round 0", scrape[r], r, scrape[0])
		}
	}
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
