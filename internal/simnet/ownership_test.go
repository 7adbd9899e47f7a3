package simnet

import (
	"testing"
	"time"
)

// TestPktBufBalanceAtQuiesce pins the pool get/put accounting itself: a
// drained, fully-recycled exchange must leave the packet pools balanced —
// the invariant the chaos harness checks after every schedule, there
// through faultnet duplication and reordering over simnet.
func TestPktBufBalanceAtQuiesce(t *testing.T) {
	gets0, puts0 := PktBufBalance()
	held0 := gets0 - puts0

	n := New(Config{Seed: 3})
	a, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const msgs = 64
	for i := 0; i < msgs; i++ {
		if err := a.SendTo([]byte{byte(i)}, b.addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < n.Counters().DatagramsSent; i++ {
		p, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(p)
	}
	gets1, puts1 := PktBufBalance()
	if held := gets1 - puts1; held != held0 {
		t.Fatalf("pool balance drifted: %d buffers outstanding before, %d after a fully-recycled run",
			held0, held)
	}
}
