package faultnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestDupLegBufferIndependence pins the pool-ownership contract of the
// duplication leg composed over simnet: the duplicate of a datagram must be
// carried in its own pooled buffer, so a receiver that consumes and recycles
// the first copy — whose storage is then immediately reissued to a new send
// — cannot see the second copy's bytes change underneath it. A shared buffer
// here is exactly the double-delivery corruption the chaos harness's dup
// schedules target.
func TestDupLegBufferIndependence(t *testing.T) {
	n := simnet.New(simnet.Config{Seed: 7})
	ia, err := n.OpenDatagram("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.OpenDatagram("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	a := Wrap(ia, Config{Seed: 7, DupRate: 1.0})
	defer a.Close()
	defer b.Close()

	orig := bytes.Repeat([]byte{0xAB}, 512)
	if err := a.SendTo(orig, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// The queue now holds the original and its duplicate. Consume and
	// recycle the first copy, then force its storage back into service with
	// a fresh send of different bytes.
	first, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, orig) {
		t.Fatalf("first copy corrupted: % x...", first[:8])
	}
	b.Recycle(first)
	junk := bytes.Repeat([]byte{0xEE}, 512)
	if err := a.SendTo(junk, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// The duplicate of the original must still read back intact: it may not
	// alias the recycled (and now rewritten) first buffer.
	second, _, err := b.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second, orig) {
		t.Fatalf("duplicate shares storage with the recycled first copy: got % x..., want % x...",
			second[:8], orig[:8])
	}
	b.Recycle(second)
	// Drain the junk send and its duplicate so the endpoint quiesces clean.
	for i := 0; i < 2; i++ {
		p, _, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b.Recycle(p)
	}
}
