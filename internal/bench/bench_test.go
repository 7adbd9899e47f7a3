package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/stats"
)

func newTestEnv(t *testing.T, cfg EnvConfig) *Env {
	t.Helper()
	e, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestPingPongAllModes(t *testing.T) {
	e := newTestEnv(t, EnvConfig{})
	for _, mode := range []Mode{UDSendRecv, UDWriteRecord, RCSendRecv, RCWrite} {
		for _, size := range []int{1, 1024, 64 << 10} {
			s, err := e.PingPong(mode, size, 10)
			if err != nil {
				t.Fatalf("%v @%d: %v", mode, size, err)
			}
			if s.N() != 10 {
				t.Fatalf("%v @%d: %d samples", mode, size, s.N())
			}
			if s.Mean() <= 0 {
				t.Fatalf("%v @%d: mean %v", mode, size, s.Mean())
			}
		}
	}
}

func TestBandwidthAllModes(t *testing.T) {
	e := newTestEnv(t, EnvConfig{})
	for _, mode := range []Mode{UDSendRecv, UDWriteRecord, RCSendRecv, RCWrite} {
		r, err := e.Bandwidth(mode, 16<<10, 64)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Delivered != 64*16<<10 {
			t.Fatalf("%v: delivered %d of %d", mode, r.Delivered, 64*16<<10)
		}
		if r.MBps() <= 0 {
			t.Fatalf("%v: %v MB/s", mode, r.MBps())
		}
	}
}

func TestBandwidthUnderTotalLossIsZero(t *testing.T) {
	e := newTestEnv(t, EnvConfig{Sim: simnet.Config{LossRate: 1.0}})
	r, err := e.Bandwidth(UDSendRecv, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 0 {
		t.Fatalf("delivered %d under 100%% loss", r.Delivered)
	}
}

func TestWriteRecordPartialGoodputUnderLoss(t *testing.T) {
	// At 1% fragment loss, 1 MB messages (16 × 64 KB segments) should
	// deliver partial bytes via Write-Record but almost nothing via
	// send/recv (whole-message semantics) — the Figure 7 vs 8 contrast.
	const size = 1 << 20
	const count = 12

	eWR := newTestEnv(t, EnvConfig{Sim: simnet.Config{LossRate: 0.01, Seed: 42}})
	wr, err := eWR.Bandwidth(UDWriteRecord, size, count)
	if err != nil {
		t.Fatal(err)
	}
	eSR := newTestEnv(t, EnvConfig{Sim: simnet.Config{LossRate: 0.01, Seed: 42}})
	sr, err := eSR.Bandwidth(UDSendRecv, size, count)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Delivered <= sr.Delivered {
		t.Fatalf("Write-Record delivered %d ≤ send/recv %d under loss", wr.Delivered, sr.Delivered)
	}
	if wr.Delivered == 0 {
		t.Fatal("Write-Record delivered nothing at 1% loss")
	}
	t.Logf("1MB @1%% loss: WR %d bytes vs SR %d bytes", wr.Delivered, sr.Delivered)
}

func TestLatencySweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep is slow")
	}
	e := newTestEnv(t, EnvConfig{})
	sizes := []int{64, 1024}
	ud, err := e.LatencySweep(UDSendRecv, sizes, 30)
	if err != nil {
		t.Fatal(err)
	}
	rcw, err := e.LatencySweep(RCWrite, sizes, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Small-message shape: UD send/recv should not lose badly to RC Write
	// (which pays MPA framing plus the extra notification message). Exact
	// orderings at the µs scale are scheduler-noisy on one core, so only a
	// gross inversion fails.
	if ud[0] > 2*rcw[0] {
		t.Errorf("UD send/recv %0.1fµs > 2× RC Write %0.1fµs at 64 B", ud[0], rcw[0])
	}
}

// shapeRuns is how many single-trial runs the wall-clock shape tests take a
// median over. One trial of a few milliseconds swings 2–3× with scheduling
// noise on both sides of a comparison; the median of 7 does not.
const shapeRuns = 7

func TestRunStreamingShape(t *testing.T) {
	byLabel := map[string]*stats.Sample{}
	for run := 0; run < shapeRuns; run++ {
		res, err := RunStreaming(StreamingConfig{ClipSize: 2 << 20, PreBuffer: 512 << 10, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 {
			t.Fatalf("results: %d", len(res))
		}
		for _, r := range res {
			if r.Buffering <= 0 {
				t.Fatalf("%s: %v", r.Label, r.Buffering)
			}
			if byLabel[r.Label] == nil {
				byLabel[r.Label] = &stats.Sample{}
			}
			byLabel[r.Label].AddDuration(r.Buffering)
		}
	}
	// Figure 9 shape: UD buffering is at least competitive with RC (HTTP).
	// The paper's 74% gap came largely from kernel-TCP costs our in-process
	// transports lack (see EXPERIMENTS.md), so only gross inversions fail.
	ud, rc := byLabel["UD Send/Recv"].Median(), byLabel["RC Send/Recv (HTTP)"].Median()
	if ud > 2*rc {
		t.Errorf("median UD %.0fµs vs RC %.0fµs: UD grossly slower", ud, rc)
	}
}

func TestRunSockifOverhead(t *testing.T) {
	var iw, native stats.Sample
	for run := 0; run < shapeRuns; run++ {
		i, n, _, err := RunSockifOverhead(StreamingConfig{ClipSize: 2 << 20, PreBuffer: 512 << 10, Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i <= 0 || n <= 0 {
			t.Fatalf("times %v %v", i, n)
		}
		iw.AddDuration(i)
		native.AddDuration(n)
	}
	// The paper reports ≈2% against a kernel-UDP baseline; our native
	// baseline is an in-process queue with almost no per-packet cost, so
	// the same absolute shim work is a larger fraction (EXPERIMENTS.md).
	// Only a grossly disproportionate overhead fails.
	frac := (iw.Median() - native.Median()) / native.Median()
	if frac > 10.0 {
		t.Errorf("overhead %.0f%% is implausibly high", frac*100)
	}
	t.Logf("median iWARP %.0fµs vs native %.0fµs (overhead %.1f%%)", iw.Median(), native.Median(), frac*100)
}

func TestRunSIPLatency(t *testing.T) {
	ud, rc, err := RunSIPLatency(20)
	if err != nil {
		t.Fatal(err)
	}
	if ud.Invite.N() != 20 || rc.Invite.N() != 20 {
		t.Fatalf("samples %d %d", ud.Invite.N(), rc.Invite.N())
	}
	t.Logf("SIP INVITE RT: UD %.0fµs vs RC %.0fµs", ud.Invite.Mean(), rc.Invite.Mean())
}

func TestRunSIPMemoryShape(t *testing.T) {
	res, err := RunSIPMemory([]int{50, 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.UDBytes <= 0 || r.RCBytes <= 0 {
			t.Fatalf("bytes %+v", r)
		}
		// Figure 11 shape: UD uses less memory per call population.
		if r.UDBytes >= r.RCBytes {
			t.Errorf("@%d calls: UD %d ≥ RC %d", r.Calls, r.UDBytes, r.RCBytes)
		}
		t.Logf("@%d calls: UD %d B, RC %d B, improvement %.1f%%", r.Calls, r.UDBytes, r.RCBytes, r.ImprovementPct)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "Verbs Latency",
		XHeader: "MsgSize",
		XLabels: []string{"1", "2"},
		Series: []Series{
			{Label: "UD Send/Recv", Values: []float64{1.5, 2.5}},
			{Label: "RC Send/Recv", Values: []float64{2.0}},
		},
		Unit: "µs",
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Verbs Latency", "UD Send/Recv", "1.50", "2.00", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestImprovementHelpers(t *testing.T) {
	if got := Improvement(200, 100); got != 100 {
		t.Fatalf("Improvement = %v", got)
	}
	if got := Reduction(50, 100); got != 50 {
		t.Fatalf("Reduction = %v", got)
	}
	if Improvement(1, 0) != 0 || Reduction(1, 0) != 0 {
		t.Fatal("zero base should yield 0")
	}
}

func TestModeStrings(t *testing.T) {
	if UDWriteRecord.String() != "UD RDMA Write-Record" || !UDWriteRecord.IsUD() {
		t.Fatal("mode metadata wrong")
	}
	if RCWrite.IsUD() {
		t.Fatal("RCWrite is not UD")
	}
}
