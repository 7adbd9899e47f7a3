package transport

import (
	"os"
	"sync"

	"repro/internal/telemetry"
)

// BatchFeatures reports which kernel batch-datapath capabilities a UDP
// endpoint is actually using, as determined by the capability probe at
// endpoint creation (DESIGN.md §4.9). Every field false means the endpoint
// runs the portable one-syscall-per-datagram path; Sendmmsg/Recvmmsg mean
// bursts go through sendmmsg(2)/recvmmsg(2); GSO means same-destination
// bursts of equal-size segments collapse into one UDP_SEGMENT send; GRO
// means the socket may deliver kernel-coalesced super-segments that the
// endpoint splits back into per-datagram buffers.
//
// The offloads imply the base syscalls: GSO is only ever set alongside
// Sendmmsg, GRO alongside Recvmmsg, because the offload paths reuse the
// mmsg machinery (and GRO split-back must intercept every receive).
type BatchFeatures struct {
	Sendmmsg bool // bursts sent via sendmmsg(2)
	Recvmmsg bool // bursts drained via recvmmsg(2)
	GSO      bool // UDP_SEGMENT segmentation offload on eligible bursts
	GRO      bool // UDP_GRO receive coalescing with split-back
}

// String renders the feature set the way iwarpd logs it.
func (f BatchFeatures) String() string {
	s := "portable"
	if f.Sendmmsg || f.Recvmmsg {
		s = "mmsg"
	}
	if f.GSO {
		s += "+gso"
	}
	if f.GRO {
		s += "+gro"
	}
	return s
}

// BatchCapabilities is an optional interface a Datagram implementation may
// provide, reporting which batch-datapath features are live. Layers above
// use it to tune burst sizing (ddp widens its receive scratch when GRO can
// split one syscall's worth of coalesced traffic into more datagrams than a
// portable burst would ever return) and wrappers (faultnet, pcap's
// DatagramTap) forward it so the probe's verdict survives stacking.
type BatchCapabilities interface {
	BatchFeatures() BatchFeatures
}

// UDPBatchMode selects how far down the kernel batch datapath a UDP
// endpoint is allowed to go. It exists so the portable fallback stays
// testable on kernels that support everything: the capability probe can be
// overridden to force the exact code paths an unsupporting kernel would
// take.
type UDPBatchMode int

const (
	// BatchAuto probes the kernel and uses everything that works:
	// sendmmsg/recvmmsg, then UDP_SEGMENT/UDP_GRO on top.
	BatchAuto UDPBatchMode = iota
	// BatchMmsg uses the batch syscalls but leaves the GSO/GRO offloads
	// off even when the kernel supports them.
	BatchMmsg
	// BatchPortable disables the kernel batch path entirely: one syscall
	// per datagram through the portable net.UDPConn loop.
	BatchPortable
)

// envBatchMode reads the DIWARP_UDP_BATCH override once per process:
// "portable" forces the portable loop, "mmsg" caps at the batch syscalls,
// anything else (including unset) probes everything. It is the CI lever for
// running the full suite over the fallback paths on a capable kernel.
var envBatchMode = sync.OnceValue(func() UDPBatchMode {
	switch os.Getenv("DIWARP_UDP_BATCH") {
	case "portable", "off":
		return BatchPortable
	case "mmsg":
		return BatchMmsg
	default:
		return BatchAuto
	}
})

// Batch-datapath instruments (DESIGN.md §4.9), registered for the
// process's lifetime: syscalls per SendBatch/RecvBatch burst, datagrams
// per batch syscall (see observeBatch), and whether the most recently
// probed endpoint has the GSO/GRO offloads live (1) or not (0).
var (
	batchSyscalls  = telemetry.Default.Histogram("diwarp_transport_batch_syscalls")
	segsPerSyscall = telemetry.Default.Histogram("diwarp_transport_segs_per_syscall")
	gsoEnabled     = telemetry.Default.Gauge("diwarp_transport_gso_enabled")
	groEnabled     = telemetry.Default.Gauge("diwarp_transport_gro_enabled")
)

// observeBatch records one completed burst: syscalls it took and datagrams
// it moved. The segments-per-syscall observation is the burst mean, so one
// sendmmsg moving 32 datagrams observes 32 while the portable loop's 32
// one-datagram syscalls observe 1.
//
//diwarp:hotpath
func observeBatch(syscalls, datagrams int64) {
	if syscalls <= 0 {
		return
	}
	batchSyscalls.Observe(syscalls)
	segsPerSyscall.Observe(datagrams / syscalls)
}

// publishFeatures reflects a freshly probed endpoint's offload verdict onto
// the feature gauges.
func publishFeatures(f BatchFeatures) {
	gsoEnabled.Set(boolGauge(f.GSO))
	groEnabled.Set(boolGauge(f.GRO))
}

func boolGauge(on bool) int64 {
	if on {
		return 1
	}
	return 0
}
