package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"syscall"

	"repro/internal/transport"
)

// layerMetrics derives the per-layer metrics of one traced phase from the
// seam spans in tr, the stack's counters before and after it, and the
// runtime. NOTES.md gives each metric's definition and the end-to-end
// metric it should move.
func layerMetrics(tr *tracer, ph summary, before, after snapshot) map[string]float64 {
	ops := ph.ops()
	tel := func(name string) float64 {
		return float64(after.tel.Counters[name] - before.tel.Counters[name])
	}
	stack := func(name string) float64 { return after.stack[name] - before.stack[name] }
	v := map[string]float64{}

	// Kernel sockets.
	tSendNs := tr.ns(spTransportSend) + tr.ns(spTransportAck)
	tSendPkts := tr.items(spTransportSend) + tr.items(spTransportAck)
	tSendCalls := tr.calls(spTransportSend) + tr.calls(spTransportAck)
	v["transport.send_us_per_pkt"] = ratio(tSendNs/1e3, tSendPkts)
	v["transport.pkts_per_send_call"] = ratio(tSendPkts, tSendCalls)
	v["transport.pkts_per_recv_call"] = ratio(tr.items(spTransportRecv), tr.calls(spTransportRecv))
	v["transport.recv_wait_ms"] = ratio(tr.ns(spTransportRecv)/1e6, tr.calls(spTransportRecv))
	v["transport.open_close_us"] = ratio((tr.ns(spTransportOpen)+tr.ns(spTransportClose))/1e3, tr.calls(spTransportOpen))
	v["transport.errors"] = float64(tr.errors.Load())

	// Simulator: datagram wire, stream, and its share of wall time.
	simSendNs := tr.ns(spSimnetSend) + tr.ns(spSimnetAck)
	v["simnet.send_us_per_pkt"] = ratio(simSendNs/1e3, tr.items(spSimnetSend)+tr.items(spSimnetAck))
	v["simnet.frag_loss_ratio"] = ratio(stack("simnet.lost_loss"), stack("simnet.fragments"))
	v["simnet.stream_us_per_kb"] = ratio(tr.ns(spStreamWrite)/1e3, tr.bytes(spStreamWrite)/1024)
	v["simnet.busy_share"] = ratio(simSendNs+tr.ns(spStreamWrite), float64(ph.elapsed))

	// rudp: its own time is its SendTo minus the DATA sends below it, plus
	// its receive loop's work minus the ACK sends it makes there.
	lowerData := tr.ns(spTransportSend) + tr.ns(spSimnetSend)
	lowerAck := tr.ns(spTransportAck) + tr.ns(spSimnetAck)
	orig := tr.calls(spRudpSend)
	rexmit := stack("rudp.retransmits")
	v["rudp.self_us_per_pkt"] = ratio((tr.ns(spRudpSend)-lowerData+tr.ns(spRudpRecvWork)-lowerAck)/1e3, orig)
	v["rudp.rexmit_per_kpkt"] = 1000 * ratio(rexmit, orig)
	v["rudp.fast_rexmit_share"] = ratio(stack("rudp.fast"), rexmit)
	v["rudp.rto_expirations"] = stack("rudp.rto")
	v["rudp.spurious_per_kpkt"] = 1000 * ratio(stack("rudp.spurious"), orig)
	v["rudp.useful_ratio"] = ratio(orig, orig+rexmit)
	v["rudp.window_drops"] = stack("rudp.window_drops")
	v["rudp.crc_failures"] = stack("rudp.crc")

	// msg.
	v["msg.send_block_ms"] = ratio(tr.ns(spMsgSend)/1e6, tr.calls(spMsgSend))
	v["msg.rdv_us"] = tr.meanUS(spMsgSendRdv)
	v["msg.credit_stalls"] = stack("msg.credit_stalls")
	v["msg.eager_share"] = ratio(stack("msg.eager_sent"), stack("msg.eager_sent")+stack("msg.rdv_sent"))
	v["msg.rdv_swept"] = stack("msg.rdv_swept")

	// core (ddp and crcx run inside its calls and are included).
	v["core.post_us"] = tr.meanUS(spCorePost)
	v["core.cq_wait_ms"] = ratio(tr.ns(spCQWait)/1e6, tr.calls(spCQWait))
	v["core.segments_per_msg"] = ratio(tel("diwarp_ddp_segments_total"), tel("diwarp_ud_msgs_sent_total"))
	v["core.segments_per_recv_batch"] = ratio(tel("diwarp_ddp_recv_segments_total"), tel("diwarp_ddp_recv_batches_total"))
	misses := tel("diwarp_ddp_recv_pool_misses_total")
	v["core.pool_miss_ratio"] = ratio(misses, misses+tel("diwarp_ddp_recv_pool_hits_total"))
	v["core.recv_dropped"] = tel("diwarp_ud_recv_dropped_total")
	v["core.swept_partials"] = tel("diwarp_ud_swept_total")
	v["core.place_errors"] = tel("diwarp_ud_place_errors_total") + tel("diwarp_rc_place_errors_total")

	// mpa: stream bytes per payload byte, stream writes per op.
	v["mpa.wire_overhead_ratio"] = ratio(tr.bytes(spStreamWrite), tel("diwarp_rc_bytes_sent_total"))
	v["mpa.stream_writes_per_op"] = ratio(tr.calls(spStreamWrite), ops)

	// sockif, sip, telemetry, peertab.
	v["sockif.socket_us"] = tr.meanUS(spSockSocket)
	v["sockif.close_us"] = tr.meanUS(spSockClose)
	v["sockif.recvfrom_wait_us"] = tr.meanUS(spSockRecvFrom)
	v["sip.call_total_us"] = ph.layer["sip.call_total_us"]
	v["telemetry.scrape_ms"] = ratio(tr.ns(spScrape)/1e6, tr.calls(spScrape))
	v["peertab.occupancy_end"] = float64(after.tel.Gauges["diwarp_peertab_occupancy"])
	v["peertab.evictions"] = tel("diwarp_peertab_evictions_total")

	// The Go runtime and the load generator.
	v["runtime.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), ops)
	v["runtime.gc_cycles_per_kop"] = 1000 * ratio(float64(after.numGC-before.numGC), ops)
	v["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	v["runtime.goroutines_delta"] = float64(after.goroutines - before.goroutines)
	v["runtime.heap_growth_bytes_per_op"] = ratio(float64(after.heap)-float64(before.heap), ops)
	v["loadgen.late_p99_us"] = micros(ph.late99)
	return v
}

// fingerprint describes the machine a result was measured on, including
// the UDP batch tier the transport's capability probe picks here.
func fingerprint() (string, error) {
	probe, err := transport.ListenUDP("127.0.0.1", 0)
	if err != nil {
		return "", err
	}
	tier := probe.BatchFeatures().String()
	if err := probe.Close(); err != nil {
		return "", err
	}
	var uts syscall.Utsname
	release := ""
	if syscall.Uname(&uts) == nil {
		release = utsString(uts.Release[:])
	}
	b, err := json.Marshal(map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"kernel":         release,
		"go":             runtime.Version(),
		"transport_tier": tier,
	})
	return string(b), err
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func utsString[T int8 | uint8](f []T) string {
	b := make([]byte, 0, len(f))
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}
