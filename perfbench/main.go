// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads through the stack's public entry points, verifies every
// delivery, and prints the workload's metrics; the last line of its output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate, traced run reports the per-layer set, timed at the seams the
// benchmark owns (the transport endpoints and streams it hands to the
// stack) and around its own calls. perfbench/run.py builds and runs it;
// NOTES.md explains the workloads and metrics.
//
//	go run . -workload tensor-udp -seed 1 -seconds 10 -trace 0
//	go run . -describe > ../BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A workload prepares its seeded inputs and then opens instances of the
// stack that run on them. Only gated workloads are listed in
// BENCHMARK.json; the others run on request (NOTES.md says why).
type workload struct {
	name, why string
	gated     bool
	prepare   func(seed int64) opener
}

// opener builds one instance of the workload's stack. With a non-nil
// tracer the instance is built with seam wrappers recording into it.
type opener func(tr *tracer) (instance, error)

// instance is one set-up stack.
type instance interface {
	// run drives unit ops for the given seconds, each sender starting at
	// most limit of them, then waits for every op it started to finish or
	// fail.
	run(seconds float64, limit int64) phase
	// counters adds the stack's cumulative counters, read through public
	// accessors, to c.
	counters(c map[string]float64)
	close() error
}

var workloads = []workload{
	{"tensor-udp", "msg over rudp over kernel UDP loopback, lossless: transport batching, rudp fast path, msg eager and rendezvous, core placement", true, prepareTensorUDP},
	{"tensor-loss", "the same tensors over simnet with per-fragment loss: rudp selective recovery, RTO and cwnd, msg rendezvous under loss", false, prepareTensorLoss},
	{"sip-churn", "open-loop SIP calls, each on a fresh sockif socket over kernel UDP: socket and QP open/close, telemetry registry and scrape", true, prepareSIPChurn},
	{"rc-stream", "64 KiB RDMA Write + stamped notify on one RC QP over a simnet stream: the only path through mpa and simnet's stream", true, prepareRCStream},
}

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the stack sees; -trace 0 reports these.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"delivered_ratio", "ratio", "higher", 0.01},
	{"cpu_us_per_op", "us", "lower", 0.2},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer is reported by the traced run (-trace 1). Every workload
// reports every metric; a layer a workload does not use reads 0.
var perLayer = []metricDef{
	{"transport.send_us_per_pkt", "us", "lower", 0},
	{"transport.pkts_per_send_call", "count", "higher", 0},
	{"transport.pkts_per_recv_call", "count", "higher", 0},
	{"transport.recv_wait_ms", "ms", "lower", 0},
	{"transport.open_close_us", "us", "lower", 0},
	{"transport.errors", "count", "lower", 0},
	{"simnet.send_us_per_pkt", "us", "lower", 0},
	{"simnet.frag_loss_ratio", "ratio", "lower", 0},
	{"simnet.stream_us_per_kb", "us", "lower", 0},
	{"simnet.busy_share", "ratio", "lower", 0},
	{"rudp.self_us_per_pkt", "us", "lower", 0},
	{"rudp.rexmit_per_kpkt", "count", "lower", 0},
	{"rudp.fast_rexmit_share", "ratio", "higher", 0},
	{"rudp.rto_expirations", "count", "lower", 0},
	{"rudp.spurious_per_kpkt", "count", "lower", 0},
	{"rudp.useful_ratio", "ratio", "higher", 0},
	{"rudp.cc_cwnd_mean", "pkts", "higher", 0},
	{"rudp.window_drops", "count", "lower", 0},
	{"rudp.crc_failures", "count", "lower", 0},
	{"msg.send_block_ms", "ms", "lower", 0},
	{"msg.rdv_us", "us", "lower", 0},
	{"msg.credit_stalls", "count", "lower", 0},
	{"msg.eager_share", "ratio", "higher", 0},
	{"msg.rdv_swept", "count", "lower", 0},
	{"core.post_us", "us", "lower", 0},
	{"core.cq_wait_ms", "ms", "lower", 0},
	{"core.segments_per_msg", "count", "lower", 0},
	{"core.segments_per_recv_batch", "count", "higher", 0},
	{"core.pool_miss_ratio", "ratio", "lower", 0},
	{"core.recv_dropped", "count", "lower", 0},
	{"core.swept_partials", "count", "lower", 0},
	{"core.place_errors", "count", "lower", 0},
	{"mpa.wire_overhead_ratio", "ratio", "lower", 0},
	{"mpa.stream_writes_per_op", "count", "lower", 0},
	{"sockif.socket_us", "us", "lower", 0},
	{"sockif.close_us", "us", "lower", 0},
	{"sockif.recvfrom_wait_us", "us", "lower", 0},
	{"sip.call_total_us", "us", "lower", 0},
	{"telemetry.scrape_ms", "ms", "lower", 0},
	{"peertab.occupancy_end", "count", "lower", 0},
	{"peertab.evictions", "count", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_kop", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.goroutines_delta", "count", "lower", 0},
	{"runtime.heap_growth_bytes_per_op", "B", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 30

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
		spansOut = flag.String("spans", "", "with -trace 1, write the span log here as JSON lines")
		describe = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *describe {
		if err := writeDescription(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q (want one of %s)", *name, workloadNames()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	fp, err := fingerprint()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fingerprint %s\n", fp)

	var res result
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, *seconds)
	} else {
		res, err = runTraced(w, *seed, *seconds, *spansOut)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	res.print(w.name)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	samples  int              // latency samples behind the percentiles
	ungated  map[string]value // printed for people, left out of the JSON
	problems []string         // verification failures, printed before the result
}

// set records every metric in defs from vals; a metric a run could not
// measure reads 0.
func (r *result) set(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
}

func (r *result) print(workload string) {
	for _, p := range r.problems {
		fmt.Printf("FAIL %s: %s\n", workload, p)
	}
	for _, n := range sortedNames(r.Metrics) {
		v := r.Metrics[n]
		fmt.Printf("%-12s %-30s %14.4f %-6s n=%d\n", workload, n, v.Value, v.Unit, r.samples)
	}
	for _, n := range sortedNames(r.ungated) {
		v := r.ungated[n]
		fmt.Printf("%-12s %-30s %14.4f %-6s n=%d (not gated)\n", workload, n, v.Value, v.Unit, r.samples)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeDescription renders BENCHMARK.json from the tables above, so the
// file and the program cannot disagree on names, units or bounds.
func writeDescription(f io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	d := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		if w.gated {
			d.Workloads = append(d.Workloads, wl{w.name, w.why})
		}
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
