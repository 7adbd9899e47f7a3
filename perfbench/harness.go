package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

const (
	// setupReps is how many times the untraced run sets the stack up
	// before the warm-up and again after each part. setup_s is the median
	// of them all, so it is not taken at one moment of a busy machine.
	setupReps = 5
	// warmupSeconds runs ops before the timed phase so pools fill and
	// lazy set-up finishes; its ops are verified but not reported.
	warmupSeconds = 0.5
	// subPhases splits the timed phase of the untraced run into parts
	// measured back to back; the rates, latencies and CPU per op reported
	// are medians over the parts, so interference from other processes
	// during one part moves none of them.
	subPhases = 5
	// noLimit lets a timed phase start as many ops as its time allows.
	noLimit = math.MaxInt64
)

// phase is what one timed phase of unit ops produced.
type phase struct {
	attempted, failed int64
	bytes             int64           // verified application payload
	lat               []time.Duration // per verified op
	late              []time.Duration // open-loop dispatch lateness
	elapsed           time.Duration
	layer             map[string]float64 // per-layer values only the workload sees
	problems          []string           // first few verification failures
}

// fail counts one failed op and keeps the first few reasons.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// complete records one verified op.
func (p *phase) complete(lat time.Duration, bytes int64) {
	p.lat = append(p.lat, lat)
	p.bytes += bytes
}

// merge folds a concurrent part of the phase into p.
func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.bytes += q.bytes
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	for _, s := range q.problems {
		if len(p.problems) < 8 {
			p.problems = append(p.problems, s)
		}
	}
}

// summary is what the metrics need from a phase. measure takes it before
// its closing GC, so the benchmark's own latency samples are garbage by
// then and the live heap it reads is the stack's.
type summary struct {
	attempted, failed int64
	bytes             int64
	samples           int
	p50, p90, p99     time.Duration
	late99            time.Duration
	elapsed           time.Duration
	layer             map[string]float64
	problems          []string
}

func (p phase) summarize() summary {
	sortDurations(p.lat)
	sortDurations(p.late)
	return summary{
		attempted: p.attempted, failed: p.failed, bytes: p.bytes, samples: len(p.lat),
		p50: quantile(p.lat, 0.50), p90: quantile(p.lat, 0.90), p99: quantile(p.lat, 0.99),
		late99:  quantile(p.late, 0.99),
		elapsed: p.elapsed, layer: p.layer, problems: p.problems,
	}
}

func (s summary) ops() float64 { return float64(s.attempted - s.failed) }

// snapshot is the process and stack state at one edge of a timed phase.
type snapshot struct {
	cpu        time.Duration // user + system
	heap       uint64        // live heap after a forced GC
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
	goroutines int
	tel        telemetry.Snapshot
	stack      map[string]float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memState forces a GC and reads the live heap and allocation counters.
// The second GC empties the sync.Pool victim caches the first one filled.
func memState(s *snapshot) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heap, s.mallocs, s.numGC, s.pauseNs = ms.HeapAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	s.goroutines = runtime.NumGoroutine()
}

// measure runs one timed phase on inst between two snapshots. CPU time is
// read right at the phase edges; the GCs that measure the heap sit outside.
func measure(inst instance, seconds float64) (summary, snapshot, snapshot) {
	var before, after snapshot
	memState(&before)
	before.tel = telemetry.Default.Snapshot()
	before.stack = map[string]float64{}
	inst.counters(before.stack)
	before.cpu = cpuTime()
	sum := inst.run(seconds, noLimit).summarize()
	after.cpu = cpuTime()
	after.tel = telemetry.Default.Snapshot()
	after.stack = map[string]float64{}
	inst.counters(after.stack)
	memState(&after)
	return sum, before, after
}

// setUp opens the stack reps times, closing all but the last, and returns
// the last with every set-up time.
func setUp(open opener, tr *tracer, reps int) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("close after set-up: %w", err)
			}
		}
		start := time.Now()
		var err error
		if inst, err = open(tr); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// median of v, which it sorts.
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// warmUp runs unreported ops; a verification failure still fails the run.
func warmUp(inst instance, res *result) {
	w := inst.run(warmupSeconds, noLimit)
	res.Attempted += w.attempted
	res.Failed += w.failed
	res.problems = append(res.problems, w.problems...)
}

// runEndToEnd is the untraced run: set up, warm up, then the timed phase
// in subPhases parts.
func runEndToEnd(w *workload, seed int64, seconds float64) (result, error) {
	open := w.prepare(seed)
	var res result
	inst, setupTimes, err := setUp(open, nil, setupReps)
	if err != nil {
		return res, err
	}
	warmUp(inst, &res)
	parts := map[string][]float64{}
	var attempted, failed int64
	var after snapshot
	for i := 0; i < subPhases; i++ {
		var sum summary
		var before snapshot
		sum, before, after = measure(inst, seconds/subPhases)
		attempted += sum.attempted
		failed += sum.failed
		res.problems = append(res.problems, sum.problems...)
		if sum.samples < 1000 {
			res.problems = append(res.problems, fmt.Sprintf("part %d: only %d latency samples; p99 needs at least 1000", i, sum.samples))
		}
		res.samples += sum.samples
		ops, secs := sum.ops(), sum.elapsed.Seconds()
		spare, more, err := setUp(open, nil, setupReps)
		if err != nil {
			inst.close()
			return res, err
		}
		if err := spare.close(); err != nil {
			res.problems = append(res.problems, "close: "+err.Error())
		}
		setupTimes = append(setupTimes, more...)
		for name, v := range map[string]float64{
			"goodput_mbps":  ratio(float64(sum.bytes)/1e6, secs),
			"ops_per_s":     ratio(ops, secs),
			"lat_p50_us":    micros(sum.p50),
			"lat_p90_us":    micros(sum.p90),
			"lat_p99_us":    micros(sum.p99),
			"cpu_us_per_op": ratio(micros(after.cpu-before.cpu), ops),
		} {
			parts[name] = append(parts[name], v)
		}
	}
	if err := inst.close(); err != nil {
		res.problems = append(res.problems, "close: "+err.Error())
	}
	res.Attempted += attempted
	res.Failed += failed
	vals := map[string]float64{
		"setup_s":         median(setupTimes),
		"delivered_ratio": ratio(float64(attempted-failed), float64(attempted)),
		"heap_live_mb":    float64(after.heap) / 1e6,
	}
	for name, v := range parts {
		vals[name] = median(v)
	}
	res.set(endToEnd, vals)
	res.ungated = map[string]value{
		"lat_p90_us": {vals["lat_p90_us"], "us"},
		"lat_p99_us": {vals["lat_p99_us"], "us"},
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res, nil
}

// runTraced measures half the run untraced and half traced, on separate
// instances, and reports the per-layer metrics of the traced half.
func runTraced(w *workload, seed int64, seconds float64, spansOut string) (result, error) {
	open := w.prepare(seed)
	var res result
	half := seconds / 2

	plain, _, err := setUp(open, nil, 1)
	if err != nil {
		return res, err
	}
	warmUp(plain, &res)
	base, b0, b1 := measure(plain, half)
	if err := plain.close(); err != nil {
		res.problems = append(res.problems, "close: "+err.Error())
	}

	tr := newTracer()
	inst, _, err := setUp(open, tr, 1)
	if err != nil {
		return res, err
	}
	warmUp(inst, &res)
	tr.reset()
	stopSampler := startCwndSampler(inst)
	ph, before, after := measure(inst, half)
	cwnd := stopSampler()
	// One scrape at the phase edge, so scrape cost reads on every workload.
	var buf bytes.Buffer
	if err := scrape(tr, &buf); err != nil {
		res.problems = append(res.problems, "scrape: "+err.Error())
	}
	if err := inst.close(); err != nil {
		res.problems = append(res.problems, "close: "+err.Error())
	}
	for _, p := range []summary{base, ph} {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.problems = append(res.problems, p.problems...)
	}
	if spansOut != "" {
		if err := tr.write(spansOut); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
	}
	vals := layerMetrics(tr, ph, before, after)
	vals["rudp.cc_cwnd_mean"] = cwnd
	baseCPU := ratio(micros(b1.cpu-b0.cpu), base.ops())
	tracedCPU := ratio(micros(after.cpu-before.cpu), ph.ops())
	vals["trace.overhead_pct"] = 100 * ratio(tracedCPU-baseCPU, baseCPU)
	res.samples = ph.samples
	res.set(perLayer, vals)
	res.Correct = res.Failed == 0 && len(res.problems) == 0
	return res, nil
}

// cwndReader is implemented by instances that run rudp.
type cwndReader interface{ cwnd() float64 }

// startCwndSampler samples rudp's congestion window every 5 ms during the
// traced phase; the returned stop function reports the mean.
func startCwndSampler(inst instance) func() float64 {
	r, ok := inst.(cwndReader)
	if !ok {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		sum, n := 0.0, 0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sum += r.cwnd()
				n++
			case <-stop:
				done <- ratio(sum, float64(n))
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// scrape renders telemetry.Default as a monitoring agent would, timed.
func scrape(tr *tracer, buf *bytes.Buffer) error {
	buf.Reset()
	start := time.Now()
	err := telemetry.Default.WritePrometheus(buf)
	tr.record(spScrape, start, 1, buf.Len(), 0, 0)
	return err
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile returns the q-quantile of sorted d (nearest rank).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(q*float64(len(d))+0.5) - 1
	return d[max(0, min(i, len(d)-1))]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
