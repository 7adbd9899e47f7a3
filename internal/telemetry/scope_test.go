package telemetry

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestScopeCloseKeepsCountersMonotone(t *testing.T) {
	r := NewRegistry()
	keep := r.Counter("diwarp_scope_total")
	keep.Add(1)
	sc := r.Scope()
	sc.Counter("diwarp_scope_total").Add(10)
	h := sc.Histogram("diwarp_scope_lat")
	h.Observe(3)
	h.Observe(100)
	before := r.Snapshot()

	sc.Close()
	after := r.Snapshot()
	if got := after.Counters["diwarp_scope_total"]; got != 11 {
		t.Fatalf("counter after Close = %d, want 11", got)
	}
	hb, ha := before.Histograms["diwarp_scope_lat"], after.Histograms["diwarp_scope_lat"]
	if ha.Count != 2 || ha.Sum != 103 || len(ha.Buckets) != len(hb.Buckets) {
		t.Fatalf("histogram after Close = %+v, want %+v", ha, hb)
	}
	if got := r.Handles(); got != 1 {
		t.Fatalf("%d live handles after Close, want the 1 unscoped", got)
	}

	// A later object under the same names adds on top of the retired sum.
	sc2 := r.Scope()
	sc2.Counter("diwarp_scope_total").Inc()
	sc2.Close()
	if got := r.Snapshot().Counters["diwarp_scope_total"]; got != 12 {
		t.Fatalf("counter after a second scope = %d, want 12", got)
	}
}

func TestScopeCloseDropsGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("diwarp_scope_depth").Set(2)
	sc := r.Scope()
	sc.Gauge("diwarp_scope_depth").Set(5)
	if got := r.Snapshot().Gauges["diwarp_scope_depth"]; got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	sc.Close()
	s := r.Snapshot()
	if got, ok := s.Gauges["diwarp_scope_depth"]; !ok || got != 2 {
		t.Fatalf("gauge after Close = %d (present %v), want 2", got, ok)
	}

	// The name outlives its last handle, at zero.
	only := r.Scope()
	only.Gauge("diwarp_scope_only").Set(4)
	only.Close()
	if got, ok := r.Snapshot().Gauges["diwarp_scope_only"]; !ok || got != 0 {
		t.Fatalf("orphaned gauge = %d (present %v), want 0", got, ok)
	}
}

func TestScopeCloseIdempotent(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope()
	c := sc.Counter("diwarp_scope_total")
	c.Add(4)
	sc.Close()
	sc.Close()
	if got := r.Snapshot().Counters["diwarp_scope_total"]; got != 4 {
		t.Fatalf("counter after double Close = %d, want 4", got)
	}
	// Handles of a closed scope stay usable but no longer reach a snapshot.
	c.Inc()
	late := sc.Counter("diwarp_scope_late_total")
	late.Inc()
	s := r.Snapshot()
	if s.Counters["diwarp_scope_total"] != 4 {
		t.Fatalf("retired handle still counted: %d", s.Counters["diwarp_scope_total"])
	}
	if _, ok := s.Counters["diwarp_scope_late_total"]; ok || r.Handles() != 0 {
		t.Fatalf("closed scope registered a handle (%d live)", r.Handles())
	}
}

// TestScopeCloseRacesSnapshot closes scopes while writers record and a
// reader snapshots: under -race this pins the locking, and the final sum
// is exact because every write happens before its scope closes.
func TestScopeCloseRacesSnapshot(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 500
	)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := r.Snapshot().Counters["diwarp_scope_race_total"]
			if got < last {
				t.Errorf("counter went backwards: %d after %d", got, last)
				return
			}
			last = got
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				sc := r.Scope()
				sc.Counter("diwarp_scope_race_total").Inc()
				sc.Histogram("diwarp_scope_race_lat").Observe(int64(i))
				sc.Gauge("diwarp_scope_race_depth").Set(1)
				sc.Close()
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	s := r.Snapshot()
	if got := s.Counters["diwarp_scope_race_total"]; got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := s.Histograms["diwarp_scope_race_lat"].Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
	if got := s.Gauges["diwarp_scope_race_depth"]; got != 0 {
		t.Fatalf("gauge = %d after every scope closed, want 0", got)
	}
	if got := r.Handles(); got != 0 {
		t.Fatalf("%d live handles after every scope closed", got)
	}
}

// TestTelemetryIsLeaf pins the import graph: every layer, transport
// included, registers here, so this package must import nothing from the
// stack or the cycle returns.
func TestTelemetryIsLeaf(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "repro" || strings.HasPrefix(path, "repro/") {
				t.Errorf("%s imports %s: telemetry must stay a leaf", name, path)
			}
		}
	}
}
