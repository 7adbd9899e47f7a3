package telemetry

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// Default is the process-wide registry every stack component registers
// into; cmd/iwarpd exposes it over HTTP and cmd/iwarpbench prints it after
// a run. Tests that need isolation construct their own [NewRegistry].
var Default = NewRegistry()

// nameRE is the Prometheus metric-name grammar; names are validated at
// registration (cold path) so exposition never emits an unscrapable line.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry is a set of named metrics. Each call to Counter/Gauge/Histogram
// creates a NEW handle registered under the name: components keep their
// handle for exact per-instance reads, and the registry sums all handles
// sharing a name at snapshot time for the process-wide view. Registration
// takes the registry lock (cold path, at component construction); recording
// through a handle touches only that handle's atomics. Handles registered
// here live as long as the process; objects with a Close use a [Scope].
type Registry struct {
	mu       sync.Mutex
	counters map[string]*family[Counter]
	gauges   map[string]*family[Gauge]
	hists    map[string]*family[Histogram]
}

// family is the live handles under one name plus retired, the folded
// values of closed scopes' handles, which keeps a counter monotone and its
// name in every scrape. A gauge family's retired value stays zero.
type family[H any] struct {
	retired H
	live    map[*H]struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*family[Counter]),
		gauges:   make(map[string]*family[Gauge]),
		hists:    make(map[string]*family[Histogram]),
	}
}

// register creates a handle under name in fams, recorded in own when a
// scope s owns it. A closed scope hands out a detached handle. A malformed
// name panics on its first registration: that happens at component
// construction, so a typo fails fast in any test that builds the component
// rather than surfacing as a half-broken scrape in production.
func register[H any](r *Registry, fams map[string]*family[H], name string, s *Scope, own *[]owned[H]) *H {
	h := new(H)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := fams[name]
	if f == nil && !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if s != nil && s.closed {
		return h
	}
	if f == nil {
		f = &family[H]{live: make(map[*H]struct{})}
		fams[name] = f
	}
	f.live[h] = struct{}{}
	if s != nil {
		*own = append(*own, owned[H]{f, h})
	}
	return h
}

// Counter registers and returns a new counter handle under name.
func (r *Registry) Counter(name string) *Counter { return register(r, r.counters, name, nil, nil) }

// Gauge registers and returns a new gauge handle under name.
func (r *Registry) Gauge(name string) *Gauge { return register(r, r.gauges, name, nil, nil) }

// Histogram registers and returns a new histogram handle under name.
func (r *Registry) Histogram(name string) *Histogram { return register(r, r.hists, name, nil, nil) }

// Handles returns how many handles are live in the registry.
func (r *Registry) Handles() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return live(r.counters) + live(r.gauges) + live(r.hists)
}

func live[H any](fams map[string]*family[H]) (n int) {
	for _, f := range fams {
		n += len(f.live)
	}
	return n
}

// Scope is the set of handles one object registers; the object's Close
// closes it. Close costs O(the scope's handles), never a registry walk.
type Scope struct {
	r        *Registry
	closed   bool // guarded by r.mu
	counters []owned[Counter]
	gauges   []owned[Gauge]
	hists    []owned[Histogram]
}

type owned[H any] struct {
	f *family[H]
	h *H
}

// Scope returns a new, empty scope on r.
func (r *Registry) Scope() *Scope { return &Scope{r: r} }

// Counter registers a new counter handle owned by the scope.
func (s *Scope) Counter(name string) *Counter {
	return register(s.r, s.r.counters, name, s, &s.counters)
}

// Gauge registers a new gauge handle owned by the scope.
func (s *Scope) Gauge(name string) *Gauge { return register(s.r, s.r.gauges, name, s, &s.gauges) }

// Histogram registers a new histogram handle owned by the scope.
func (s *Scope) Histogram(name string) *Histogram {
	return register(s.r, s.r.hists, name, s, &s.hists)
}

// Close retires the scope's handles: counters and histograms fold into
// their name's retired value, gauges leave the sum. It is idempotent;
// recording through a retired handle is safe but reaches no snapshot.
func (s *Scope) Close() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	retire(s.counters, func(acc, h *Counter) { acc.Add(h.Load()) })
	retire(s.gauges, nil)
	retire(s.hists, (*Histogram).fold)
	s.counters, s.gauges, s.hists = nil, nil, nil
}

func retire[H any](own []owned[H], fold func(acc, h *H)) {
	for _, o := range own {
		if fold != nil {
			fold(&o.f.retired, o.h)
		}
		delete(o.f.live, o.h)
	}
}

// Snapshot is a point-in-time aggregate of a registry: one value per name,
// summed over every registered handle. The maps marshal to stable JSON
// (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot aggregates the registry's current state. Handles are read with
// atomic loads while writers keep recording; the snapshot is a consistent
// "no torn values" view, not a stop-the-world one — exactly what a scrape
// of a live daemon can promise.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, f := range r.counters {
		sum := f.retired.Load()
		for h := range f.live {
			sum += h.Load()
		}
		s.Counters[name] = sum
	}
	for name, f := range r.gauges {
		var sum int64
		for h := range f.live {
			sum += h.Load()
		}
		s.Gauges[name] = sum
	}
	for name, f := range r.hists {
		var merged Histogram
		merged.fold(&f.retired)
		for h := range f.live {
			merged.fold(h)
		}
		s.Histograms[name] = merged.Snapshot()
	}
	return s
}

// sortedKeys returns m's keys in lexical order (exposition determinism).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
