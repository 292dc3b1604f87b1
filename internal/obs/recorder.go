package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// RecorderConfig bounds and filters a FlightRecorder.
type RecorderConfig struct {
	// MaxBytes caps the recorder's total estimated trace bytes
	// (Trace.Bytes); adding a trace evicts the oldest kept traces
	// until it fits. <= 0 uses DefaultRecorderBytes. A single trace
	// larger than the cap is rejected outright — the cap is never
	// exceeded.
	MaxBytes int64
	// SlowThreshold is the tail-based keep: traces whose root span
	// lasted at least this long are always retained, regardless of
	// sampling. 0 means no fast path is privileged (only sampling
	// applies).
	SlowThreshold time.Duration
	// SampleN keeps 1-in-N of the traces below SlowThreshold
	// (deterministic counter, not random). <= 1 keeps every trace.
	SampleN int
}

// DefaultRecorderBytes is the recorder byte cap when the config
// leaves it zero: enough for a few hundred typical search traces.
const DefaultRecorderBytes = 8 << 20

// RecorderStats counts a recorder's traffic for the /debug/traces
// index and tests.
type RecorderStats struct {
	Added    int64 // traces offered via Add
	Kept     int64 // traces accepted (currently held or later evicted)
	Sampled  int64 // fast traces dropped by 1-in-N sampling
	Rejected int64 // traces dropped for exceeding the whole byte cap alone
	Evicted  int64 // kept traces later evicted by the byte cap
	Bytes    int64 // current estimated resident bytes
	Traces   int   // current trace count
}

// FlightRecorder holds recently completed search traces in a bounded
// ring: a byte cap with oldest-first eviction, plus tail-based keep —
// slow searches (>= SlowThreshold) are always retained while fast
// ones are 1-in-N sampled — so the interesting tail survives even
// under a flood of cheap searches. All methods are nil-safe and
// safe for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	cfg   RecorderConfig
	ring  []*recEntry // FIFO: ring[0] is the oldest kept trace
	bytes int64
	seq   int64 // fast-trace counter for 1-in-N sampling
	stats RecorderStats
}

type recEntry struct {
	trace *Trace
	bytes int64
}

// NewFlightRecorder creates a recorder with the config (zero values
// get defaults: DefaultRecorderBytes, keep-all sampling).
func NewFlightRecorder(cfg RecorderConfig) *FlightRecorder {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultRecorderBytes
	}
	if cfg.SampleN < 1 {
		cfg.SampleN = 1
	}
	return &FlightRecorder{cfg: cfg}
}

// Config returns the recorder's effective configuration.
func (r *FlightRecorder) Config() RecorderConfig {
	if r == nil {
		return RecorderConfig{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg
}

// Add offers a completed trace. Traces slower than SlowThreshold are
// always kept; faster ones pass a deterministic 1-in-N sample. The
// byte cap then evicts oldest-first until the newcomer fits (or
// rejects it when it alone exceeds the cap). Nil recorder and nil
// trace are no-ops.
func (r *FlightRecorder) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	b := t.Bytes()
	d := t.Duration()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Added++
	slow := r.cfg.SlowThreshold > 0 && d >= r.cfg.SlowThreshold
	if !slow && r.cfg.SampleN > 1 {
		r.seq++
		if r.seq%int64(r.cfg.SampleN) != 0 {
			r.stats.Sampled++
			return
		}
	}
	if b > r.cfg.MaxBytes {
		// One over-cap trace can never be held without busting the cap.
		r.stats.Rejected++
		return
	}
	r.stats.Kept++
	for r.bytes+b > r.cfg.MaxBytes && len(r.ring) > 0 {
		r.bytes -= r.ring[0].bytes
		r.ring[0] = nil
		r.ring = r.ring[1:]
		r.stats.Evicted++
	}
	r.ring = append(r.ring, &recEntry{trace: t, bytes: b})
	r.bytes += b
}

// Get returns the most recently added trace with the id (nil when
// absent or already evicted).
func (r *FlightRecorder) Get(id string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.ring) - 1; i >= 0; i-- {
		if r.ring[i].trace.ID() == id {
			return r.ring[i].trace
		}
	}
	return nil
}

// Traces returns the kept traces, newest first.
func (r *FlightRecorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.ring))
	for i := len(r.ring) - 1; i >= 0; i-- {
		out = append(out, r.ring[i].trace)
	}
	return out
}

// Len returns the kept trace count.
func (r *FlightRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Bytes returns the current estimated resident bytes.
func (r *FlightRecorder) Bytes() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// WriteDir writes every kept trace to dir (created if missing) as
// "<id>.trace.json" in Chrome trace-event format and returns how many
// files were written. Both CLIs call this under -trace-dir so every
// experiment run archives its traces for Perfetto.
func (r *FlightRecorder) WriteDir(dir string) (int, error) {
	if r == nil {
		return 0, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	n := 0
	for _, t := range r.Traces() {
		f, err := os.Create(filepath.Join(dir, t.ID()+".trace.json"))
		if err != nil {
			return n, err
		}
		err = t.WriteChromeJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return n, fmt.Errorf("obs: writing trace %s: %w", t.ID(), err)
		}
		n++
	}
	return n, nil
}

// Stats returns the recorder's traffic counters.
func (r *FlightRecorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Bytes = r.bytes
	s.Traces = len(r.ring)
	return s
}
