package obs

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock reads so deterministic tests inject a
// fake clock instead of sleeping. All span and layer timing in the
// repository routes through a Clock.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Real is the wall clock.
var Real Clock = realClock{}

// FakeClock is a manually advanced Clock for tests. An optional
// per-read step auto-advances time on every Now call, so code that
// measures an interval between two reads sees a deterministic,
// non-zero duration.
type FakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewFakeClock starts a fake clock at start.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{t: start} }

// AutoAdvance makes every Now call advance the clock by step after
// returning, and returns the clock for chaining.
func (c *FakeClock) AutoAdvance(step time.Duration) *FakeClock {
	c.mu.Lock()
	c.step = step
	c.mu.Unlock()
	return c
}

// Now returns the current fake time, then applies the auto-advance
// step if one is set.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// PhaseStat aggregates the spans observed under one phase name.
type PhaseStat struct {
	Count int64
	Total time.Duration
}

// PhaseTimes accumulates per-phase durations; one instance backs each
// search-scoped Observer, so a SearchReport can break a single
// refinement down by phase. Nil-safe.
type PhaseTimes struct {
	mu sync.Mutex
	m  map[string]PhaseStat
}

// NewPhaseTimes creates an empty collector.
func NewPhaseTimes() *PhaseTimes { return &PhaseTimes{m: make(map[string]PhaseStat)} }

func (p *PhaseTimes) add(name string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	s := p.m[name]
	s.Count++
	s.Total += d
	p.m[name] = s
	p.mu.Unlock()
}

// Snapshot returns a copy of the accumulated phase stats.
func (p *PhaseTimes) Snapshot() map[string]PhaseStat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PhaseStat, len(p.m))
	for k, v := range p.m {
		out[k] = v
	}
	return out
}
