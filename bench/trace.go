package main

import (
	"runtime"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds on the
// tracer's clock (see tracer); Parent and Request are span IDs, 0 for
// none. Allocs and AllocBytes are runtime.MemStats deltas over the
// span, exact when nothing else runs (the traced run is one goroutine).
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Request    int    `json:"request"`
	Name       string `json:"name"`
	Workload   string `json:"workload"`
	Template   string `json:"template,omitempty"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Rows       int64  `json:"rows"`
	Bytes      int64  `json:"bytes"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`

	mallocs0, bytes0 uint64
}

func (s *span) duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// count records the work a span did; safe on the nil span an absent
// tracer hands out.
func (s *span) count(rows, bytes int64) {
	if s != nil {
		s.Rows, s.Bytes = rows, bytes
	}
}

// maxSpans bounds a traced run's memory and its span file (~200 bytes
// a span); the traced run stops starting cycles when the slab is
// nearly full.
const maxSpans = 1 << 15

// tracer records spans in memory, from one goroutine, for writing out
// when the run ends. A nil *tracer records nothing, which is how the
// end-to-end runs share the set-up code with the traced run.
//
// Reading MemStats stops the world and costs more than a point lookup,
// so the tracer's clock stands still while the tracer itself works:
// span times exclude the bookkeeping, children still sum to their
// parent, and the total stopped time is reported as the tracing
// overhead instead of hiding inside "unattributed".
type tracer struct {
	workload string
	epoch    time.Time
	stopped  time.Duration
	spans    []span // fixed capacity: spans are handed out by pointer
	ms       runtime.MemStats
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// room reports whether n more spans fit.
func (t *tracer) room(n int) bool { return len(t.spans)+n <= cap(t.spans) }

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(name, template string, parent *span) *span {
	if t == nil {
		return nil
	}
	t0 := time.Now()
	if !t.room(1) {
		panic("bench: span slab full; callers check tracer.room before a cycle")
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Workload: t.workload, Template: template,
		StartNS: int64(t0.Sub(t.epoch) - t.stopped),
	})
	s := &t.spans[len(t.spans)-1]
	s.Request = s.ID
	if parent != nil {
		s.Parent, s.Request = parent.ID, parent.Request
	}
	runtime.ReadMemStats(&t.ms)
	s.mallocs0, s.bytes0 = t.ms.Mallocs, t.ms.TotalAlloc
	t.stopped += time.Since(t0)
	return s
}

// end closes a span.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	t0 := time.Now()
	s.EndNS = int64(t0.Sub(t.epoch) - t.stopped)
	runtime.ReadMemStats(&t.ms)
	s.Allocs, s.AllocBytes = t.ms.Mallocs-s.mallocs0, t.ms.TotalAlloc-s.bytes0
	t.stopped += time.Since(t0)
}
