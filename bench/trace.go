package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: a window, a replay block, or one layer call
// inside a block. calls is how many units of work the span covers (balls,
// samples, probes or operations, as its name implies), so a layer's cost
// per unit is its self-time divided by its calls.
type span struct {
	id, parent int // 1-based; parent 0 is the root
	name       string
	start, end time.Duration
	calls      int64
}

// tracer keeps spans in memory; the benchmark writes them out when it
// ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: time.Since(t.origin)})
	return len(t.spans)
}

// end closes span id, recording the units of work it covered.
func (t *tracer) end(id int, calls int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.end = time.Since(t.origin)
	s.calls = calls
}

// spanCost measures what recording one span costs, on a scratch tracer.
func spanCost() time.Duration {
	const n = 1 << 16
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0), 1)
	}
	return time.Since(t0) / n
}

// layerSum is the total self-time and work of the spans sharing one name.
type layerSum struct {
	self  time.Duration
	calls int64
}

// perCall returns the mean self-time per unit of work in ns (0 when the
// layer did no work).
func (l layerSum) perCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.self.Nanoseconds()) / float64(l.calls)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, over the spans recorded from index from on.
func (t *tracer) selfTimes(from int) map[string]layerSum {
	spans := t.spans[from:]
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	sums := make(map[string]layerSum)
	for _, s := range spans {
		l := sums[s.name]
		l.self += s.end - s.start - child[s.id]
		l.calls += s.calls
		sums[s.name] = l
	}
	return sums
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in µs).
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int   `json:"id"`
	Parent int   `json:"parent"`
	Calls  int64 `json:"calls"`
}

// write stores the spans as Chrome trace-event JSON at path.
func (t *tracer) write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: traceArgs{ID: s.id, Parent: s.parent, Calls: s.calls},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
