package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// request share Trace, which is the id of the request's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"` // from the start of the process
	Dur    int64  `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run skips every span.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// id allocates a span id (0 when tracing is off).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(trace, id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Microseconds(),
		Dur:   end.Sub(start).Microseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a leaf span under parent in the given trace.
func (t *tracer) child(trace, parent uint64, name string, start, end time.Time) {
	t.add(trace, t.id(), parent, name, start, end)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
