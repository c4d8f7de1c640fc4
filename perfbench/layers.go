package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/identity"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Layers are measured from outside the program: deltas of the instruments
// the cluster registry already exports, deltas of the Go runtime's
// counters, and message counts from a delivery scheduler handed to the
// in-process network.

// sample is one series of a registry exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// regSnapshot is a parsed Prometheus exposition of a registry.
type regSnapshot []sample

func snapshotRegistry(r *obs.Registry) (regSnapshot, error) {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		return nil, fmt.Errorf("layers: registry exposition: %w", err)
	}
	var out regSnapshot
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("layers: malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("layers: exposition line %q: %w", line, err)
		}
		s := sample{name: line[:sp], value: v, labels: map[string]string{}}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// sum adds every series of name whose labels include the key/value pairs
// in match.
func (s regSnapshot) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, smp := range s {
		if smp.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if smp.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += smp.value
	}
	return total
}

// regDelta is the change of the registry over the measured phase.
type regDelta struct{ before, after regSnapshot }

func (d regDelta) count(name string, match ...string) float64 {
	return d.after.sum(name, match...) - d.before.sum(name, match...)
}

// mean is the mean of a histogram over the phase, in its own unit.
func (d regDelta) mean(hist string, match ...string) float64 {
	return ratio(d.count(hist+"_sum", match...), d.count(hist+"_count", match...))
}

// meanMS is the mean of a seconds histogram over the phase, in ms.
func (d regDelta) meanMS(hist string, match ...string) float64 {
	return 1000 * d.mean(hist, match...)
}

// countingScheduler is the in-process network's delivery scheduler for
// traced runs: it counts one-way messages by type and delays each by the
// configured latency with the same timer-then-spin discipline as the
// network's own precise scheduler.
type countingScheduler struct {
	latency time.Duration

	mu     sync.Mutex
	counts map[string]uint64
}

func newCountingScheduler(latency time.Duration) *countingScheduler {
	return &countingScheduler{latency: latency, counts: make(map[string]uint64)}
}

func (s *countingScheduler) Deliver(ctx context.Context, _, _ identity.NodeID, msgType string, _ bool) (transport.Verdict, error) {
	s.mu.Lock()
	s.counts[msgType]++
	s.mu.Unlock()
	return transport.Verdict{}, preciseDelay(ctx, s.latency)
}

func (s *countingScheduler) snapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// preciseDelay sleeps all but the final millisecond of d on a timer and
// yield-spins the rest, for microsecond-accurate hops.
func preciseDelay(ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	if coarse := d - time.Millisecond; coarse > time.Millisecond {
		t := time.NewTimer(coarse)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return ctx.Err()
}

// runtimeSnapshot is the Go runtime's cumulative allocation and GC work.
type runtimeSnapshot struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func snapshotRuntime() runtimeSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnapshot{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs)}
}
