package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// txnLayers collects one transaction's per-call timings in traced runs. A
// nil *txnLayers collects nothing.
type txnLayers struct {
	reads, writes, execs, commits []time.Duration
	covered                       time.Duration // time inside child spans
}

func (l *txnLayers) op(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.covered += d
	switch name {
	case "read":
		l.reads = append(l.reads, d)
	case "write":
		l.writes = append(l.writes, d)
	case "commit":
		l.commits = append(l.commits, d)
	}
}

func (l *txnLayers) execDone(d time.Duration) {
	if l != nil {
		l.execs = append(l.execs, d)
	}
}

// recorder accumulates the outcomes of one phase from many goroutines.
// Every operation counts as attempted, and as failed if it failed; timings
// are kept only for operations that complete inside the measured window
// (all of them, in one slot, when no window is set).
type recorder struct {
	mu sync.Mutex

	start, end time.Time // measured window
	slots      int

	attempted, failed int
	errors            map[string]int

	// Transactions completed in the window, their latencies by the slot
	// they completed in, and the completion time of every commit of the
	// phase, window or not.
	committed   int
	commitCalls int
	txnLat      [][]time.Duration
	commitTimes []time.Time

	// Verified reads completed in the window.
	vreads        int
	vreadReissues int // reads re-issued after the light client gave up as stale
	vreadLat      [][]time.Duration

	// Open-loop dispatch of arrivals due in the window.
	late        []time.Duration
	maxInflight int64

	// Per-call timings of traced runs.
	reads, writes, execs, commits, unattributed []time.Duration
}

func newRecorder() *recorder {
	return &recorder{
		errors:   make(map[string]int),
		slots:    1,
		txnLat:   make([][]time.Duration, 1),
		vreadLat: make([][]time.Duration, 1),
	}
}

// measureWindow restricts timings to [start, start+d), split into slots of
// about a second. Throughput and latency percentiles are medians over the
// slots, so a burst of interference in a few slots does not move them.
func (rec *recorder) measureWindow(start time.Time, d time.Duration) {
	rec.start, rec.end = start, start.Add(d)
	rec.slots = max(1, int(d/time.Second))
	rec.txnLat = make([][]time.Duration, rec.slots)
	rec.vreadLat = make([][]time.Duration, rec.slots)
}

// slot returns the slot t falls in, or -1 outside the measured window
// (always 0 when no window is set).
func (rec *recorder) slot(t time.Time) int {
	if rec.start.IsZero() {
		return 0
	}
	if t.Before(rec.start) || !t.Before(rec.end) {
		return -1
	}
	return min(rec.slots-1, int(int64(t.Sub(rec.start))*int64(rec.slots)/int64(rec.end.Sub(rec.start))))
}

func (rec *recorder) failLocked(err error) {
	rec.failed++
	rec.errors[err.Error()]++
}

func (rec *recorder) txn(end time.Time, lat time.Duration, commitCalls int, err error, lay *txnLayers) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	if err != nil {
		rec.failLocked(err)
		return
	}
	rec.commitTimes = append(rec.commitTimes, end)
	slot := rec.slot(end)
	if slot < 0 {
		return
	}
	rec.committed++
	rec.commitCalls += commitCalls
	rec.txnLat[slot] = append(rec.txnLat[slot], lat)
	if lay != nil {
		rec.reads = append(rec.reads, lay.reads...)
		rec.writes = append(rec.writes, lay.writes...)
		rec.execs = append(rec.execs, lay.execs...)
		rec.commits = append(rec.commits, lay.commits...)
		rec.unattributed = append(rec.unattributed, lat-lay.covered)
	}
}

func (rec *recorder) vread(end time.Time, lat time.Duration, reissued int, err error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	if err != nil {
		rec.failLocked(err)
		return
	}
	slot := rec.slot(end)
	if slot < 0 {
		return
	}
	rec.vreads++
	rec.vreadReissues += reissued
	rec.vreadLat[slot] = append(rec.vreadLat[slot], lat)
}

// other records an operation that is neither a transaction nor a read:
// an audit or a recovery.
func (rec *recorder) other(err error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	if err != nil {
		rec.failLocked(err)
	}
}

// dispatched records how late the open-loop generator sent a request due
// at due, and how many were outstanding with it.
func (rec *recorder) dispatched(due time.Time, late time.Duration, inflight int64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.slot(due) < 0 {
		return
	}
	rec.late = append(rec.late, late)
	rec.maxInflight = max(rec.maxInflight, inflight)
}

// refused records an arrival turned away at the in-flight cap.
func (rec *recorder) refused() {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	rec.failLocked(fmt.Errorf("refused at the in-flight cap of %d", maxInflight))
}

// tps is the median over the window's slots of transactions committed
// per second, so a burst of interference in one slot does not move it.
// Commits arrive in bursts of a block each; counting them along a line
// through consecutive commits keeps a slot's count from jumping by a
// whole block as a boundary moves.
func (rec *recorder) tps() float64 {
	ts := append([]time.Time(nil), rec.commitTimes...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	// count interpolates the number of commits up to t.
	count := func(t time.Time) float64 {
		i := sort.Search(len(ts), func(i int) bool { return ts[i].After(t) })
		if i == 0 || i == len(ts) {
			return float64(i)
		}
		return float64(i) + float64(t.Sub(ts[i-1]))/float64(ts[i].Sub(ts[i-1]))
	}
	slot := rec.end.Sub(rec.start) / time.Duration(rec.slots)
	rates := make([]float64, rec.slots)
	for i := range rates {
		from := rec.start.Add(time.Duration(i) * slot)
		rates[i] = (count(from.Add(slot)) - count(from)) / slot.Seconds()
	}
	return median(rates)
}

// reportErrors prints each distinct failure once, with its count.
func (rec *recorder) reportErrors(phase string) {
	for msg, n := range rec.errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d× %s\n", phase, n, msg)
	}
}
