package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// Outcome classifies what the simulated network did with one message.
type Outcome string

// Delivery outcomes recorded in the event trace.
const (
	// OutcomeOK: delivered after the drawn virtual delay.
	OutcomeOK Outcome = "ok"
	// OutcomeDrop: lost to the per-link drop rate; the Call fails.
	OutcomeDrop Outcome = "drop"
	// OutcomeCut: lost to an active partition; the Call fails.
	OutcomeCut Outcome = "cut"
	// OutcomeDup: delivered, plus a duplicated copy presented to the
	// receiver (whose anti-replay check must reject it).
	OutcomeDup Outcome = "dup"
	// OutcomeDupRejected: the duplicated copy was rejected by the
	// receiver, as required.
	OutcomeDupRejected Outcome = "dup-rejected"
	// OutcomeDupAccepted: the duplicated copy was accepted — a transport
	// invariant violation the harness fails the scenario over.
	OutcomeDupAccepted Outcome = "dup-accepted"
)

// Event is one simulated network delivery. Events are recorded per link in
// send order; LinkSeq numbers them within their link, so sorting by
// (Link, LinkSeq, Outcome) yields a canonical order that does not depend
// on how goroutines on *different* links interleaved in real time.
type Event struct {
	Link     string  `json:"link"` // "from→to"
	LinkSeq  uint64  `json:"link_seq"`
	Msg      string  `json:"msg"`
	Response bool    `json:"response,omitempty"`
	Outcome  Outcome `json:"outcome"`
	// DelayUS is the virtual one-way delay drawn for this delivery and
	// VTimeUS the link's cumulative virtual clock after it (µs).
	DelayUS int64 `json:"delay_us"`
	VTimeUS int64 `json:"vtime_us"`
}

func (e Event) canonical() string {
	r := ""
	if e.Response {
		r = " resp"
	}
	return fmt.Sprintf("%s #%d %s%s %s %d %d", e.Link, e.LinkSeq, e.Msg, r, e.Outcome, e.DelayUS, e.VTimeUS)
}

// Trace accumulates the events of one scenario run.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

func (t *Trace) add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in canonical order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Link != evs[j].Link {
			return evs[i].Link < evs[j].Link
		}
		if evs[i].LinkSeq != evs[j].LinkSeq {
			return evs[i].LinkSeq < evs[j].LinkSeq
		}
		return evs[i].Outcome < evs[j].Outcome
	})
}

// Hash returns the SHA-256 over the canonical event encoding. Two runs of
// the same deterministic scenario with the same seed produce byte-equal
// canonical traces and therefore equal hashes — the property the CI
// determinism test enforces.
func (t *Trace) Hash() string {
	evs := t.Events()
	h := sha256.New()
	for _, e := range evs {
		h.Write([]byte(e.canonical()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
