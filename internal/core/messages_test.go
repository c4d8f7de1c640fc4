package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/identity"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// countingScheduler delivers every message at once and counts the
// requests each node sends, by message type.
type countingScheduler struct {
	mu   sync.Mutex
	sent map[identity.NodeID]map[string]int
}

func (s *countingScheduler) Deliver(_ context.Context, from, _ identity.NodeID, msgType string, response bool) (transport.Verdict, error) {
	if !response {
		s.mu.Lock()
		if s.sent[from] == nil {
			s.sent[from] = make(map[string]int)
		}
		s.sent[from][msgType]++
		s.mu.Unlock()
	}
	return transport.Verdict{}, nil
}

// take returns and resets the counts of the requests id sent.
func (s *countingScheduler) take(id identity.NodeID) map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.sent[id]
	delete(s.sent, id)
	return m
}

// TestSessionMessageCounts pins what each session operation sends: the
// execution layer keeps no per-transaction state, so a write to an item
// already read, and a rewrite, send nothing; a blind write sends one read
// for its baseline; the write set first leaves the client in the signed
// end_transaction. A read-modify-write therefore costs one read plus one
// end_txn.
func TestSessionMessageCounts(t *testing.T) {
	sched := &countingScheduler{sent: make(map[identity.NodeID]map[string]int)}
	c := testCluster(t, Config{NetScheduler: sched})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	x, y := ItemName(0, 1), ItemName(1, 2)
	s := cl.Begin()
	steps := []struct {
		name string
		op   func() error
		want map[string]int
	}{
		{"read", func() error { _, err := s.Read(ctx, x); return err }, map[string]int{wire.MsgRead: 1}},
		{"write after read", func() error { return s.Write(ctx, x, []byte("1")) }, nil},
		{"rewrite", func() error { return s.Write(ctx, x, []byte("2")) }, nil},
		{"blind write", func() error { return s.Write(ctx, y, []byte("3")) }, map[string]int{wire.MsgRead: 1}},
		{"blind rewrite", func() error { return s.Write(ctx, y, []byte("4")) }, nil},
		{"read own write", func() error { _, err := s.Read(ctx, y); return err }, nil},
		{"commit", func() error {
			res, err := s.Commit(ctx)
			if err == nil && !res.Committed {
				err = errors.New("aborted")
			}
			return err
		}, map[string]int{wire.MsgEndTxn: 1}},
	}
	sched.take(cl.ID())
	for _, st := range steps {
		if err := st.op(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got := sched.take(cl.ID()); !reflect.DeepEqual(got, st.want) {
			t.Errorf("%s sent %v, want %v", st.name, got, st.want)
		}
	}
	for i, id := range []txn.ItemID{x, y} {
		want := []string{"2", "4"}[i]
		item, err := c.ServerAt(i).Shard().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(item.Value) != want {
			t.Errorf("item %s = %q, want %q", id, item.Value, want)
		}
	}
}
