package tfcommit_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tfcommit"
	"repro/internal/transport"
	"repro/internal/txn"
)

// stack is a minimal TFCommit deployment: n servers on a local network and
// a coordinator driving them directly.
type stack struct {
	reg     *identity.Registry
	net     *transport.LocalNetwork
	servers []*server.Server
	idents  []*identity.Identity
	coord   *tfcommit.Coordinator
	client  *identity.Identity
	dir     mapDirectory
}

type mapDirectory map[txn.ItemID]identity.NodeID

func (d mapDirectory) Owner(id txn.ItemID) (identity.NodeID, bool) {
	o, ok := d[id]
	return o, ok
}

func item(s, i int) txn.ItemID { return txn.ItemID(fmt.Sprintf("s%d/i%d", s, i)) }

func newStack(t *testing.T, n int, faults tfcommit.Faults) *stack {
	t.Helper()
	st := &stack{reg: identity.NewRegistry(), net: transport.NewLocalNetwork(0), dir: mapDirectory{}}
	var ids []identity.NodeID
	for s := 0; s < n; s++ {
		id := identity.NodeID(fmt.Sprintf("srv%d", s))
		ids = append(ids, id)
		for i := 0; i < 4; i++ {
			st.dir[item(s, i)] = id
		}
	}
	// Every server is registered before any is built: a server's registry
	// servers are the full set its decisions must be signed by.
	for s := 0; s < n; s++ {
		ident, err := identity.New(ids[s], identity.RoleServer, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.reg.Register(ident.Public())
		st.idents = append(st.idents, ident)
	}
	var endpoints []transport.Transport
	for s, ident := range st.idents {
		items := make([]txn.ItemID, 4)
		for i := range items {
			items[i] = item(s, i)
		}
		shard := store.NewShard(items, func(txn.ItemID) []byte { return []byte("0") }, store.Config{})
		srv, err := server.New(server.Config{
			Identity: ident, Registry: st.reg, Directory: st.dir, Shard: shard,
		})
		if err != nil {
			t.Fatal(err)
		}
		st.servers = append(st.servers, srv)
		endpoints = append(endpoints, st.net.Endpoint(ident, st.reg, srv))
	}
	coord, err := tfcommit.New(tfcommit.Config{
		Identity:  st.idents[0],
		Registry:  st.reg,
		Transport: endpoints[0],
		Servers:   ids,
		Local:     st.servers[0],
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.coord = coord

	cl, err := identity.New("client", identity.RoleClient, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.reg.Register(cl.Public())
	st.client = cl
	return st
}

// chain is a chain verifier for the stack's full server set.
func (st *stack) chain() *ledger.ChainVerifier {
	return ledger.NewChainVerifier(st.reg.Servers(), crypto.NewSerial(st.reg))
}

func (st *stack) freshTxn(t *testing.T, id string, ts uint64, s, i int) (*txn.Transaction, identity.Envelope) {
	t.Helper()
	it, err := st.servers[s].Shard().Get(item(s, i))
	if err != nil {
		t.Fatal(err)
	}
	tr := &txn.Transaction{
		ID: id, TS: txn.Timestamp{Time: ts, ClientID: 3},
		Writes: []txn.WriteEntry{{
			ID: it.ID, NewVal: []byte("v-" + id), OldVal: it.Value,
			Blind: true, RTS: it.RTS, WTS: it.WTS,
		}},
	}
	payload, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, identity.Seal(st.client, payload)
}

func TestCommitBlockHappyPath(t *testing.T) {
	st := newStack(t, 3, tfcommit.Faults{})
	ctx := context.Background()

	tr, env := st.freshTxn(t, "t1", 5, 1, 0)
	res, err := st.coord.CommitBlock(ctx, []*txn.Transaction{tr}, []identity.Envelope{env})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.Block.Decision != ledger.DecisionCommit {
		t.Fatalf("result = %+v", res)
	}
	if res.Block.CoSig().IsZero() {
		t.Fatal("committed block lacks co-sign")
	}
	if err := st.chain().Entry(0, nil, res.Block, nil); err != nil {
		t.Fatalf("block verification: %v", err)
	}
	for s, srv := range st.servers {
		if srv.Log().Len() != 1 {
			t.Errorf("server %d log length %d", s, srv.Log().Len())
		}
	}

	// Multiple transactions per block (paper §4.6).
	t2, e2 := st.freshTxn(t, "t2", 6, 0, 1)
	t3, e3 := st.freshTxn(t, "t3", 7, 2, 1)
	res, err = st.coord.CommitBlock(ctx, []*txn.Transaction{t2, t3}, []identity.Envelope{e2, e3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || len(res.Block.Txns) != 2 {
		t.Fatalf("batched block = %+v", res.Block)
	}
	if len(res.Block.Roots) != 2 {
		t.Fatalf("expected roots from 2 involved servers, got %d", len(res.Block.Roots))
	}
}

func TestCommitBlockAbortsOnConflict(t *testing.T) {
	st := newStack(t, 2, tfcommit.Faults{})
	ctx := context.Background()

	tr, env := st.freshTxn(t, "t1", 5, 1, 0)
	// The item changes after the client captured its timestamps.
	if err := st.servers[1].Shard().Apply([]store.Access{{
		Writes: []txn.WriteEntry{{ID: item(1, 0), NewVal: []byte("race")}},
		TS:     txn.Timestamp{Time: 2, ClientID: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := st.coord.CommitBlock(ctx, []*txn.Transaction{tr}, []identity.Envelope{env})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("conflicting txn committed")
	}
	if res.Block.Decision != ledger.DecisionAbort {
		t.Fatalf("decision = %v", res.Block.Decision)
	}
	// Even the aborted block is collectively signed (paper §4.3.1 phase 5).
	if err := st.chain().Entry(0, nil, res.Block, nil); err != nil {
		t.Fatalf("aborted block verification: %v", err)
	}
	// Aborted blocks are not logged.
	for s, srv := range st.servers {
		if srv.Log().Len() != 0 {
			t.Errorf("server %d logged an aborted block", s)
		}
	}
}

func TestCommitBlockIdentifiesFaultySigner(t *testing.T) {
	st := newStack(t, 3, tfcommit.Faults{})
	st.servers[2].SetFaults(server.Faults{BadResponse: true})
	tr, env := st.freshTxn(t, "t1", 5, 0, 0)
	_, err := st.coord.CommitBlock(context.Background(), []*txn.Transaction{tr}, []identity.Envelope{env})
	var fse *tfcommit.FaultySignersError
	if !errors.As(err, &fse) {
		t.Fatalf("err = %v, want FaultySignersError", err)
	}
	if len(fse.Faulty) != 1 || fse.Faulty[0] != "srv2" {
		t.Fatalf("faulty = %v, want [srv2]", fse.Faulty)
	}
}

func TestCommitBlockFakeRootRefused(t *testing.T) {
	st := newStack(t, 3, tfcommit.Faults{FakeRootFor: "srv1"})
	tr, env := st.freshTxn(t, "t1", 5, 1, 0)
	_, err := st.coord.CommitBlock(context.Background(), []*txn.Transaction{tr}, []identity.Envelope{env})
	var re *tfcommit.RefusalError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RefusalError", err)
	}
	if re.Phase != "challenge" {
		t.Errorf("refusal phase = %s, want challenge", re.Phase)
	}
	if _, ok := re.Refused["srv1"]; !ok {
		t.Errorf("srv1 did not refuse: %v", re.Refused)
	}
}

func TestCommitBlockChallengeEquivocationExposed(t *testing.T) {
	st := newStack(t, 4, tfcommit.Faults{EquivocateChallenge: true})
	tr, env := st.freshTxn(t, "t1", 5, 0, 0)
	_, err := st.coord.CommitBlock(context.Background(), []*txn.Transaction{tr}, []identity.Envelope{env})
	var re *tfcommit.RefusalError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RefusalError", err)
	}
	if len(re.Refused) == 0 {
		t.Fatal("no cohort exposed the equivocation")
	}
}

func TestCommitBlockValidation(t *testing.T) {
	st := newStack(t, 2, tfcommit.Faults{})
	ctx := context.Background()
	if _, err := st.coord.CommitBlock(ctx, nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	tr, _ := st.freshTxn(t, "t1", 5, 0, 0)
	if _, err := st.coord.CommitBlock(ctx, []*txn.Transaction{tr}, nil); err == nil {
		t.Error("missing envelopes accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := tfcommit.New(tfcommit.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	ident, _ := identity.New("x", identity.RoleServer, nil)
	if _, err := tfcommit.New(tfcommit.Config{
		Identity: ident, Registry: identity.NewRegistry(),
	}); err == nil {
		t.Error("config without local participant accepted")
	}
}
