package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tfcommit"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// immediateTerminator commits every end_transaction request as its own
// block through a TFCommit coordinator — a minimal stand-in for the
// production batching service.
type immediateTerminator struct {
	reg   *identity.Registry
	coord *tfcommit.Coordinator
}

func (t *immediateTerminator) Terminate(ctx context.Context, env identity.Envelope) (*wire.EndTxnResp, error) {
	tr, err := server.DecodeTxnEnvelope(t.reg, env)
	if err != nil {
		return nil, err
	}
	res, err := t.coord.CommitBlock(ctx, []*txn.Transaction{tr}, []identity.Envelope{env})
	if err != nil {
		return nil, err
	}
	return &wire.EndTxnResp{Committed: res.Committed, Block: res.Block}, nil
}

type mapDirectory map[txn.ItemID]identity.NodeID

func (d mapDirectory) Owner(id txn.ItemID) (identity.NodeID, bool) {
	o, ok := d[id]
	return o, ok
}

func item(s, i int) txn.ItemID { return txn.ItemID(fmt.Sprintf("s%d/i%d", s, i)) }

// newClientStack assembles n servers, an immediate TFCommit terminator on
// server 0, and a client.
func newClientStack(t *testing.T, n int) (*client.Client, []*server.Server) {
	t.Helper()
	reg := identity.NewRegistry()
	net := transport.NewLocalNetwork(0)
	dir := mapDirectory{}
	var ids []identity.NodeID
	for s := 0; s < n; s++ {
		id := identity.NodeID(fmt.Sprintf("srv%d", s))
		ids = append(ids, id)
		for i := 0; i < 8; i++ {
			dir[item(s, i)] = id
		}
	}
	var servers []*server.Server
	var idents []*identity.Identity
	var endpoints []transport.Transport
	// Every server is registered before any is built: a server's registry
	// servers are the full set its decisions must be signed by.
	for s := 0; s < n; s++ {
		ident, err := identity.New(ids[s], identity.RoleServer, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(ident.Public())
		idents = append(idents, ident)
	}
	for s, ident := range idents {
		items := make([]txn.ItemID, 8)
		for i := range items {
			items[i] = item(s, i)
		}
		shard := store.NewShard(items, func(txn.ItemID) []byte { return []byte("init") }, store.Config{})
		srv, err := server.New(server.Config{Identity: ident, Registry: reg, Directory: dir, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		endpoints = append(endpoints, net.Endpoint(ident, reg, srv))
	}
	coord, err := tfcommit.New(tfcommit.Config{
		Identity: idents[0], Registry: reg, Transport: endpoints[0],
		Servers: ids, Local: servers[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	servers[0].SetTerminator(&immediateTerminator{reg: reg, coord: coord})

	clIdent, err := identity.New("c1", identity.RoleClient, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(clIdent.Public())
	cl, err := client.New(client.Config{
		Identity:    clIdent,
		Registry:    reg,
		Transport:   net.Endpoint(clIdent, reg, nil),
		Directory:   dir,
		Coordinator: ids[0],
		ClientID:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, servers
}

func TestSessionLifecycle(t *testing.T) {
	cl, servers := newClientStack(t, 2)
	ctx := context.Background()

	s := cl.Begin()
	v, err := s.Read(ctx, item(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("init")) {
		t.Fatalf("read = %q", v)
	}
	if err := s.Write(ctx, item(0, 0), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, item(1, 3), []byte("blind")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("aborted: %+v", res)
	}
	got, err := servers[1].Shard().Get(item(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Value, []byte("blind")) {
		t.Fatalf("blind write not applied: %q", got.Value)
	}

	// The session is single-use.
	if _, err := s.Commit(ctx); !errors.Is(err, client.ErrSessionDone) {
		t.Fatalf("second commit: %v", err)
	}
	if _, err := s.Read(ctx, item(0, 0)); !errors.Is(err, client.ErrSessionDone) {
		t.Fatalf("read after commit: %v", err)
	}
}

func TestSessionReadYourWrites(t *testing.T) {
	cl, _ := newClientStack(t, 1)
	ctx := context.Background()
	s := cl.Begin()
	if err := s.Write(ctx, item(0, 1), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(ctx, item(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, []byte("mine")) {
		t.Fatalf("read-your-write = %q", v)
	}
	// The write stays a single (blind) entry; the local read must not have
	// added a read entry for it.
	tr := s.Transaction(txn.Timestamp{Time: 1, ClientID: 1})
	if len(tr.Reads) != 0 || len(tr.Writes) != 1 {
		t.Fatalf("sets = %d reads / %d writes", len(tr.Reads), len(tr.Writes))
	}
	if !tr.Writes[0].Blind {
		t.Fatal("write should be blind")
	}
	if !bytes.Equal(tr.Writes[0].OldVal, []byte("init")) {
		t.Fatalf("blind write old value = %q", tr.Writes[0].OldVal)
	}
}

func TestSessionReadCaching(t *testing.T) {
	cl, servers := newClientStack(t, 1)
	ctx := context.Background()
	s := cl.Begin()
	v1, err := s.Read(ctx, item(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the store behind the session's back; a cached re-read must
	// return the first observation (repeatable reads within the txn).
	if err := servers[0].Shard().Apply([]store.Access{{
		Writes: []txn.WriteEntry{{ID: item(0, 2), NewVal: []byte("changed")}},
		TS:     txn.Timestamp{Time: 99, ClientID: 9},
	}}); err != nil {
		t.Fatal(err)
	}
	v2, err := s.Read(ctx, item(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatalf("re-read changed: %q vs %q", v1, v2)
	}
	tr := s.Transaction(txn.Timestamp{Time: 1, ClientID: 1})
	if len(tr.Reads) != 1 {
		t.Fatalf("reads = %d, want 1 (cached)", len(tr.Reads))
	}
}

func TestReadWriteThenCommitRecordsEntries(t *testing.T) {
	cl, _ := newClientStack(t, 2)
	ctx := context.Background()
	s := cl.Begin()
	if _, err := s.Read(ctx, item(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, item(1, 0), []byte("rmw")); err != nil {
		t.Fatal(err)
	}
	tr := s.Transaction(txn.Timestamp{Time: 1, ClientID: 1})
	if len(tr.Reads) != 1 || len(tr.Writes) != 1 {
		t.Fatalf("sets = %d/%d", len(tr.Reads), len(tr.Writes))
	}
	if tr.Writes[0].Blind {
		t.Fatal("read-then-write must not be blind")
	}
	res, err := s.Commit(ctx)
	if err != nil || !res.Committed {
		t.Fatalf("commit: %v %+v", err, res)
	}
	if res.Block == nil || len(res.Block.Txns) != 1 {
		t.Fatalf("block = %+v", res.Block)
	}
}

func TestClientRejectsUnknownItem(t *testing.T) {
	cl, _ := newClientStack(t, 1)
	ctx := context.Background()
	s := cl.Begin()
	if _, err := s.Read(ctx, "ghost"); err == nil {
		t.Error("read of unknown item accepted")
	}
	if err := s.Write(ctx, "ghost", []byte("x")); err == nil {
		t.Error("write of unknown item accepted")
	}
}

func TestVerifyBlockRejectsForgery(t *testing.T) {
	cl, _ := newClientStack(t, 2)
	ctx := context.Background()
	s := cl.Begin()
	if err := s.Write(ctx, item(0, 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Commit(ctx)
	if err != nil || !res.Committed {
		t.Fatalf("commit: %v", err)
	}
	// A genuine block verifies.
	if err := cl.VerifyBlock(res.Block); err != nil {
		t.Fatalf("genuine block rejected: %v", err)
	}
	// A mutated block must not.
	forged := res.Block.Clone()
	forged.Txns[0].Writes[0].NewVal = []byte("forged")
	if err := cl.VerifyBlock(forged); !errors.Is(err, client.ErrInvalidCoSig) {
		t.Fatalf("forged block: %v", err)
	}
	noSigners := res.Block.Clone()
	noSigners.Signers = nil
	if err := cl.VerifyBlock(noSigners); !errors.Is(err, client.ErrInvalidCoSig) {
		t.Fatalf("signerless block: %v", err)
	}
	var _ *ledger.Block = forged
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := client.New(client.Config{}); err == nil {
		t.Error("empty config accepted")
	}
	ident, _ := identity.New("c", identity.RoleClient, nil)
	reg := identity.NewRegistry()
	net := transport.NewLocalNetwork(0)
	if _, err := client.New(client.Config{
		Identity: ident, Registry: reg,
		Transport: net.Endpoint(ident, reg, nil),
		Directory: mapDirectory{},
	}); err == nil {
		t.Error("config without coordinator accepted")
	}
}
