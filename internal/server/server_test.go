package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/cosi"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/schnorr"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wire"
)

// env is an in-memory set of servers sharing a registry and directory,
// driven directly (no transport) so each cohort phase can be corrupted
// independently.
type env struct {
	reg     *identity.Registry
	servers []*Server
	idents  []*identity.Identity
	client  *identity.Identity
	dir     mapDirectory
}

type mapDirectory map[txn.ItemID]identity.NodeID

func (d mapDirectory) Owner(id txn.ItemID) (identity.NodeID, bool) {
	owner, ok := d[id]
	return owner, ok
}

// item i of server s is named "s<idx>/i<idx>"; each server owns 4 items.
func testItem(s, i int) txn.ItemID { return txn.ItemID(fmt.Sprintf("s%d/i%d", s, i)) }

func newEnv(t *testing.T, n int) *env {
	t.Helper()
	e := &env{reg: identity.NewRegistry(), dir: mapDirectory{}}
	for s := 0; s < n; s++ {
		for i := 0; i < 4; i++ {
			e.dir[testItem(s, i)] = identity.NodeID(fmt.Sprintf("srv%d", s))
		}
	}
	// Every server is registered before any is built: a server's registry
	// servers are the full set its decisions must be signed by.
	for s := 0; s < n; s++ {
		ident, err := identity.New(identity.NodeID(fmt.Sprintf("srv%d", s)), identity.RoleServer, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.reg.Register(ident.Public())
		e.idents = append(e.idents, ident)
	}
	for s, ident := range e.idents {
		items := make([]txn.ItemID, 4)
		for i := range items {
			items[i] = testItem(s, i)
		}
		shard := store.NewShard(items, func(txn.ItemID) []byte { return []byte("0") }, store.Config{})
		srv, err := New(Config{Identity: ident, Registry: e.reg, Directory: e.dir, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		e.servers = append(e.servers, srv)
	}
	cl, err := identity.New("client", identity.RoleClient, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.reg.Register(cl.Public())
	e.client = cl
	return e
}

// signTxn wraps a transaction in a client-signed envelope.
func (e *env) signTxn(t *testing.T, tr *txn.Transaction) identity.Envelope {
	t.Helper()
	payload, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return identity.Seal(e.client, payload)
}

// freshTxn builds a transaction reading and writing item (s,i) with the
// item's current timestamps (a valid OCC access).
func (e *env) freshTxn(t *testing.T, id string, ts uint64, s, i int) *txn.Transaction {
	t.Helper()
	item, err := e.servers[s].Shard().Get(testItem(s, i))
	if err != nil {
		t.Fatal(err)
	}
	return &txn.Transaction{
		ID: id, TS: txn.Timestamp{Time: ts, ClientID: 9},
		Reads: []txn.ReadEntry{{ID: item.ID, Value: item.Value, RTS: item.RTS, WTS: item.WTS}},
		Writes: []txn.WriteEntry{{
			ID: item.ID, NewVal: []byte("new-" + id), RTS: item.RTS, WTS: item.WTS,
		}},
	}
}

// partialBlock assembles the phase-1 block for the given transactions.
func (e *env) partialBlock(txns ...*txn.Transaction) *ledger.Block {
	b := &ledger.Block{
		Height:   uint64(e.servers[0].Log().Len()),
		PrevHash: e.servers[0].Log().TipHash(),
	}
	for _, tr := range txns {
		b.Txns = append(b.Txns, ledger.RecordFromTransaction(tr))
	}
	for _, ident := range e.idents {
		b.Signers = append(b.Signers, ident.ID)
	}
	return b
}

// round carries a scripted TFCommit round's intermediate state.
type round struct {
	block       *ledger.Block
	votes       []*wire.VoteResp
	commitments []cosi.Commitment
	aggV        schnorr.Point
	aggPub      schnorr.PublicKey
	challenge   *big.Int
}

// collectVotes runs phase 1→2 against every server.
func (e *env) collectVotes(t *testing.T, b *ledger.Block, envs []identity.Envelope) *round {
	t.Helper()
	r := &round{block: b}
	ctx := context.Background()
	for s, srv := range e.servers {
		v, err := srv.GetVote(ctx, e.idents[0].ID, &wire.GetVoteReq{Block: b, ClientReqs: envs})
		if err != nil {
			t.Fatalf("server %d vote: %v", s, err)
		}
		r.votes = append(r.votes, v)
		p, err := schnorr.UnmarshalPoint(v.Commitment)
		if err != nil {
			t.Fatal(err)
		}
		r.commitments = append(r.commitments, cosi.Commitment{V: p})
	}
	return r
}

// finalizeBlock fills decision and roots like a correct coordinator.
func (e *env) finalizeBlock(t *testing.T, r *round) {
	t.Helper()
	decision := ledger.DecisionCommit
	roots := map[identity.NodeID][]byte{}
	for s, v := range r.votes {
		if v.Involved {
			if v.Vote != ledger.DecisionCommit {
				decision = ledger.DecisionAbort
				continue
			}
			roots[e.idents[s].ID] = v.Root
		}
	}
	r.block.Decision = decision
	r.block.Roots = roots

	var err error
	r.aggV, err = cosi.AggregateCommitments(r.commitments)
	if err != nil {
		t.Fatal(err)
	}
	var pubs []schnorr.PublicKey
	for _, ident := range e.idents {
		pubs = append(pubs, ident.Schnorr.Public)
	}
	r.aggPub, err = cosi.AggregatePublicKeys(pubs)
	if err != nil {
		t.Fatal(err)
	}
	r.challenge = cosi.Challenge(r.aggV, r.aggPub, r.block.SigningBytes())
}

// challengeReq builds the phase-3 message for the round.
func (r *round) challengeReq() *wire.ChallengeReq {
	return &wire.ChallengeReq{
		Challenge:     r.challenge.Bytes(),
		AggCommitment: r.aggV.Marshal(),
		Block:         r.block,
	}
}

func TestGetVoteCommitsValidTxn(t *testing.T) {
	e := newEnv(t, 3)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})

	for s, v := range r.votes {
		if v.Vote != ledger.DecisionCommit {
			t.Errorf("server %d voted %v", s, v.Vote)
		}
		wantInvolved := s == 1
		if v.Involved != wantInvolved {
			t.Errorf("server %d involved=%v, want %v", s, v.Involved, wantInvolved)
		}
		if wantInvolved && len(v.Root) == 0 {
			t.Errorf("involved server %d sent no root", s)
		}
		if !wantInvolved && len(v.Root) != 0 {
			t.Errorf("uninvolved server %d sent a root", s)
		}
	}
}

func TestGetVoteAbortsOnStaleRead(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	// The item moves on after the client's read: another write bumps wts.
	if err := e.servers[1].Shard().Apply([]store.Access{{
		Writes: []txn.WriteEntry{{ID: testItem(1, 0), NewVal: []byte("interloper")}},
		TS:     txn.Timestamp{Time: 3, ClientID: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	if r.votes[1].Vote != ledger.DecisionAbort {
		t.Fatal("owner must vote abort for a stale read")
	}
	if r.votes[0].Vote != ledger.DecisionCommit {
		t.Fatal("uninvolved server should not veto")
	}
}

func TestGetVoteRejectsTamperedEnvelope(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 0, 0)
	env := e.signTxn(t, tr)
	// The coordinator swaps the block's write value after the client signed.
	b := e.partialBlock(tr)
	b.Txns[0].Writes[0].NewVal = []byte("forged")
	if _, err := e.servers[0].GetVote(context.Background(), e.idents[0].ID,
		&wire.GetVoteReq{Block: b, ClientReqs: env2(env)}); err == nil {
		t.Fatal("mismatched block/client request accepted")
	}
	// And an unsigned/garbage envelope fails outright.
	bad := env
	bad.Sig = []byte("nope")
	b2 := e.partialBlock(tr)
	if _, err := e.servers[0].GetVote(context.Background(), e.idents[0].ID,
		&wire.GetVoteReq{Block: b2, ClientReqs: env2(bad)}); err == nil {
		t.Fatal("bad signature accepted")
	}
}

func env2(e identity.Envelope) []identity.Envelope { return []identity.Envelope{e} }

func TestGetVoteRejectsWrongHeight(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 0, 0)
	b := e.partialBlock(tr)
	b.Height = 7
	_, err := e.servers[0].GetVote(context.Background(), e.idents[0].ID,
		&wire.GetVoteReq{Block: b, ClientReqs: env2(e.signTxn(t, tr))})
	if !errors.Is(err, ErrOutOfSequence) {
		t.Fatalf("err = %v, want ErrOutOfSequence", err)
	}
}

func TestGetVoteAbortsStaleTimestampAndIntraBlockConflict(t *testing.T) {
	e := newEnv(t, 2)
	// Commit a first block at ts 10 to advance lastCommitted.
	runFullRound(t, e, e.freshTxn(t, "warm", 10, 0, 0))

	// A txn with ts 7 (≤ 10) must be voted down.
	stale := e.freshTxn(t, "stale", 7, 0, 1)
	b := e.partialBlock(stale)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, stale)})
	if r.votes[0].Vote != ledger.DecisionAbort {
		t.Fatal("stale-timestamp txn not aborted")
	}

	// Two conflicting txns in one block must also be voted down.
	t1 := e.freshTxn(t, "c1", 20, 1, 0)
	t2 := e.freshTxn(t, "c2", 21, 1, 0) // same item as t1
	b2 := e.partialBlock(t1, t2)
	r2 := e.collectVotes(t, b2, []identity.Envelope{e.signTxn(t, t1), e.signTxn(t, t2)})
	if r2.votes[1].Vote != ledger.DecisionAbort {
		t.Fatal("intra-block conflicting batch not aborted by owner")
	}
}

// runFullRound drives one complete, honest TFCommit round to commit tr.
func runFullRound(t *testing.T, e *env, tr *txn.Transaction) *ledger.Block {
	t.Helper()
	ctx := context.Background()
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)

	responses := make([]*big.Int, len(e.servers))
	for s, srv := range e.servers {
		resp, err := srv.Challenge(ctx, e.idents[0].ID, r.challengeReq())
		if err != nil {
			t.Fatalf("server %d challenge: %v", s, err)
		}
		responses[s] = new(big.Int).SetBytes(resp.Response)
	}
	aggR, err := cosi.AggregateResponses(responses)
	if err != nil {
		t.Fatal(err)
	}
	sig := cosi.Finalize(r.challenge, aggR)
	if !cosi.Verify(r.aggPub, r.block.SigningBytes(), sig) {
		t.Fatal("scripted round produced invalid signature")
	}
	r.block.SetCoSig(sig)
	for s, srv := range e.servers {
		if _, err := srv.Decide(ctx, e.idents[0].ID, &wire.DecisionReq{Block: r.block}); err != nil {
			t.Fatalf("server %d decide: %v", s, err)
		}
	}
	return r.block
}

func TestFullRoundAppliesAndLogs(t *testing.T) {
	e := newEnv(t, 3)
	tr := e.freshTxn(t, "t1", 5, 2, 1)
	block := runFullRound(t, e, tr)

	for s, srv := range e.servers {
		if srv.Log().Len() != 1 {
			t.Errorf("server %d log length %d", s, srv.Log().Len())
		}
		if !bytes.Equal(srv.Log().TipHash(), block.Hash()) {
			t.Errorf("server %d logged different block", s)
		}
	}
	item, err := e.servers[2].Shard().Get(testItem(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Value, []byte("new-t1")) {
		t.Errorf("value = %q", item.Value)
	}
	if item.WTS != tr.TS || item.RTS != tr.TS {
		t.Errorf("timestamps not advanced: %+v", item)
	}
	if e.servers[0].LastCommitted() != tr.TS {
		t.Errorf("lastCommitted = %v", e.servers[0].LastCommitted())
	}
}

func TestChallengeRejectsMutatedBlock(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)

	mutated := r.block.Clone()
	mutated.Txns[0].Writes[0].NewVal = []byte("evil")
	req := &wire.ChallengeReq{
		Challenge:     r.challenge.Bytes(),
		AggCommitment: r.aggV.Marshal(),
		Block:         mutated,
	}
	_, err := e.servers[1].Challenge(context.Background(), e.idents[0].ID, req)
	if !errors.Is(err, ErrBlockMutated) {
		t.Fatalf("err = %v, want ErrBlockMutated", err)
	}
}

func TestChallengeRejectsRootSubstitution(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)

	// Scenario 2: the coordinator replaces the involved cohort's root.
	r.block.Roots[e.idents[1].ID] = bytes.Repeat([]byte{0xab}, 32)
	r.challenge = cosi.Challenge(r.aggV, r.aggPub, r.block.SigningBytes())
	_, err := e.servers[1].Challenge(context.Background(), e.idents[0].ID, r.challengeReq())
	if !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("err = %v, want ErrRootMismatch", err)
	}
}

func TestChallengeRejectsMissingRoots(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)

	// Commit decision but the involved root dropped.
	delete(r.block.Roots, e.idents[1].ID)
	r.challenge = cosi.Challenge(r.aggV, r.aggPub, r.block.SigningBytes())
	_, err := e.servers[0].Challenge(context.Background(), e.idents[0].ID, r.challengeReq())
	if !errors.Is(err, ErrMissingRoots) {
		t.Fatalf("err = %v, want ErrMissingRoots", err)
	}
}

func TestChallengeRejectsAbortWithAllRoots(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)

	// "if the decision is abort, bi should have some missing roots".
	r.block.Decision = ledger.DecisionAbort
	r.challenge = cosi.Challenge(r.aggV, r.aggPub, r.block.SigningBytes())
	_, err := e.servers[1].Challenge(context.Background(), e.idents[0].ID, r.challengeReq())
	if !errors.Is(err, ErrAbortWithRoots) {
		t.Fatalf("err = %v, want ErrAbortWithRoots", err)
	}
}

func TestChallengeRejectsWrongChallenge(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)

	// Lemma 5 case 1: the challenge does not match hash(X_sch ‖ b).
	bad := new(big.Int).Add(r.challenge, big.NewInt(1))
	req := &wire.ChallengeReq{
		Challenge:     bad.Bytes(),
		AggCommitment: r.aggV.Marshal(),
		Block:         r.block,
	}
	_, err := e.servers[0].Challenge(context.Background(), e.idents[0].ID, req)
	if !errors.Is(err, ErrBadChallenge) {
		t.Fatalf("err = %v, want ErrBadChallenge", err)
	}
}

func TestChallengeRejectsOverriddenAbortVote(t *testing.T) {
	e := newEnv(t, 2)
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	// Make server 1's validation fail (stale read) so it votes abort.
	if err := e.servers[1].Shard().Apply([]store.Access{{
		Writes: []txn.WriteEntry{{ID: testItem(1, 0), NewVal: []byte("x")}},
		TS:     txn.Timestamp{Time: 2, ClientID: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	if r.votes[1].Vote != ledger.DecisionAbort {
		t.Fatal("setup: expected abort vote")
	}
	// A malicious coordinator forces commit anyway, fabricating the root.
	r.block.Decision = ledger.DecisionCommit
	r.block.Roots = map[identity.NodeID][]byte{e.idents[1].ID: bytes.Repeat([]byte{1}, 32)}
	var pubs []schnorr.PublicKey
	for _, ident := range e.idents {
		pubs = append(pubs, ident.Schnorr.Public)
	}
	aggPub, _ := cosi.AggregatePublicKeys(pubs)
	aggV, _ := cosi.AggregateCommitments(r.commitments)
	r.aggPub, r.aggV = aggPub, aggV
	r.challenge = cosi.Challenge(aggV, aggPub, r.block.SigningBytes())
	_, err := e.servers[1].Challenge(context.Background(), e.idents[0].ID, r.challengeReq())
	if !errors.Is(err, ErrVoteOverridden) && !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("err = %v, want ErrVoteOverridden or ErrRootMismatch", err)
	}
}

func TestDecideRejectsInvalidCoSig(t *testing.T) {
	e := newEnv(t, 2)
	ctx := context.Background()
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	b := e.partialBlock(tr)
	r := e.collectVotes(t, b, []identity.Envelope{e.signTxn(t, tr)})
	e.finalizeBlock(t, r)
	for s, srv := range e.servers {
		if _, err := srv.Challenge(ctx, e.idents[0].ID, r.challengeReq()); err != nil {
			t.Fatalf("server %d challenge: %v", s, err)
		}
	}
	// Attach a garbage signature.
	r.block.SetCoSig(cosi.Signature{C: big.NewInt(1), S: big.NewInt(2)})
	_, err := e.servers[0].Decide(ctx, e.idents[0].ID, &wire.DecisionReq{Block: r.block})
	if !errors.Is(err, ErrBadCoSig) {
		t.Fatalf("err = %v, want ErrBadCoSig", err)
	}
	if e.servers[0].Log().Len() != 0 {
		t.Fatal("unsigned block was logged")
	}
}

func TestExecutionLayerReadWrite(t *testing.T) {
	e := newEnv(t, 1)
	srv := e.servers[0]

	if _, err := srv.handleBegin(&wire.BeginTxnReq{TxnID: "t1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.handleBegin(&wire.BeginTxnReq{}); err == nil {
		t.Fatal("empty txn id accepted")
	}
	rr, err := srv.handleRead(&wire.ReadReq{TxnID: "t1", ID: testItem(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Value, []byte("0")) {
		t.Fatalf("read = %q", rr.Value)
	}
	wr, err := srv.handleWrite(&wire.WriteReq{TxnID: "t1", ID: testItem(0, 1), Value: []byte("blind")})
	if err != nil {
		t.Fatal(err)
	}
	// Blind-write ack carries the old value (paper §4.2.1).
	if !bytes.Equal(wr.OldVal, []byte("0")) {
		t.Fatalf("ack old value = %q", wr.OldVal)
	}
	if _, err := srv.handleRead(&wire.ReadReq{TxnID: "t1", ID: "ghost"}); err == nil {
		t.Fatal("read of ghost item accepted")
	}
}

func TestTwoPCRound(t *testing.T) {
	e := newEnv(t, 2)
	ctx := context.Background()
	tr := e.freshTxn(t, "t1", 5, 1, 0)
	env := e.signTxn(t, tr)
	b := e.partialBlock(tr)
	b.Signers = nil // 2PC blocks are unsigned

	for s, srv := range e.servers {
		v, err := srv.Prepare(ctx, e.idents[0].ID, &wire.PrepareReq{Block: b, ClientReqs: env2(env)})
		if err != nil {
			t.Fatalf("server %d prepare: %v", s, err)
		}
		if v.Vote != ledger.DecisionCommit {
			t.Fatalf("server %d voted %v", s, v.Vote)
		}
	}
	b.Decision = ledger.DecisionCommit
	for s, srv := range e.servers {
		if _, err := srv.Decide2PC(ctx, e.idents[0].ID, &wire.TwoPCDecisionReq{Block: b}); err != nil {
			t.Fatalf("server %d decide: %v", s, err)
		}
		if srv.Log().Len() != 1 {
			t.Fatalf("server %d log length %d", s, srv.Log().Len())
		}
	}
	item, err := e.servers[1].Shard().Get(testItem(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Value, []byte("new-t1")) {
		t.Fatalf("value = %q", item.Value)
	}
}

func TestServerConfigValidation(t *testing.T) {
	ident, _ := identity.New("x", identity.RoleClient, nil)
	if _, err := New(Config{Identity: ident}); err == nil {
		t.Error("client identity accepted for a server")
	}
	srvIdent, _ := identity.New("s", identity.RoleServer, nil)
	if _, err := New(Config{Identity: srvIdent}); err == nil {
		t.Error("missing registry/shard/directory accepted")
	}
}

func TestFaultsIsByzantine(t *testing.T) {
	if (Faults{}).IsByzantine() {
		t.Error("zero faults reported byzantine")
	}
	if !(Faults{StaleReads: true}).IsByzantine() {
		t.Error("stale reads not byzantine")
	}
	if !(Faults{DropTailBlocks: 1}).IsByzantine() {
		t.Error("drop tail not byzantine")
	}
}
