package audit

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/cosi"
	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/schnorr"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// signedEnv holds real server identities so tests can produce genuinely
// co-signed blocks and then corrupt them.
type signedEnv struct {
	reg    *identity.Registry
	ids    []identity.NodeID
	idents []*identity.Identity
}

func newSignedEnv(t *testing.T, n int) *signedEnv {
	t.Helper()
	e := &signedEnv{reg: identity.NewRegistry()}
	for i := 0; i < n; i++ {
		id := identity.NodeID(rune('a' + i))
		ident, err := identity.New(id, identity.RoleServer, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.reg.Register(ident.Public())
		e.ids = append(e.ids, id)
		e.idents = append(e.idents, ident)
	}
	return e
}

// signBlock attaches a genuine collective signature of every server.
func (e *signedEnv) signBlock(t *testing.T, b *ledger.Block) {
	t.Helper()
	e.signBlockBy(t, b, e.idents)
}

// signBlockBy attaches a genuine collective signature of the given servers.
func (e *signedEnv) signBlockBy(t *testing.T, b *ledger.Block, by []*identity.Identity) {
	t.Helper()
	b.Signers = nil
	n := len(by)
	commitments := make([]cosi.Commitment, n)
	secrets := make([]cosi.Secret, n)
	pubs := make([]schnorr.PublicKey, n)
	for i, ident := range by {
		b.Signers = append(b.Signers, ident.ID)
		var err error
		commitments[i], secrets[i], err = cosi.Commit(nil)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = ident.Schnorr.Public
	}
	aggV, err := cosi.AggregateCommitments(commitments)
	if err != nil {
		t.Fatal(err)
	}
	aggPub, err := cosi.AggregatePublicKeys(pubs)
	if err != nil {
		t.Fatal(err)
	}
	ch := cosi.Challenge(aggV, aggPub, b.SigningBytes())
	responses := make([]*big.Int, n)
	for i, ident := range by {
		responses[i], err = cosi.Respond(ident.Schnorr, &secrets[i], ch)
		if err != nil {
			t.Fatal(err)
		}
	}
	aggR, err := cosi.AggregateResponses(responses)
	if err != nil {
		t.Fatal(err)
	}
	b.SetCoSig(cosi.Finalize(ch, aggR))
}

// signedChain builds a chain of k signed single-write blocks.
func (e *signedEnv) signedChain(t *testing.T, k int) []*ledger.Block {
	t.Helper()
	var blocks []*ledger.Block
	var prev []byte
	for i := 0; i < k; i++ {
		b := &ledger.Block{
			Height:   uint64(i),
			PrevHash: prev,
			Decision: ledger.DecisionCommit,
			Txns: []ledger.TxnRecord{{
				TxnID: string(rune('A' + i)), TS: txn.Timestamp{Time: uint64(i + 1), ClientID: 1},
				Writes: []txn.WriteEntry{{ID: "x", NewVal: []byte{byte('0' + i)}, Blind: true,
					WTS: txn.Timestamp{Time: uint64(i), ClientID: 1}}},
			}},
		}
		if i == 0 {
			b.Txns[0].Writes[0].WTS = txn.Timestamp{}
			b.Txns[0].Writes[0].OldVal = []byte("init")
		}
		e.signBlock(t, b)
		prev = b.Hash()
		blocks = append(blocks, b)
	}
	return blocks
}

func (e *signedEnv) auditor() *Auditor {
	return &Auditor{
		chain:   ledger.NewChainVerifier(e.ids, crypto.NewSerial(e.reg)),
		servers: e.ids,
		dir:     mapDir{"x": e.ids[0]},
		coord:   e.ids[0],
	}
}

func cloneChain(blocks []*ledger.Block) []*ledger.Block {
	out := make([]*ledger.Block, len(blocks))
	for i, b := range blocks {
		out[i] = b.Clone()
	}
	return out
}

func TestSelectAuthoritativePicksLongestValid(t *testing.T) {
	e := newSignedEnv(t, 3)
	chain := e.signedChain(t, 4)
	logs := map[identity.NodeID][]*ledger.Block{
		e.ids[0]: cloneChain(chain),
		e.ids[1]: cloneChain(chain[:2]), // behind
		e.ids[2]: cloneChain(chain),
	}
	report := &Report{LogLengths: map[identity.NodeID]int{}}
	a := e.auditor()
	a.selectAuthoritative(logs, report)
	if len(report.Authoritative) != 4 {
		t.Fatalf("authoritative length = %d", len(report.Authoritative))
	}
	incomplete := report.ByType(FindingIncompleteLog)
	if len(incomplete) != 1 || incomplete[0].Servers[0] != e.ids[1] {
		t.Fatalf("findings = %v", report.Findings)
	}
}

func TestSelectAuthoritativeFlagsTamperedTailButKeepsPrefix(t *testing.T) {
	e := newSignedEnv(t, 2)
	chain := e.signedChain(t, 3)
	tampered := cloneChain(chain)
	tampered[2].Txns[0].Writes[0].NewVal = []byte("evil") // breaks co-sign of block 2

	logs := map[identity.NodeID][]*ledger.Block{
		e.ids[0]: cloneChain(chain),
		e.ids[1]: tampered,
	}
	report := &Report{LogLengths: map[identity.NodeID]int{}}
	a := e.auditor()
	a.selectAuthoritative(logs, report)

	bad := report.ByType(FindingTamperedLog)
	if len(bad) != 1 || bad[0].Height != 2 {
		t.Fatalf("findings = %v", report.Findings)
	}
	if !report.Implicates(e.ids[1]) {
		t.Fatal("tamperer not implicated")
	}
	if len(report.Authoritative) != 3 || report.AuthoritativeFrom != e.ids[0] {
		t.Fatalf("authoritative from %s length %d", report.AuthoritativeFrom, len(report.Authoritative))
	}
}

func TestSelectAuthoritativeDetectsFork(t *testing.T) {
	e := newSignedEnv(t, 2)
	chain := e.signedChain(t, 2)

	// A genuinely signed divergent block at height 1 (a successful
	// equivocation with full collusion): different content, valid co-sign.
	forkBlock := chain[1].Clone()
	forkBlock.Txns[0].Writes[0].NewVal = []byte("fork")
	e.signBlock(t, forkBlock)
	fork := []*ledger.Block{chain[0].Clone(), forkBlock}

	logs := map[identity.NodeID][]*ledger.Block{
		e.ids[0]: cloneChain(chain),
		e.ids[1]: fork,
	}
	report := &Report{LogLengths: map[identity.NodeID]int{}}
	a := e.auditor()
	a.selectAuthoritative(logs, report)

	forked := report.ByType(FindingForkedLog)
	if len(forked) != 1 {
		t.Fatalf("findings = %v", report.Findings)
	}
	if forked[0].Height != 1 {
		t.Errorf("fork at height %d, want 1", forked[0].Height)
	}
	// The designated coordinator is implicated alongside the fork holder.
	if !report.Implicates(e.ids[0]) {
		t.Error("coordinator not implicated in fork")
	}
}

func TestSelectAuthoritativeReordered(t *testing.T) {
	e := newSignedEnv(t, 2)
	chain := e.signedChain(t, 3)
	reordered := cloneChain(chain)
	reordered[1], reordered[2] = reordered[2], reordered[1]
	reordered[1].Height, reordered[2].Height = 1, 2

	logs := map[identity.NodeID][]*ledger.Block{
		e.ids[0]: cloneChain(chain),
		e.ids[1]: reordered,
	}
	report := &Report{LogLengths: map[identity.NodeID]int{}}
	a := e.auditor()
	a.selectAuthoritative(logs, report)
	if len(report.ByType(FindingReorderedLog)) == 0 {
		t.Fatalf("findings = %v", report.Findings)
	}
}

func TestSelectAuthoritativeNoValidLogs(t *testing.T) {
	e := newSignedEnv(t, 2)
	chain := e.signedChain(t, 1)
	broken := cloneChain(chain)
	broken[0].Txns[0].TxnID = "mutated"

	logs := map[identity.NodeID][]*ledger.Block{
		e.ids[0]: broken,
		e.ids[1]: cloneChain(broken),
	}
	report := &Report{LogLengths: map[identity.NodeID]int{}}
	a := e.auditor()
	a.selectAuthoritative(logs, report)
	if len(report.Authoritative) != 0 {
		t.Fatal("authoritative log from fully corrupt set")
	}
	if len(report.ByType(FindingUnauditable)) == 0 {
		t.Fatalf("findings = %v", report.Findings)
	}
}

// End-to-end sanity: the replay accepts the signed chain produced here.
func TestReplayAcceptsSignedChain(t *testing.T) {
	e := newSignedEnv(t, 2)
	chain := e.signedChain(t, 4)
	report := &Report{Authoritative: chain}
	a := e.auditor()
	a.replayLog(report, nil)
	if len(report.Findings) != 0 {
		t.Fatalf("findings = %v", report.Findings)
	}
}

// TestRunFlagsSubsetSignedBlock: a log served with a block whose
// collective signature is valid but comes from a strict subset of the
// servers was never agreed by the full server set (§4.3.1). The audit
// must report it as tampered, not as a valid fork.
func TestRunFlagsSubsetSignedBlock(t *testing.T) {
	e := newSignedEnv(t, 3)
	chain := e.signedChain(t, 3)
	forged := cloneChain(chain)
	e.signBlockBy(t, forged[2], e.idents[:2])

	net := transport.NewLocalNetwork(0)
	served := map[identity.NodeID][]*ledger.Block{e.ids[0]: chain, e.ids[1]: chain, e.ids[2]: forged}
	for _, ident := range e.idents {
		blocks := served[ident.ID]
		net.Endpoint(ident, e.reg, transport.HandlerFunc(func(context.Context, identity.NodeID, transport.Message) (transport.Message, error) {
			return transport.NewMessage(wire.MsgFetchLog, &wire.FetchLogResp{Blocks: blocks})
		}))
	}
	auditorIdent, err := identity.New("auditor", identity.RoleClient, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.reg.Register(auditorIdent.Public())
	a, err := New(Config{
		PeerConfig: peer.PeerConfig{
			Registry:    e.reg,
			Transport:   net.Endpoint(auditorIdent, e.reg, nil),
			Servers:     e.ids,
			Coordinator: e.ids[0],
		},
		Identity:  auditorIdent,
		Directory: mapDir{"x": e.ids[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := a.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tampered := report.ByType(FindingTamperedLog)
	if len(tampered) != 1 || tampered[0].Height != 2 || !report.Implicates(e.ids[2]) {
		t.Fatalf("want one tampered-log finding at height 2 implicating %s; findings = %v", e.ids[2], report.Findings)
	}
	if forks := report.ByType(FindingForkedLog); len(forks) != 0 {
		t.Fatalf("subset-signed block accepted as a valid fork: %v", forks)
	}
}
