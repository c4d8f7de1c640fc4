package server

import (
	"bytes"
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"

	"repro/internal/cosi"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// enableCatchupAll wires every env server into one catch-up mesh over a
// zero-latency in-process network, so the asking side can actually reach
// the serving side. It returns the network and the server-id set for
// tests that re-attach a replacement server.
func enableCatchupAll(t *testing.T, e *env) (*transport.LocalNetwork, []identity.NodeID) {
	t.Helper()
	net := transport.NewLocalNetwork(0)
	ids := make([]identity.NodeID, len(e.servers))
	for i, ident := range e.idents {
		ids[i] = ident.ID
	}
	for i, srv := range e.servers {
		ep := net.Endpoint(e.idents[i], e.reg, srv)
		if err := srv.EnableCatchup(CatchupConfig{Transport: ep, Servers: ids}); err != nil {
			t.Fatal(err)
		}
	}
	return net, ids
}

// cosignedRoundSkipping runs an honest round through co-sign and delivers
// the decision to every server except the skipped ones — the cohorts a
// lost phase-5 broadcast left behind. It returns the finalized block.
func cosignedRoundSkipping(t *testing.T, e *env, skip map[int]bool, trID string, ts uint64, sIdx, iIdx int) *ledger.Block {
	t.Helper()
	ctx := context.Background()
	tr := e.freshTxn(t, trID, ts, sIdx, iIdx)
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
	r.block.SetCoSig(cosi.Finalize(r.challenge, aggR))
	for s, srv := range e.servers {
		if skip[s] {
			continue
		}
		if _, err := srv.Decide(ctx, e.idents[0].ID, &wire.DecisionReq{Block: r.block}); err != nil {
			t.Fatalf("server %d decide: %v", s, err)
		}
	}
	return r.block
}

// TestApplyFetchedConcurrentAnswers is the race-detector test for the
// ask-a-peer path: several peers answer the same missing height at once,
// exactly one answer must apply fresh, the rest must be recognized as
// duplicates, and the server must end up with the block applied once.
func TestApplyFetchedConcurrentAnswers(t *testing.T) {
	e := newEnv(t, 3)
	enableCatchupAll(t, e)
	block := cosignedRoundSkipping(t, e, map[int]bool{2: true}, "t1", 5, 2, 1)

	lagging := e.servers[2]
	if lagging.Log().Len() != 0 {
		t.Fatalf("lagging server already at %d", lagging.Log().Len())
	}

	const answers = 8
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		fresh int
		errs  []error
	)
	for i := 0; i < answers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each peer answer arrives as its own decoded copy.
			ok, err := lagging.applyFetched(block.Clone())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			if ok {
				fresh++
			}
		}()
	}
	wg.Wait()

	if len(errs) > 0 {
		t.Fatalf("concurrent answers errored: %v", errs)
	}
	if fresh != 1 {
		t.Fatalf("fresh applies = %d, want exactly 1", fresh)
	}
	if lagging.Log().Len() != 1 || !bytes.Equal(lagging.Log().TipHash(), block.Hash()) {
		t.Fatalf("lagging server did not converge on the fetched block")
	}
	item, err := lagging.Shard().Get(testItem(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Value, []byte("new-t1")) {
		t.Fatalf("catch-up did not apply the block's writes: %q", item.Value)
	}
	st := lagging.Stats()
	if st.CatchupBlocks != 1 {
		t.Fatalf("CatchupBlocks = %d, want 1", st.CatchupBlocks)
	}
}

// TestApplyFetchedRejectsForgeries: a block from an untrusted peer is only
// as good as its collective signature — mutations, abort fabrications and
// trimmed signer sets must all be rejected.
func TestApplyFetchedRejectsForgeries(t *testing.T) {
	e := newEnv(t, 3)
	enableCatchupAll(t, e)
	block := cosignedRoundSkipping(t, e, map[int]bool{2: true}, "t1", 5, 2, 1)
	lagging := e.servers[2]

	mutated := block.Clone()
	mutated.Txns[0].Writes[0].NewVal = []byte("evil")
	if _, err := lagging.applyFetched(mutated); !errors.Is(err, ErrBadCoSig) {
		t.Fatalf("mutated block: got %v, want ErrBadCoSig", err)
	}

	abortForged := block.Clone()
	abortForged.Decision = ledger.DecisionAbort
	if _, err := lagging.applyFetched(abortForged); err == nil {
		t.Fatal("abort-decision block accepted by catch-up")
	}

	trimmed := block.Clone()
	trimmed.Signers = trimmed.Signers[:len(trimmed.Signers)-1]
	if _, err := lagging.applyFetched(trimmed); err == nil {
		t.Fatal("block without the full signer set accepted by catch-up")
	}

	if lagging.Log().Len() != 0 {
		t.Fatalf("forgeries advanced the log to %d", lagging.Log().Len())
	}
}

// TestResolvePendingPullsMissingSuffix: a server that restarted behind the
// cluster tip (modeled as a fresh instance under the same identity, the
// state a crash-short recovery leaves) pulls the whole verified suffix
// from its peers and converges — log, datastore and watermark.
func TestResolvePendingPullsMissingSuffix(t *testing.T) {
	e := newEnv(t, 3)
	net, ids := enableCatchupAll(t, e)
	var blocks []*ledger.Block
	for i, id := range []string{"t1", "t2", "t3"} {
		blocks = append(blocks, runFullRound(t, e, e.freshTxn(t, id, uint64(5+i), 2, i)))
	}

	// Replace server 2 with a blank instance sharing its identity — the
	// same signer, none of the state. Its endpoint replaces the old one.
	items := make([]txn.ItemID, 4)
	for i := range items {
		items[i] = testItem(2, i)
	}
	shard := store.NewShard(items, func(txn.ItemID) []byte { return []byte("0") }, store.Config{})
	lagging, err := New(Config{Identity: e.idents[2], Registry: e.reg, Directory: e.dir, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	ep := net.Endpoint(e.idents[2], e.reg, lagging)
	if err := lagging.EnableCatchup(CatchupConfig{Transport: ep, Servers: ids}); err != nil {
		t.Fatal(err)
	}

	applied, err := lagging.ResolvePending(context.Background())
	if err != nil {
		t.Fatalf("ResolvePending: %v", err)
	}
	if applied != len(blocks) {
		t.Fatalf("applied %d blocks, want %d", applied, len(blocks))
	}
	if lagging.Log().Len() != len(blocks) || !bytes.Equal(lagging.Log().TipHash(), blocks[len(blocks)-1].Hash()) {
		t.Fatal("lagging server did not converge on the cluster log")
	}
	if lc := lagging.LastCommitted(); lc != blocks[len(blocks)-1].MaxTS() {
		t.Fatalf("watermark %v did not advance to the suffix tip", lc)
	}
	item, err := lagging.Shard().Get(testItem(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(item.Value, []byte("new-t3")) {
		t.Fatalf("suffix transfer did not rebuild the datastore: %q", item.Value)
	}
}

// TestFetchBlocksServesOneLoggedBlock: a one-block page — the decision
// query of a wedged round — returns the co-signed block at a logged height
// plus the tip, and only the tip for heights the server does not have.
func TestFetchBlocksServesOneLoggedBlock(t *testing.T) {
	e := newEnv(t, 2)
	enableCatchupAll(t, e)
	block := cosignedRoundSkipping(t, e, nil, "t1", 5, 1, 0)

	resp, err := e.servers[0].handleFetchBlocks(&wire.FetchBlocksReq{From: 0, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 1 || !bytes.Equal(resp.Blocks[0].Hash(), block.Hash()) || resp.Tip != 1 {
		t.Fatalf("one-block fetch answer wrong: blocks=%v tip=%d", resp.Blocks, resp.Tip)
	}

	resp, err = e.servers[0].handleFetchBlocks(&wire.FetchBlocksReq{From: 7, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Blocks) != 0 || resp.Tip != 1 {
		t.Fatalf("one-block fetch for unknown height: blocks=%v tip=%d", resp.Blocks, resp.Tip)
	}
}
