package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/cosi"
	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/schnorr"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wire"
)

// cohortState is the per-block state a cohort carries across the TFCommit
// phases (or across a 2PC prepare/decide pair). Blocks are produced
// sequentially (paper §4.3.1), so at most one is in flight.
type cohortState struct {
	height   uint64
	prevHash []byte // hash of the log tip the block extends, checked at GetVote
	stripped []byte // canonical partial-block bytes fixed at GetVote/Prepare

	vote     ledger.Decision
	involved bool
	root     []byte
	accesses []store.Access

	// CoSi state (TFCommit only).
	secret          cosi.Secret
	challengedBytes []byte // signing bytes of the block approved at Challenge
	responded       bool
}

// Errors surfaced by the commitment layer. A correct cohort answers a
// malformed or inconsistent protocol message with an error instead of a
// response; without the cohort's response the coordinator cannot assemble a
// valid collective signature (paper §4.3.2).
var (
	ErrOutOfSequence  = errors.New("server: block does not extend this server's log")
	ErrNoInflight     = errors.New("server: no block in flight at this height")
	ErrBlockMutated   = errors.New("server: block transactions differ from the announced block")
	ErrRootMismatch   = errors.New("server: block carries a different root than this server sent")
	ErrMissingRoots   = errors.New("server: commit decision with missing involved-server roots")
	ErrAbortWithRoots = errors.New("server: abort decision but all involved roots present")
	ErrBadChallenge   = errors.New("server: challenge does not match hash(aggregate commitment ‖ block)")
	ErrVoteOverridden = errors.New("server: commit decision overrides this server's abort vote")
	ErrBadCoSig       = errors.New("server: block fails chain verification (position, signer set or collective signature)")
)

// GetVote implements TFCommit phase 2 ⟨Vote, SchCommitment⟩ (paper §4.3.1):
// verify the get_vote message and the encapsulated client requests, decide
// commit/abort locally via OCC timestamp validation, compute the in-memory
// Merkle root if involved and committing, and produce the Schnorr
// commitment for CoSi.
func (s *Server) GetVote(ctx context.Context, from identity.NodeID, req *wire.GetVoteReq) (*wire.VoteResp, error) {
	ctx, span := s.o.Start(ctx, "cohort.vote", "server", string(s.ident.ID))
	defer span.End()
	// Pipelined lookahead (per-height sequencing): the announcement for
	// block h+1 is sent as soon as block h's co-sign is finalized, so it
	// can overtake block h's decision on the wire. Park until the log has
	// grown to the announced height — everything below is then applied
	// (Decide runs apply, watermark and cleanup under one critical section
	// ending after the append) — so the OCC validation, Merkle root and
	// chain checks below see exactly the serial-order state. When the wait
	// stalls past its grace and catch-up is enabled, awaitHeight pulls the
	// overdue decisions from peers instead of erroring (catchup.go): a
	// lost decision or a dead coordinator must not wedge this cohort.
	if req.Block != nil {
		if h := req.Block.Height; h > uint64(s.log.Len()) && (s.lookahead > 0 || s.catchupCfg() != nil) {
			if err := s.awaitHeight(ctx, h); err != nil {
				return nil, fmt.Errorf("server %s: %w: %v", s.ident.ID, ErrOutOfSequence, err)
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	vote, involved, accesses, txnAborts, err := s.validateBlockLocked(req.Block, req.ClientReqs, from == s.ident.ID)
	if err != nil {
		return nil, err
	}

	st := &cohortState{
		height:   req.Block.Height,
		prevHash: req.Block.PrevHash,
		stripped: req.Block.StrippedBytes(),
		vote:     vote,
		involved: involved,
		accesses: accesses,
	}

	if involved && vote == ledger.DecisionCommit {
		start := time.Now()
		root, err := s.shard.OverlayRoot(accesses)
		if err != nil {
			return nil, fmt.Errorf("server %s: overlay root: %w", s.ident.ID, err)
		}
		s.mhtHist.ObserveSince(start)
		if s.faults.FakeRootInVote {
			root = randomBytes(32)
		}
		st.root = root
	}

	commitment, secret, err := cosi.Commit(nil)
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", s.ident.ID, err)
	}
	st.secret = secret
	if s.faults.BadCommitment {
		// Publish a commitment unrelated to the retained secret nonce; the
		// final aggregate signature cannot verify, and partial-signature
		// checks pin the blame on this server (Lemma 4).
		k, err := schnorr.RandomScalar(nil)
		if err != nil {
			return nil, err
		}
		commitment = cosi.Commitment{V: schnorr.BaseMult(k)}
	}

	s.inflight = st
	return &wire.VoteResp{
		Vote:       st.vote,
		Involved:   st.involved,
		Root:       st.root,
		Commitment: commitment.V.Marshal(),
		TxnAborts:  txnAborts,
	}, nil
}

// Challenge implements TFCommit phase 4 ⟨null, SchResponse⟩ (paper §4.3.1):
// validate the now-filled block (decision/roots consistency, own root
// unchanged, challenge correctly computed) and answer with the Schnorr
// response.
func (s *Server) Challenge(ctx context.Context, from identity.NodeID, req *wire.ChallengeReq) (*wire.ChallengeResp, error) {
	_, span := s.o.Start(ctx, "cohort.challenge", "server", string(s.ident.ID))
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()

	st := s.inflight
	if st == nil || req.Block == nil || req.Block.Height != st.height {
		return nil, ErrNoInflight
	}
	b := req.Block

	// The canonical signing bytes are computed once per phase and shared
	// between the challenge validation and the cross-phase consistency
	// record.
	signingBytes := b.SigningBytes()
	if !s.faults.SkipChallengeChecks {
		if err := s.checkChallengeLocked(st, req, signingBytes); err != nil {
			return nil, err
		}
	}

	ch := new(big.Int).SetBytes(req.Challenge)
	resp, err := cosi.Respond(s.ident.Schnorr, &st.secret, ch)
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", s.ident.ID, err)
	}
	if s.faults.BadResponse {
		resp.Add(resp, big.NewInt(1))
		resp.Mod(resp, schnorr.N())
	}
	st.challengedBytes = signingBytes
	st.responded = true
	return &wire.ChallengeResp{Response: resp.Bytes()}, nil
}

// checkChallengeLocked performs the phase-4 validations of §4.3.1:
//   - the block's transactions are the ones announced at GetVote;
//   - a commit decision carries the roots of all involved servers and this
//     server's root equals the one it sent (Scenario 2 detection);
//   - an abort decision has at least one involved root missing;
//   - the challenge equals hash(aggregate commitment ‖ block), which is how
//     a correct cohort exposes an equivocating coordinator (Lemma 5 case 1).
func (s *Server) checkChallengeLocked(st *cohortState, req *wire.ChallengeReq, signingBytes []byte) error {
	b := req.Block
	if !bytes.Equal(b.StrippedBytes(), st.stripped) {
		return fmt.Errorf("%w (height %d)", ErrBlockMutated, b.Height)
	}
	involvedSet := s.involvedServers(b)
	switch b.Decision {
	case ledger.DecisionCommit:
		if st.involved && st.vote != ledger.DecisionCommit {
			return fmt.Errorf("%w (height %d)", ErrVoteOverridden, b.Height)
		}
		for id := range involvedSet {
			if _, ok := b.Roots[id]; !ok {
				return fmt.Errorf("%w: no root for %s (height %d)", ErrMissingRoots, id, b.Height)
			}
		}
		if st.involved && !bytes.Equal(b.Roots[s.ident.ID], st.root) {
			return fmt.Errorf("%w (height %d)", ErrRootMismatch, b.Height)
		}
	case ledger.DecisionAbort:
		missing := false
		for id := range involvedSet {
			if _, ok := b.Roots[id]; !ok {
				missing = true
				break
			}
		}
		if !missing && len(involvedSet) > 0 {
			return fmt.Errorf("%w (height %d)", ErrAbortWithRoots, b.Height)
		}
	default:
		return fmt.Errorf("server %s: block %d has no decision", s.ident.ID, b.Height)
	}

	aggV, err := schnorr.UnmarshalPoint(req.AggCommitment)
	if err != nil {
		return fmt.Errorf("server %s: aggregate commitment: %w", s.ident.ID, err)
	}
	pubs, err := s.reg.SchnorrKeys(b.Signers)
	if err != nil {
		return fmt.Errorf("server %s: %w", s.ident.ID, err)
	}
	aggPub, err := cosi.AggregatePublicKeys(pubs)
	if err != nil {
		return fmt.Errorf("server %s: %w", s.ident.ID, err)
	}
	expected := cosi.Challenge(aggV, aggPub, signingBytes)
	if expected.Cmp(new(big.Int).SetBytes(req.Challenge)) != 0 {
		return fmt.Errorf("%w (height %d)", ErrBadChallenge, b.Height)
	}
	return nil
}

// Decide implements TFCommit phase 5 ⟨Decision, null⟩: verify the finalized
// block — the bytes approved at Challenge, at the chain position fixed at
// GetVote, co-signed by the full server set — and, on commit, append the
// block to the tamper-proof log and update the datastore from the buffered
// writes (paper §4.1 steps 6–7).
func (s *Server) Decide(ctx context.Context, from identity.NodeID, req *wire.DecisionReq) (*wire.DecisionResp, error) {
	ctx, span := s.o.Start(ctx, "cohort.decide", "server", string(s.ident.ID))
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()

	b := req.Block
	if b == nil {
		return nil, ErrNoInflight
	}
	// Idempotent re-delivery: the coordinator retries decisions whose ack
	// was lost, and a cohort may have pulled the block from a peer before
	// the retry lands. A block already in the log at its height (same
	// hash) — or an abort already resolved at its height — is simply
	// re-acknowledged.
	if b.Height < uint64(s.log.Len()) {
		if logged, err := s.log.Get(b.Height); err == nil && bytes.Equal(logged.Hash(), b.Hash()) {
			if s.inflight != nil && s.inflight.height <= b.Height {
				s.inflight = nil
			}
			s.dupDecisions.Inc()
			return &wire.DecisionResp{OK: true}, nil
		}
	}
	if b.Decision == ledger.DecisionAbort {
		if hash, ok := s.recentAborts[b.Height]; ok && bytes.Equal(hash, b.Hash()) &&
			(s.inflight == nil || s.inflight.height != b.Height) {
			s.dupDecisions.Inc()
			return &wire.DecisionResp{OK: true}, nil
		}
	}

	st := s.inflight
	if st == nil || b.Height != st.height {
		return nil, ErrNoInflight
	}

	if !s.faults.SkipCoSigCheck {
		signingBytes := b.SigningBytes()
		if st.challengedBytes != nil && !bytes.Equal(signingBytes, st.challengedBytes) {
			return nil, fmt.Errorf("%w (height %d)", ErrBlockMutated, b.Height)
		}
		if err := s.chain.Entry(st.height, st.prevHash, b, signingBytes); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCoSig, err)
		}
	}
	// Crash point "post-cosign": the decision's collective signature
	// checked out, but neither the datastore nor the log has seen the
	// block. A crash here loses the block on this server only.
	if s.crash != nil {
		if err := s.crash("post-cosign", b.Height); err != nil {
			return nil, fmt.Errorf("server %s: %w", s.ident.ID, err)
		}
	}

	if b.Decision == ledger.DecisionCommit {
		if err := s.applyCommitLocked(ctx, st, b); err != nil {
			return nil, err
		}
	} else {
		// Aborted blocks are not logged (paper §4.1 step 6), but the
		// execution-layer buffers of their transactions are released.
		for i := range b.Txns {
			delete(s.buffers, b.Txns[i].TxnID)
		}
		// Remember the abort so a retried delivery (lost ack) still
		// re-acknowledges after the inflight state is gone. Entries below
		// the log tip are stale — the height got committed eventually.
		for h := range s.recentAborts {
			if h < uint64(s.log.Len()) {
				delete(s.recentAborts, h)
			}
		}
		s.recentAborts[b.Height] = b.Hash()
	}
	s.inflight = nil
	return &wire.DecisionResp{OK: true}, nil
}

// applyCommitLocked installs a committed block: datastore update (possibly
// perverted by datastore faults), log append, last-committed watermark, and
// execution-buffer cleanup.
func (s *Server) applyCommitLocked(ctx context.Context, st *cohortState, b *ledger.Block) error {
	_, span := s.o.Start(ctx, "cohort.apply", "server", string(s.ident.ID))
	defer span.End()
	if st.involved {
		accesses := st.accesses
		// Remember the values being overwritten so the StaleReads fault can
		// serve them later (Scenario 1).
		for _, a := range accesses {
			for _, w := range a.Writes {
				if cur, err := s.shard.Get(w.ID); err == nil {
					s.prevValues[w.ID] = cur.Value
				}
			}
		}
		switch {
		case s.faults.SkipApply:
			// Drop the writes entirely: the datastore silently diverges from
			// the authenticated state (Scenario 3).
			stripped := make([]store.Access, len(accesses))
			for i, a := range accesses {
				stripped[i] = store.Access{ReadIDs: a.ReadIDs, TS: a.TS}
			}
			accesses = stripped
		case s.faults.CorruptApplyValue != nil:
			corrupted := make([]store.Access, len(accesses))
			for i, a := range accesses {
				ws := make([]txn.WriteEntry, len(a.Writes))
				for j, w := range a.Writes {
					w.NewVal = append([]byte(nil), s.faults.CorruptApplyValue...)
					ws[j] = w
				}
				corrupted[i] = store.Access{ReadIDs: a.ReadIDs, Writes: ws, TS: a.TS}
			}
			accesses = corrupted
		}
		if err := s.shard.Apply(accesses); err != nil {
			return fmt.Errorf("server %s: apply block %d: %w", s.ident.ID, b.Height, err)
		}
	}
	// Crash point "mid-apply": the in-memory datastore holds the block's
	// writes but the tamper-proof log (and with it the WAL) does not. A
	// crash here is the divergence verified recovery must heal by replay.
	if s.crash != nil {
		if err := s.crash("mid-apply", b.Height); err != nil {
			return fmt.Errorf("server %s: %w", s.ident.ID, err)
		}
	}
	if err := s.log.Append(b.Clone()); err != nil {
		return fmt.Errorf("server %s: append block %d: %w", s.ident.ID, b.Height, err)
	}
	// Keep the verified-read caches (header chain + committed-root index)
	// in lockstep with the log, inside the same critical section, so a
	// proof generated at a height is always generated from the shard state
	// that height's root authenticates.
	s.cacheBlockLocked(b)
	s.heightGauge.Set(int64(s.log.Len()))
	if s.snap != nil {
		// The snapshot is a recovery cache, but a failure to write it means
		// the disk is unhealthy — surface it rather than degrade silently.
		if err := s.snap.MaybeSnapshot(s.shard, b.Height, b.Hash()); err != nil {
			return fmt.Errorf("server %s: snapshot at block %d: %w", s.ident.ID, b.Height, err)
		}
	}
	s.lastCommitted = s.lastCommitted.Max(b.MaxTS())
	for i := range b.Txns {
		delete(s.buffers, b.Txns[i].TxnID)
	}
	return nil
}

// validateBlockLocked verifies a proposed block against this server's log
// position and the encapsulated signed client requests, then runs the OCC
// timestamp validation of §4.3.1 for the items this shard stores. It
// returns the server's local vote, whether the server's shard is involved,
// and the datastore accesses to apply should the block commit.
//
// trustedLocal is true only when the request came from this very server
// acting as coordinator (from == own id, unforgeable through the
// authenticated transport): the coordinator verified every client
// envelope's signature on end_transaction, so its own cohort skips the
// redundant per-transaction Ed25519 verification and only re-parses and
// cross-checks the contents.
func (s *Server) validateBlockLocked(b *ledger.Block, reqs []identity.Envelope, trustedLocal bool) (ledger.Decision, bool, []store.Access, []int, error) {
	if b == nil || len(b.Txns) == 0 {
		return 0, false, nil, nil, errors.New("server: nil or empty block")
	}
	if b.Height != uint64(s.log.Len()) {
		return 0, false, nil, nil, fmt.Errorf("%w: block height %d, log length %d", ErrOutOfSequence, b.Height, s.log.Len())
	}
	if !bytes.Equal(b.PrevHash, s.log.TipHash()) {
		return 0, false, nil, nil, fmt.Errorf("%w: prev-hash mismatch at height %d", ErrOutOfSequence, b.Height)
	}
	if len(reqs) != len(b.Txns) {
		return 0, false, nil, nil, fmt.Errorf("server: %d client requests for %d transactions", len(reqs), len(b.Txns))
	}
	// Envelope signatures go through the verification plane in one batch —
	// the batched backend fans the Ed25519 checks across its worker pool —
	// then the payloads decode serially against the already-verified bytes.
	// The coordinator's own cohort skips the batch: the very same envelopes
	// were verified on end_transaction (from == own id, unforgeable through
	// the authenticated transport).
	if !trustedLocal {
		if i, err := crypto.FirstError(s.verifier.VerifyBatch(reqs)); err != nil {
			return 0, false, nil, nil, fmt.Errorf("server: client request (block txn %d): %w", i, err)
		}
	}
	for i, env := range reqs {
		t, err := DecodeTxnEnvelopeTrusted(env)
		if err != nil {
			return 0, false, nil, nil, err
		}
		if !bytes.Equal(ledger.RecordFromTransaction(t).CanonicalBytes(), b.Txns[i].CanonicalBytes()) {
			return 0, false, nil, nil, fmt.Errorf("server: block txn %d does not match the client-signed request", i)
		}
	}

	vote := ledger.DecisionCommit
	if s.faults.AlwaysAbortVote {
		vote = ledger.DecisionAbort
	}
	// The coordinator must pack only non-conflicting transactions into a
	// block (paper §4.6); a block that violates this would commit
	// unserializable effects, so a correct cohort votes abort.
	blockReads := make(map[txn.ItemID]struct{})
	blockWrites := make(map[txn.ItemID]struct{})
	conflictFree := true
	for i := range b.Txns {
		rec := &b.Txns[i]
		for _, r := range rec.Reads {
			if _, ok := blockWrites[r.ID]; ok {
				conflictFree = false
			}
		}
		for _, w := range rec.Writes {
			if _, ok := blockWrites[w.ID]; ok {
				conflictFree = false
			}
			if _, ok := blockReads[w.ID]; ok {
				conflictFree = false
			}
		}
		for _, r := range rec.Reads {
			blockReads[r.ID] = struct{}{}
		}
		for _, w := range rec.Writes {
			blockWrites[w.ID] = struct{}{}
		}
	}
	if !conflictFree && !s.faults.VoteCommitAlways {
		vote = ledger.DecisionAbort
		s.occAborts[occBlockConflict].Inc()
	}

	involved := false
	var accesses []store.Access
	var txnAborts []int
	for i := range b.Txns {
		rec := &b.Txns[i]
		a := store.Access{TS: rec.TS}
		txnOK := true
		if !s.lastCommitted.Less(rec.TS) && !s.faults.AcceptStaleTS {
			// "The servers ignore any end transaction request with a
			// timestamp lower than the latest committed timestamp" (§4.3.1).
			txnOK = false
			s.occAborts[occStaleTS].Inc()
		}
		for _, r := range rec.Reads {
			if !s.shard.Has(r.ID) {
				continue
			}
			a.ReadIDs = append(a.ReadIDs, r.ID)
			cur, err := s.shard.Get(r.ID)
			if err != nil {
				return 0, false, nil, nil, err
			}
			if cur.WTS != r.WTS {
				// The item was updated after this transaction read it:
				// timestamp-ordered OCC aborts (§4.3.1).
				if txnOK {
					s.occAborts[occReadConflict].Inc()
				}
				txnOK = false
			}
		}
		for _, w := range rec.Writes {
			if !s.shard.Has(w.ID) {
				continue
			}
			a.Writes = append(a.Writes, w)
			cur, err := s.shard.Get(w.ID)
			if err != nil {
				return 0, false, nil, nil, err
			}
			if cur.WTS != w.WTS {
				if txnOK {
					s.occAborts[occWriteConflict].Inc()
				}
				txnOK = false
			}
		}
		if len(a.ReadIDs) > 0 || len(a.Writes) > 0 {
			involved = true
			accesses = append(accesses, a)
		}
		if !txnOK && !s.faults.VoteCommitAlways {
			vote = ledger.DecisionAbort
			txnAborts = append(txnAborts, i)
		}
	}
	return vote, involved, accesses, txnAborts, nil
}

// involvedServers returns the set of servers owning any item accessed by
// the block's transactions.
func (s *Server) involvedServers(b *ledger.Block) map[identity.NodeID]struct{} {
	set := make(map[identity.NodeID]struct{})
	for i := range b.Txns {
		rec := &b.Txns[i]
		for _, r := range rec.Reads {
			if owner, ok := s.dir.Owner(r.ID); ok {
				set[owner] = struct{}{}
			}
		}
		for _, w := range rec.Writes {
			if owner, ok := s.dir.Owner(w.ID); ok {
				set[owner] = struct{}{}
			}
		}
	}
	return set
}

func randomBytes(n int) []byte {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a zero slice only
		// weakens a *fault injection*, so degrade instead of panicking.
		return b
	}
	return b
}
