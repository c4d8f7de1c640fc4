package server

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/wire"
)

// Prepare implements the cohort side of the trusted Two-Phase Commit
// baseline (paper §4.3.1, §6.1): the same block validation and OCC
// timestamp check as TFCommit's Vote phase, but with no cryptographic
// commitments, roots, or collective signing — 2PC "is sufficient to ensure
// atomicity if servers are trustworthy".
func (s *Server) Prepare(ctx context.Context, from identity.NodeID, req *wire.PrepareReq) (*wire.PrepareResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	vote, involved, accesses, _, err := s.validateBlockLocked(req.Block, req.ClientReqs, from == s.ident.ID)
	if err != nil {
		return nil, err
	}
	s.inflight = &cohortState{
		height:   req.Block.Height,
		stripped: req.Block.StrippedBytes(),
		vote:     vote,
		involved: involved,
		accesses: accesses,
	}
	return &wire.PrepareResp{Vote: vote}, nil
}

// Decide2PC implements the 2PC decision round: on commit, apply the
// block's writes and append the (unsigned) block to the log.
func (s *Server) Decide2PC(ctx context.Context, from identity.NodeID, req *wire.TwoPCDecisionReq) (*wire.TwoPCDecisionResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	st := s.inflight
	if st == nil || req.Block == nil || req.Block.Height != st.height {
		return nil, ErrNoInflight
	}
	b := req.Block
	if !bytes.Equal(b.StrippedBytes(), st.stripped) {
		return nil, fmt.Errorf("%w (height %d)", ErrBlockMutated, b.Height)
	}
	if b.Decision == ledger.DecisionCommit {
		if err := s.applyCommitLocked(ctx, st, b); err != nil {
			return nil, err
		}
	}
	s.inflight = nil
	return &wire.TwoPCDecisionResp{OK: true}, nil
}
