package server

import (
	"fmt"

	"repro/internal/wire"
)

// handleFetchLog serves the server's tamper-proof log to an auditor
// (paper §3.3 step i). Log-layer faults are applied here: a malicious
// server cannot rewrite history that other servers replicate, but it can
// lie about its own copy — which is exactly what Lemmas 6 and 7 detect.
func (s *Server) handleFetchLog(_ *wire.FetchLogReq) (*wire.FetchLogResp, error) {
	blocks := s.log.CloneBlocks()

	s.mu.Lock()
	faults := s.faults
	s.mu.Unlock()

	if t := faults.TamperBlock; t != nil && t.Height < uint64(len(blocks)) {
		tampered := blocks[t.Height]
		for i := range tampered.Txns {
			for j := range tampered.Txns[i].Writes {
				if tampered.Txns[i].Writes[j].ID == t.Item {
					tampered.Txns[i].Writes[j].NewVal = append([]byte(nil), t.NewVal...)
				}
			}
		}
	}
	if faults.ReorderLog && len(blocks) >= 2 {
		last := len(blocks) - 1
		blocks[last], blocks[last-1] = blocks[last-1], blocks[last]
		// Disguise the swap superficially by fixing up the height fields;
		// the hash pointers and co-signs still betray it (Lemma 6).
		blocks[last].Height, blocks[last-1].Height = uint64(last), uint64(last-1)
	}
	if k := faults.DropTailBlocks; k > 0 {
		if k > len(blocks) {
			k = len(blocks)
		}
		blocks = blocks[:len(blocks)-k]
	}
	return &wire.FetchLogResp{Blocks: blocks}, nil
}

// handleFetchProof serves a Verification Object for one item, against the
// current state (single-versioned audit) or at a historical version
// (multi-versioned audit), per paper §4.2.2. The VO is generated from what
// the server actually stores: a corrupted datastore yields a VO that fails
// the auditor's root recomputation (Lemma 2).
func (s *Server) handleFetchProof(req *wire.FetchProofReq) (*wire.FetchProofResp, error) {
	if req.AtVersion {
		leaf, proof, err := s.shard.ProofAt(req.ID, req.TS)
		if err != nil {
			return nil, fmt.Errorf("server %s: proof at %s: %w", s.ident.ID, req.TS, err)
		}
		return &wire.FetchProofResp{LeafContent: leaf, Proof: proof}, nil
	}
	leaf, proof, err := s.shard.Proof(req.ID)
	if err != nil {
		return nil, fmt.Errorf("server %s: proof: %w", s.ident.ID, err)
	}
	return &wire.FetchProofResp{LeafContent: leaf, Proof: proof}, nil
}
