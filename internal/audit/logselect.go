package audit

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/identity"
	"repro/internal/ledger"
)

// selectAuthoritative verifies every served log and identifies the correct
// and complete log (paper §3.3 step ii, Lemmas 6 and 7): each log passes
// the ledger chain verifier block by block (hash pointers, full signer set,
// collective signature); among the valid logs, the longest is authoritative (at least one server is assumed
// correct and failure-free, so the longest valid log is the complete one);
// valid logs that are strict prefixes are incomplete; valid logs that
// diverge are forks.
func (a *Auditor) selectAuthoritative(logs map[identity.NodeID][]*ledger.Block, report *Report) {
	type valid struct {
		id     identity.NodeID
		blocks []*ledger.Block
	}
	var candidates []valid

	for _, id := range a.servers {
		blocks, ok := logs[id]
		if !ok {
			continue // already reported unauditable
		}
		at, err := a.chain.Chain(blocks)
		if err != nil {
			report.Findings = append(report.Findings, classifyChainError(a, id, at, err))
			// The valid prefix before the break still participates in
			// authoritative selection: a tampered tail must not suppress
			// evidence held in the intact prefix.
			if at > 0 {
				candidates = append(candidates, valid{id: id, blocks: blocks[:at]})
			}
			continue
		}
		candidates = append(candidates, valid{id: id, blocks: blocks})
	}
	if len(candidates) == 0 {
		report.Findings = append(report.Findings, Finding{
			Type:    FindingUnauditable,
			Servers: append([]identity.NodeID(nil), a.servers...),
			Height:  -1,
			Detail:  "no server produced a verifiable log",
		})
		return
	}

	// Longest valid log wins; ties broken by server id for determinism.
	best := candidates[0]
	for _, c := range candidates[1:] {
		if len(c.blocks) > len(best.blocks) || (len(c.blocks) == len(best.blocks) && c.id < best.id) {
			best = c
		}
	}
	report.Authoritative = best.blocks
	report.AuthoritativeFrom = best.id

	// Compare every other valid log against the authoritative one.
	for _, c := range candidates {
		if c.id == best.id {
			continue
		}
		divergeAt := -1
		limit := len(c.blocks)
		if len(best.blocks) < limit {
			limit = len(best.blocks)
		}
		for i := 0; i < limit; i++ {
			if !bytes.Equal(c.blocks[i].Hash(), best.blocks[i].Hash()) {
				divergeAt = i
				break
			}
		}
		switch {
		case divergeAt >= 0:
			// Two collectively signed logs for the same history cannot
			// diverge unless block production itself equivocated (Lemma 5).
			report.Findings = append(report.Findings, Finding{
				Type:    FindingForkedLog,
				Servers: a.implicated([]identity.NodeID{c.id}, true),
				Height:  int64(divergeAt),
				Detail: fmt.Sprintf("log of %s diverges from authoritative log (from %s) at height %d",
					c.id, best.id, divergeAt),
			})
		case len(c.blocks) < len(best.blocks):
			// A strict prefix: omitted tail (Lemma 7).
			report.Findings = append(report.Findings, Finding{
				Type:    FindingIncompleteLog,
				Servers: []identity.NodeID{c.id},
				Height:  int64(len(c.blocks)),
				Detail: fmt.Sprintf("log of %s has %d blocks; authoritative log has %d (missing tail)",
					c.id, len(c.blocks), len(best.blocks)),
			})
		}
	}
}

// classifyChainError turns a chain-verification failure into a finding.
func classifyChainError(a *Auditor, id identity.NodeID, at int, err error) Finding {
	f := Finding{
		Servers: []identity.NodeID{id},
		Height:  int64(at),
		Detail:  fmt.Sprintf("log of %s fails verification at block %d: %v", id, at, err),
	}
	switch {
	case errors.Is(err, ledger.ErrChainPrevHash), errors.Is(err, ledger.ErrChainHeight):
		// Broken hash pointers: blocks were reordered or spliced (Lemma 6).
		f.Type = FindingReorderedLog
	case errors.Is(err, ledger.ErrChainCoSig), errors.Is(err, ledger.ErrChainSigners):
		// An unverifiable collective signature means the block content was
		// manipulated after signing — or was never collectively signed by
		// the full server set, the footprint of an accepted equivocation
		// branch (Lemma 5).
		f.Type = FindingTamperedLog
		f.Servers = a.implicated(f.Servers, true)
	default:
		f.Type = FindingTamperedLog
	}
	return f
}
