package watch

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/audit"
	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/lightclient"
	"repro/internal/merkle"
	"repro/internal/wire"
)

// bundleVerifier is the state of one offline re-verification (VerifyBundle).
// Anchors and served headers vouch for their own chain position — an
// offline verifier knows no tip — so they pass the chain verifier at their
// own height and prev-hash.
type bundleVerifier struct {
	chain  *ledger.ChainVerifier
	layout lightclient.Layout
	coord  identity.NodeID
}

// ErrBadBundle reports a malformed or unsubstantiated bundle: the evidence
// does not demonstrate the violation its Kind claims.
var ErrBadBundle = errors.New("watch: evidence bundle does not substantiate its finding")

// verify re-runs the protocol check the bundle claims was violated.
func (v *bundleVerifier) verify(b *wire.EvidenceBundle) error {
	if b == nil {
		return fmt.Errorf("%w: nil bundle", ErrBadBundle)
	}
	if b.Kind == "" {
		return fmt.Errorf("%w: no kind", ErrBadBundle)
	}
	if len(b.Accused) == 0 {
		return fmt.Errorf("%w: no accused server", ErrBadBundle)
	}
	switch FindingType(b.Kind) {
	case FindingTamperedChain:
		return v.verifyTamperedChain(b)
	case FindingTamperedHeader:
		return v.verifyTamperedHeader(b)
	case FindingBadProof:
		return v.verifyReadBundle(b, lightclient.ErrBadProof)
	case FindingIncorrectRead:
		if len(b.Blocks) > 0 {
			return v.verifyReplay(b)
		}
		return v.verifyReadBundle(b, lightclient.ErrIncorrectRead)
	case FindingDatastoreCorruption:
		if len(b.Blocks) > 0 {
			return v.verifyReplay(b)
		}
		return v.verifyCorruptVO(b)
	default:
		// Replay-derived kinds (stale-timestamp, serializability-violation,
		// tampered-log, ...) all verify by replaying the co-signed range.
		return v.verifyReplay(b)
	}
}

// verifyReplay re-verifies a replay finding: the co-signed range must
// authenticate, and replaying it must reproduce a finding of the bundle's
// kind for the bundle's item at the bundle's height.
func (v *bundleVerifier) verifyReplay(b *wire.EvidenceBundle) error {
	if len(b.Blocks) == 0 {
		return fmt.Errorf("%w: %s bundle carries no blocks", ErrBadBundle, b.Kind)
	}
	// The range must chain: the first block vouches for its own position,
	// every later one extends its predecessor.
	for i, blk := range b.Blocks {
		if blk == nil {
			return fmt.Errorf("%w: nil block at index %d", ErrBadBundle, i)
		}
		height, prevHash := blk.Height, blk.PrevHash
		if i > 0 {
			height, prevHash = b.Blocks[i-1].Height+1, b.Blocks[i-1].Hash()
		}
		if err := v.chain.Entry(height, prevHash, blk, nil); err != nil {
			return fmt.Errorf("%w: %v", ErrBadBundle, err)
		}
	}
	rp := audit.NewReplayer(v.layout, v.coord)
	var findings []audit.Finding
	for _, blk := range b.Blocks {
		findings = append(findings, rp.Step(blk)...)
	}
	for _, f := range findings {
		if string(f.Type) != b.Kind {
			continue
		}
		if f.Item != b.Item {
			continue
		}
		if b.TxnID != "" && f.TxnID != b.TxnID {
			continue
		}
		if f.Height >= 0 && uint64(f.Height) != b.Height {
			continue
		}
		return nil
	}
	return fmt.Errorf("%w: replaying %d co-signed blocks does not reproduce a %s finding for item %q at height %d",
		ErrBadBundle, len(b.Blocks), b.Kind, b.Item, b.Height)
}

// verifyTamperedChain re-verifies a bad tail block: the served block's
// header must fail the acceptance checks, either on its own (bad co-sign
// or signer set) or against the anchor (broken chain).
func (v *bundleVerifier) verifyTamperedChain(b *wire.EvidenceBundle) error {
	if b.BadHeader == nil {
		return fmt.Errorf("%w: tampered-chain bundle carries no served header", ErrBadBundle)
	}
	if b.Anchor != nil {
		if err := v.chain.Entry(b.Anchor.Height, b.Anchor.PrevHash, b.Anchor, nil); err != nil {
			return fmt.Errorf("%w: anchor: %v", ErrBadBundle, err)
		}
	}
	if v.chain.Entry(b.BadHeader.Height, b.BadHeader.PrevHash, b.BadHeader, nil) != nil {
		return nil // the served block is self-evidently invalid
	}
	if b.Anchor != nil && b.BadHeader.Height == b.Anchor.Height+1 && !bytes.Equal(b.BadHeader.PrevHash, b.Anchor.Hash()) {
		return nil // valid co-sign but chained to a different history
	}
	return fmt.Errorf("%w: served block verifies against the anchor", ErrBadBundle)
}

// verifyTamperedHeader re-verifies a header-probe finding: the anchor must
// authenticate, and the served header must differ from it at the same
// height. A served header that itself carries a valid full-set co-sign is
// equivocation evidence (two co-signed histories at one height) — still a
// violation.
func (v *bundleVerifier) verifyTamperedHeader(b *wire.EvidenceBundle) error {
	if b.Anchor == nil || b.BadHeader == nil {
		return fmt.Errorf("%w: tampered-header bundle needs anchor and served header", ErrBadBundle)
	}
	if err := v.chain.Entry(b.Anchor.Height, b.Anchor.PrevHash, b.Anchor, nil); err != nil {
		return fmt.Errorf("%w: anchor: %v", ErrBadBundle, err)
	}
	if b.BadHeader.Height != b.Anchor.Height {
		return fmt.Errorf("%w: served header is for height %d, anchor for %d", ErrBadBundle, b.BadHeader.Height, b.Anchor.Height)
	}
	if bytes.Equal(b.BadHeader.Hash(), b.Anchor.Hash()) {
		return fmt.Errorf("%w: served header is identical to the co-signed anchor", ErrBadBundle)
	}
	return nil
}

// verifyReadBundle re-verifies a sampled-read finding: the anchor must
// authenticate and carry a root for the accused shard, and the served
// response must fail the proof check with the named error class.
func (v *bundleVerifier) verifyReadBundle(b *wire.EvidenceBundle, wantErr error) error {
	anchor, root, err := v.anchorRoot(b)
	if err != nil {
		return err
	}
	if b.Read == nil {
		return fmt.Errorf("%w: %s bundle carries no read response", ErrBadBundle, b.Kind)
	}
	if b.Read.Height != anchor.Height {
		return fmt.Errorf("%w: read answered at height %d, anchor at %d", ErrBadBundle, b.Read.Height, anchor.Height)
	}
	if b.Item != "" {
		inReq := false
		for _, id := range b.ReadIDs {
			if id == b.Item {
				inReq = true
				break
			}
		}
		if !inReq {
			return fmt.Errorf("%w: named item %q is not part of the sampled read", ErrBadBundle, b.Item)
		}
	}
	verr := lightclient.CheckReadProof(v.layout, b.Accused[0], b.ReadIDs, b.Read, root)
	if verr == nil {
		return fmt.Errorf("%w: served read verifies against the co-signed root", ErrBadBundle)
	}
	if !errors.Is(verr, wantErr) {
		return fmt.Errorf("%w: served read fails with %v, but the bundle claims %s", ErrBadBundle, verr, b.Kind)
	}
	return nil
}

// verifyCorruptVO re-verifies a datastore-corruption finding: the anchor
// must authenticate, and the server's own Verification Object must fold to
// a root that is not the co-signed one — the datastore cannot authenticate
// the committed state (Lemma 2).
func (v *bundleVerifier) verifyCorruptVO(b *wire.EvidenceBundle) error {
	_, root, err := v.anchorRoot(b)
	if err != nil {
		return err
	}
	if b.Proof == nil {
		return fmt.Errorf("%w: datastore-corruption bundle carries no VO", ErrBadBundle)
	}
	folded := merkle.RootFromProof(merkle.LeafHash(b.Proof.LeafContent), b.Proof.Proof)
	if bytes.Equal(folded, root) {
		return fmt.Errorf("%w: the VO folds to the co-signed root", ErrBadBundle)
	}
	return nil
}

// anchorRoot authenticates the bundle's anchor and extracts the co-signed
// root of the accused server's shard.
func (v *bundleVerifier) anchorRoot(b *wire.EvidenceBundle) (*ledger.Header, []byte, error) {
	if b.Anchor == nil {
		return nil, nil, fmt.Errorf("%w: %s bundle carries no anchor header", ErrBadBundle, b.Kind)
	}
	if err := v.chain.Entry(b.Anchor.Height, b.Anchor.PrevHash, b.Anchor, nil); err != nil {
		return nil, nil, fmt.Errorf("%w: anchor: %v", ErrBadBundle, err)
	}
	root, ok := b.Anchor.Roots[b.Accused[0]]
	if !ok {
		return nil, nil, fmt.Errorf("%w: anchor at height %d carries no root for %s", ErrBadBundle, b.Anchor.Height, b.Accused[0])
	}
	return b.Anchor, root, nil
}

// VerifyBundle re-verifies one evidence bundle offline, trusting nothing
// but the servers' registered public keys, the full server set and the
// static shard layout. It is what `fides-client -verify-bundle` runs: a
// third party that receives a bundle needs no connection to the cluster
// and no trust in the watchtower that produced it — the co-signed material
// authenticates itself through the ledger chain verifier, and the
// offending material must demonstrably fail the protocol check the
// bundle's Kind names. It returns nil exactly when the bundle substantiates
// its finding.
//
// What re-verification proves is *that* the protocol was violated. Which
// server *served* the offending material rests on the watchtower's
// transcript (Accused), exactly as log-fetch attribution does in the
// offline audit.
func VerifyBundle(b *wire.EvidenceBundle, reg *identity.Registry, servers []identity.NodeID, layout lightclient.Layout, coord identity.NodeID) error {
	v := &bundleVerifier{
		chain:  ledger.NewChainVerifier(servers, crypto.NewSerial(reg)),
		layout: layout,
		coord:  coord,
	}
	return v.verify(b)
}
