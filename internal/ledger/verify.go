package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cosi"
	"repro/internal/identity"
)

// Verification errors. Each wraps enough position information for an
// auditor to report the precise first block at which a log is invalid
// (paper Lemmas 6 and 7).
var (
	ErrChainHeight   = errors.New("ledger: non-contiguous block heights")
	ErrChainPrevHash = errors.New("ledger: broken hash pointer")
	ErrChainCoSig    = errors.New("ledger: invalid collective signature")
	ErrChainSigners  = errors.New("ledger: signer set is not the full server set")
)

// CoSigVerifier abstracts collective-signature verification so the chain
// verifier routes through an injected verification backend
// (internal/crypto's serial or batched Verifier). Implementations return
// an error describing why the signature is unacceptable (unresolvable
// signer, invalid signature); nil means the co-sign verifies.
type CoSigVerifier interface {
	VerifyCoSig(signers []identity.NodeID, record []byte, sig cosi.Signature) error
}

// ChainVerifier is the one acceptance check for a block or header read
// from an untrusted server (paper §3.3, Lemmas 6–7): the entry sits at the
// expected height after the expected prev-hash, its signers are exactly
// the full server set — "even an aborted transaction must be signed by all
// the servers" (§4.3.1), so a subset signature is a forgery however valid
// its aggregate — and its collective signature verifies. The signature
// covers the signing bytes, which commit to the transactions through the
// txns-hash, so a block with a mutated transaction fails it too.
type ChainVerifier struct {
	servers []identity.NodeID
	cosig   CoSigVerifier
}

// NewChainVerifier returns the verifier for a deployment whose full server
// set is servers, checking co-signs through v.
func NewChainVerifier(servers []identity.NodeID, v CoSigVerifier) *ChainVerifier {
	return &ChainVerifier{servers: slices.Clone(servers), cosig: v}
}

// entry is what the chain verifier reads from a *Block or a *Header. A
// block's signing bytes equal its header's, so both verify the same way.
type entry interface {
	link() (height uint64, prevHash []byte, signers []identity.NodeID, sig cosi.Signature, ok bool)
	SigningBytes() []byte
}

func (b *Block) link() (uint64, []byte, []identity.NodeID, cosi.Signature, bool) {
	if b == nil {
		return 0, nil, nil, cosi.Signature{}, false
	}
	return b.Height, b.PrevHash, b.Signers, b.CoSig(), true
}

func (h *Header) link() (uint64, []byte, []identity.NodeID, cosi.Signature, bool) {
	if h == nil {
		return 0, nil, nil, cosi.Signature{}, false
	}
	return h.Height, h.PrevHash, h.Signers, h.CoSig(), true
}

// Entry checks one block or header e against the chain position it must
// occupy: height and the hash of the entry below it (nil for genesis). A
// genesis entry must carry no prev-hash whatever position the caller
// expects, so a caller that can only let an entry vouch for its own
// position — an offline evidence bundle — passes the entry's own height
// and prev-hash. signingBytes are e's canonical signing bytes when the
// caller already holds them, or nil to have Entry compute them.
func (v *ChainVerifier) Entry(height uint64, prevHash []byte, e entry, signingBytes []byte) error {
	got, gotPrev, signers, sig, ok := e.link()
	switch {
	case !ok:
		return fmt.Errorf("%w: entry %d is missing", ErrChainHeight, height)
	case got != height:
		return fmt.Errorf("%w: entry declares height %d, want %d", ErrChainHeight, got, height)
	case got == 0 && len(gotPrev) != 0:
		return fmt.Errorf("%w: genesis entry has a prev-hash", ErrChainPrevHash)
	case !bytes.Equal(gotPrev, prevHash):
		return fmt.Errorf("%w: entry %d does not chain to the entry below it", ErrChainPrevHash, got)
	case len(signers) != len(v.servers):
		return fmt.Errorf("%w: entry %d signed by %d of %d servers", ErrChainSigners, got, len(signers), len(v.servers))
	}
	for i, id := range signers {
		if !slices.Contains(v.servers, id) {
			return fmt.Errorf("%w: entry %d signed by unknown server %s", ErrChainSigners, got, id)
		}
		if slices.Contains(signers[:i], id) {
			return fmt.Errorf("%w: entry %d lists signer %s twice", ErrChainSigners, got, id)
		}
	}
	if sig.IsZero() {
		return fmt.Errorf("%w: entry %d has no co-sign", ErrChainCoSig, got)
	}
	if signingBytes == nil {
		signingBytes = e.SigningBytes()
	}
	if err := v.cosig.VerifyCoSig(signers, signingBytes, sig); err != nil {
		return fmt.Errorf("%w: entry %d: %v", ErrChainCoSig, got, err)
	}
	return nil
}

// Chain checks a log as shipped by one server, from genesis: every block
// passes Entry at its index, chained to its predecessor. It returns the
// height of the first invalid block and a describing error, or (-1, nil)
// if the chain is fully valid.
//
// This is the auditor's first step (paper §3.3, Lemma 6): "the signature is
// tied specifically to one block and if the contents of the block are
// manipulated, the signature verification will fail"; and because each entry
// carries the hash of the previous block, reordering breaks the chain.
func (v *ChainVerifier) Chain(blocks []*Block) (int, error) {
	var prevHash []byte
	for i, b := range blocks {
		var signingBytes []byte
		if b != nil {
			signingBytes = b.SigningBytes()
		}
		if err := v.Entry(uint64(i), prevHash, b, signingBytes); err != nil {
			return i, err
		}
		prevHash = chainHash(signingBytes, b.CoSigC, b.CoSigS)
	}
	return -1, nil
}
