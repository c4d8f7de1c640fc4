package ledger

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/cosi"
	"repro/internal/identity"
	"repro/internal/schnorr"
)

// Header is the constant-size, co-signed portion of a block: every Table 1
// field except the transaction bodies, which are committed by TxnsHash.
// Because the signing encoding and the chaining hash are computed over
// exactly these fields (see appendHeaderSigning), a header is
// self-authenticating: its collective signature and its position in the
// hash chain verify without the transaction list — the property
// internal/lightclient builds on. A header also carries the Merkle root of
// every shard involved in its block, which is what authenticates
// proof-carrying reads at that height.
type Header struct {
	// Height is the block's position in the log.
	Height uint64 `json:"height"`
	// TxnsHash commits to the block's transaction list (Block.TxnsHash).
	TxnsHash []byte `json:"txns_hash"`
	// Roots holds the Merkle root of every involved shard, keyed by server.
	Roots map[identity.NodeID][]byte `json:"roots"`
	// Decision is the collective commit/abort decision.
	Decision Decision `json:"decision"`
	// PrevHash chains this header to its predecessor.
	PrevHash []byte `json:"prev_hash"`
	// Signers lists the collective-signature participants.
	Signers []identity.NodeID `json:"signers"`
	// CoSigC and CoSigS are the collective signature over SigningBytes.
	CoSigC []byte `json:"cosig_c"`
	CoSigS []byte `json:"cosig_s"`
}

// Header extracts the block's header. The result shares no memory with the
// block, so callers may cache and serve it freely.
func (b *Block) Header() *Header {
	h := &Header{
		Height:   b.Height,
		TxnsHash: b.TxnsHash(),
		Decision: b.Decision,
		PrevHash: append([]byte(nil), b.PrevHash...),
		Signers:  append([]identity.NodeID(nil), b.Signers...),
		CoSigC:   append([]byte(nil), b.CoSigC...),
		CoSigS:   append([]byte(nil), b.CoSigS...),
	}
	if b.Roots != nil {
		h.Roots = make(map[identity.NodeID][]byte, len(b.Roots))
		for id, r := range b.Roots {
			h.Roots[id] = append([]byte(nil), r...)
		}
	}
	return h
}

// SigningBytes returns the canonical signing encoding — byte-identical to
// the SigningBytes of the block this header was extracted from, so the
// block's collective signature verifies against the header alone.
func (h *Header) SigningBytes() []byte {
	return appendHeaderSigning(nil, h.Height, h.TxnsHash, h.Roots, h.Decision, h.PrevHash, h.Signers)
}

// Hash returns the chaining hash — byte-identical to Block.Hash of the
// originating block, so PrevHash pointers verify over headers.
func (h *Header) Hash() []byte {
	return chainHash(h.SigningBytes(), h.CoSigC, h.CoSigS)
}

// chainHash is the shared block/header chaining hash: SHA-256 over the
// signing bytes followed by the collective signature, so tampering with
// either the contents or the signature of entry i breaks entry i+1's
// PrevHash.
func chainHash(signingBytes, cosigC, cosigS []byte) []byte {
	hh := sha256.New()
	hh.Write([]byte("fides/block/v1"))
	hh.Write(signingBytes)
	hh.Write(cosigC)
	hh.Write(cosigS)
	return hh.Sum(nil)
}

// CoSig returns the header's collective signature.
func (h *Header) CoSig() cosi.Signature {
	if len(h.CoSigC) == 0 || len(h.CoSigS) == 0 {
		return cosi.Signature{}
	}
	return schnorr.SignatureFromBytes(h.CoSigC, h.CoSigS)
}

// Clone returns a deep copy of the header.
func (h *Header) Clone() *Header {
	nh := &Header{
		Height:   h.Height,
		TxnsHash: append([]byte(nil), h.TxnsHash...),
		Decision: h.Decision,
		PrevHash: append([]byte(nil), h.PrevHash...),
		Signers:  append([]identity.NodeID(nil), h.Signers...),
		CoSigC:   append([]byte(nil), h.CoSigC...),
		CoSigS:   append([]byte(nil), h.CoSigS...),
	}
	if h.Roots != nil {
		nh.Roots = make(map[identity.NodeID][]byte, len(h.Roots))
		for id, r := range h.Roots {
			nh.Roots[id] = append([]byte(nil), r...)
		}
	}
	return nh
}

// Matches reports whether the header was extracted from a block with the
// same co-signed contents (signing bytes and signature equal).
func (h *Header) Matches(b *Block) bool {
	return bytes.Equal(h.SigningBytes(), b.SigningBytes()) &&
		bytes.Equal(h.CoSigC, b.CoSigC) && bytes.Equal(h.CoSigS, b.CoSigS)
}

// headerBinaryVersion versions the header wire encoding.
const headerBinaryVersion = 1

// AppendBinary appends the header's wire encoding: a version byte, the
// signing fields, and the collective signature.
func (h *Header) AppendBinary(buf []byte) []byte {
	buf = binenc.AppendByte(buf, headerBinaryVersion)
	buf = appendHeaderSigning(buf, h.Height, h.TxnsHash, h.Roots, h.Decision, h.PrevHash, h.Signers)
	buf = binenc.AppendBytes(buf, h.CoSigC)
	return binenc.AppendBytes(buf, h.CoSigS)
}

// MarshalBinary returns the header's wire encoding.
func (h *Header) MarshalBinary() ([]byte, error) {
	return h.AppendBinary(nil), nil
}

// DecodeHeader reads an embedded header from r. The decoded header aliases
// nothing.
func DecodeHeader(r *binenc.Reader, h *Header) error {
	if v := r.Byte(); v != headerBinaryVersion && r.Err() == nil {
		return fmt.Errorf("ledger: unsupported header version %d", v)
	}
	h.Height = r.Uint64()
	h.TxnsHash = r.Bytes()
	h.Roots = nil
	if n := r.Count(2); n > 0 {
		h.Roots = make(map[identity.NodeID][]byte, n)
		for i := 0; i < n; i++ {
			id := identity.NodeID(r.String())
			h.Roots[id] = r.Bytes()
		}
	}
	h.Decision = Decision(r.Byte())
	h.PrevHash = r.Bytes()
	h.Signers = nil
	if n := r.Count(1); n > 0 {
		h.Signers = make([]identity.NodeID, n)
		for i := range h.Signers {
			h.Signers[i] = identity.NodeID(r.String())
		}
	}
	h.CoSigC = r.Bytes()
	h.CoSigS = r.Bytes()
	return r.Err()
}

// UnmarshalBinary decodes a header from its wire encoding.
func (h *Header) UnmarshalBinary(data []byte) error {
	r := binenc.NewReader(data)
	if err := DecodeHeader(&r, h); err != nil {
		return fmt.Errorf("ledger: decode header: %w", err)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("ledger: decode header: %w", err)
	}
	return nil
}
