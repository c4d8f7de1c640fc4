package ledger

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/identity"
)

// TestHeaderMatchesBlock pins the property the light client depends on:
// a header extracted from a block reproduces the block's signing bytes and
// chaining hash exactly, so the block's collective signature and the hash
// chain verify from headers alone.
func TestHeaderMatchesBlock(t *testing.T) {
	b := sampleBlock(3, []byte("prev"))
	srv := signBlock(t, b, 4)

	h := b.Header()
	if !bytes.Equal(h.SigningBytes(), b.SigningBytes()) {
		t.Fatal("header signing bytes differ from block signing bytes")
	}
	if !bytes.Equal(h.Hash(), b.Hash()) {
		t.Fatal("header hash differs from block hash")
	}
	if !h.Matches(b) {
		t.Fatal("header does not match its originating block")
	}
	if err := srv.verifier().Entry(3, []byte("prev"), h, nil); err != nil {
		t.Fatalf("header failed to verify: %v", err)
	}
}

func TestHeaderVerifyDetectsTampering(t *testing.T) {
	b := sampleBlock(1, []byte("prev"))
	srv := signBlock(t, b, 3)
	v := srv.verifier()
	// The header vouches for its own position, so every mutation below is
	// caught by the collective signature alone.
	verify := func(h *Header) error { return v.Entry(h.Height, h.PrevHash, h, nil) }

	// Any mutation of a co-signed field must break verification.
	mutations := map[string]func(h *Header){
		"height":   func(h *Header) { h.Height++ },
		"txnshash": func(h *Header) { h.TxnsHash[0] ^= 1 },
		"root":     func(h *Header) { h.Roots[srv.ids[0]] = []byte("forged") },
		"decision": func(h *Header) { h.Decision = DecisionAbort },
		"prevhash": func(h *Header) { h.PrevHash = []byte("other") },
		"cosig":    func(h *Header) { h.CoSigS[0] ^= 1 },
	}
	for name, mutate := range mutations {
		h := b.Header()
		if h.Roots == nil {
			h.Roots = map[identity.NodeID][]byte{}
		}
		mutate(h)
		if err := verify(h); !errors.Is(err, ErrChainCoSig) {
			t.Fatalf("mutation %q: got %v, want ErrChainCoSig", name, err)
		}
	}

	// No signers at all is rejected too.
	h := b.Header()
	h.Signers = nil
	if err := verify(h); !errors.Is(err, ErrChainSigners) {
		t.Fatalf("no signers: got %v, want ErrChainSigners", err)
	}
}

func TestHeaderBinaryRoundTrip(t *testing.T) {
	b := sampleBlock(7, []byte("prev"))
	signBlock(t, b, 3)
	h := b.Header()

	data := h.AppendBinary(nil)
	var out Header
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*h, out) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", h, out)
	}

	// Zero-value header round-trips as well.
	var zero Header
	data = zero.AppendBinary(nil)
	var zout Header
	if err := zout.UnmarshalBinary(data); err != nil {
		t.Fatalf("decode zero: %v", err)
	}

	// Truncations fail cleanly.
	full := h.AppendBinary(nil)
	for i := 0; i < len(full); i += 5 {
		var tr Header
		if err := tr.UnmarshalBinary(full[:i]); err == nil {
			t.Fatalf("accepted truncation at %d/%d", i, len(full))
		}
	}
}

func TestHeaderCloneIsDeep(t *testing.T) {
	b := sampleBlock(2, []byte("prev"))
	signBlock(t, b, 3)
	h := b.Header()
	c := h.Clone()
	c.TxnsHash[0] ^= 1
	c.PrevHash[0] ^= 1
	c.CoSigC[0] ^= 1
	for id := range c.Roots {
		c.Roots[id][0] ^= 1
		break
	}
	if !bytes.Equal(h.SigningBytes(), b.Header().SigningBytes()) {
		t.Fatal("mutating a clone reached the original header")
	}
}
