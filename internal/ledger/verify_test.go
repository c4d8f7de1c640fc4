package ledger

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/cosi"
	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/schnorr"
)

// testServers is a server set with real keys, so tests can produce genuine
// collective signatures — by the full set or by any other signer list.
type testServers struct {
	reg    *identity.Registry
	ids    []identity.NodeID
	idents []*identity.Identity
}

func newTestServers(t *testing.T, n int) *testServers {
	t.Helper()
	s := &testServers{reg: identity.NewRegistry()}
	for i := 0; i < n; i++ {
		ident, err := identity.New(identity.NodeID(rune('a'+i)), identity.RoleServer, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.reg.Register(ident.Public())
		s.ids = append(s.ids, ident.ID)
		s.idents = append(s.idents, ident)
	}
	return s
}

// signBlock co-signs b by a fresh set of n servers.
func signBlock(t *testing.T, b *Block, n int) *testServers {
	t.Helper()
	s := newTestServers(t, n)
	s.sign(t, b)
	return s
}

// sign sets b's signer list to the given identities (every server when
// none are named) and attaches their genuine collective signature.
func (s *testServers) sign(t *testing.T, b *Block, by ...*identity.Identity) {
	t.Helper()
	if len(by) == 0 {
		by = s.idents
	}
	b.Signers = nil
	commitments := make([]cosi.Commitment, len(by))
	secrets := make([]cosi.Secret, len(by))
	pubs := make([]schnorr.PublicKey, len(by))
	for i, ident := range by {
		b.Signers = append(b.Signers, ident.ID)
		var err error
		if commitments[i], secrets[i], err = cosi.Commit(nil); err != nil {
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
	responses := make([]*big.Int, len(by))
	for i, ident := range by {
		if responses[i], err = cosi.Respond(ident.Schnorr, &secrets[i], ch); err != nil {
			t.Fatal(err)
		}
	}
	aggR, err := cosi.AggregateResponses(responses)
	if err != nil {
		t.Fatal(err)
	}
	b.SetCoSig(cosi.Finalize(ch, aggR))
}

func (s *testServers) verifier() *ChainVerifier {
	return NewChainVerifier(s.ids, crypto.NewSerial(s.reg))
}

// TestChainVerifierEntry runs every acceptance rule on a block and on its
// header: the two must be accepted and rejected identically.
func TestChainVerifierEntry(t *testing.T) {
	srv := newTestServers(t, 3)
	a, b, c := srv.idents[0], srv.idents[1], srv.idents[2]
	ghost, err := identity.New("ghost", identity.RoleServer, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.reg.Register(ghost.Public())

	genesis := sampleBlock(0, nil)
	srv.sign(t, genesis)
	prev := genesis.Hash()
	signed := func(by ...*identity.Identity) *Block {
		blk := sampleBlock(1, prev)
		srv.sign(t, blk, by...)
		return blk
	}

	cases := []struct {
		name   string
		entry  *Block
		height uint64
		prev   []byte
		want   error
	}{
		{name: "valid", entry: signed(), height: 1, prev: prev},
		{name: "nil entry", height: 1, prev: prev, want: ErrChainHeight},
		{name: "wrong height", entry: signed(), height: 2, prev: prev, want: ErrChainHeight},
		{name: "genesis with prev-hash", entry: func() *Block {
			blk := sampleBlock(0, []byte("somewhere"))
			srv.sign(t, blk)
			return blk
		}(), height: 0, prev: []byte("somewhere"), want: ErrChainPrevHash},
		{name: "broken prev-hash", entry: signed(), height: 1, prev: []byte("other"), want: ErrChainPrevHash},
		{name: "subset signers", entry: signed(a, b), height: 1, prev: prev, want: ErrChainSigners},
		{name: "duplicate signer", entry: signed(a, a, b), height: 1, prev: prev, want: ErrChainSigners},
		{name: "unknown signer", entry: signed(a, b, ghost), height: 1, prev: prev, want: ErrChainSigners},
		{name: "zero co-sign", entry: func() *Block {
			blk := signed()
			blk.CoSigC, blk.CoSigS = nil, nil
			return blk
		}(), height: 1, prev: prev, want: ErrChainCoSig},
		{name: "bad co-sign", entry: func() *Block {
			blk := signed(c, b, a)
			blk.CoSigS[0] ^= 1
			return blk
		}(), height: 1, prev: prev, want: ErrChainCoSig},
		{name: "mutated transaction", entry: func() *Block {
			blk := signed()
			blk.Txns[0].Writes[0].NewVal = []byte("evil")
			return blk
		}(), height: 1, prev: prev, want: ErrChainCoSig},
	}
	v := srv.verifier()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h *Header
			if tc.entry != nil {
				h = tc.entry.Header()
			}
			if err := v.Entry(tc.height, tc.prev, tc.entry, nil); !errors.Is(err, tc.want) {
				t.Errorf("block: got %v, want %v", err, tc.want)
			}
			if err := v.Entry(tc.height, tc.prev, h, nil); !errors.Is(err, tc.want) {
				t.Errorf("header: got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestVerifyChain(t *testing.T) {
	srv := newTestServers(t, 3)
	v := srv.verifier()
	chain := func() []*Block {
		b0 := sampleBlock(0, nil)
		srv.sign(t, b0)
		b1 := sampleBlock(1, b0.Hash())
		srv.sign(t, b1)
		b2 := sampleBlock(2, b1.Hash())
		srv.sign(t, b2)
		return []*Block{b0, b1, b2}
	}

	if at, err := v.Chain(chain()); err != nil || at != -1 {
		t.Fatalf("valid chain rejected: at=%d err=%v", at, err)
	}
	if at, err := v.Chain(nil); err != nil || at != -1 {
		t.Fatalf("empty chain rejected: at=%d err=%v", at, err)
	}

	cases := []struct {
		name   string
		mutate func([]*Block) []*Block
		at     int
		want   error
	}{
		{"tampered content", func(bs []*Block) []*Block {
			bs[1].Txns[0].Writes[0].NewVal = []byte("evil")
			return bs
		}, 1, ErrChainCoSig},
		{"reordered", func(bs []*Block) []*Block {
			bs[1], bs[2] = bs[2], bs[1]
			return bs
		}, 1, ErrChainHeight},
		{"missing block", func(bs []*Block) []*Block {
			bs[2] = nil
			return bs
		}, 2, ErrChainHeight},
		{"not from genesis", func(bs []*Block) []*Block { return bs[1:] }, 0, ErrChainHeight},
		{"subset-signed tail", func(bs []*Block) []*Block {
			srv.sign(t, bs[2], srv.idents[:2]...)
			return bs
		}, 2, ErrChainSigners},
	}
	for _, tc := range cases {
		at, err := v.Chain(tc.mutate(chain()))
		if at != tc.at || !errors.Is(err, tc.want) {
			t.Errorf("%s: at=%d err=%v, want at=%d %v", tc.name, at, err, tc.at, tc.want)
		}
	}
}
