package transport

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/identity"
)

// Frame authentication. Paper §3.1 requires every message exchange to be
// authenticated so a receiver can verify the sender; the original
// implementation satisfied this by Ed25519-signing every individual frame,
// which put two signatures and two verifications (~200µs of edwards25519
// field arithmetic) on every RPC. The default is now an authenticated
// session channel in the style production signed-ledger systems use (CCF's
// session model, see PAPERS.md): a pairwise session key is agreed once per
// peer via an Ed25519-signed X25519 handshake, and every subsequent frame
// carries an HMAC-SHA256 tag under that key — the same pairwise
// authenticity and integrity guarantee at around a microsecond per frame.
//
// The asymmetric signatures that the paper's auditability actually rests
// on are untouched: client end_transaction envelopes remain Ed25519-signed
// and are stored in blocks for non-repudiable blame assignment (§3.2), and
// blocks remain collectively signed by CoSi. Only the transport framing —
// which no audit ever re-examines — uses the amortized channel.

// FrameAuth selects how transport frames are authenticated.
type FrameAuth int

// Frame authentication modes.
const (
	// FrameAuthSession authenticates frames with per-peer session HMACs
	// bootstrapped by a signed handshake (the default).
	FrameAuthSession FrameAuth = iota
	// FrameAuthEnvelope signs every frame individually with the sender's
	// Ed25519 key — the paper-literal mode, retained for debugging and for
	// measuring the per-message signature cost it trades away.
	FrameAuthEnvelope
)

// String names the frame-authentication mode.
func (a FrameAuth) String() string {
	switch a {
	case FrameAuthSession:
		return "session"
	case FrameAuthEnvelope:
		return "envelope"
	default:
		return fmt.Sprintf("frameauth(%d)", int(a))
	}
}

var defaultFrameAuth atomic.Int32

// SetDefaultFrameAuth replaces the process-wide frame authentication mode.
// It is part of deployment configuration: set it before any traffic flows,
// identically on every node.
func SetDefaultFrameAuth(a FrameAuth) { defaultFrameAuth.Store(int32(a)) }

// DefaultFrameAuth returns the process-wide frame authentication mode.
func DefaultFrameAuth() FrameAuth { return FrameAuth(defaultFrameAuth.Load()) }

// Handshake and MAC domain-separation contexts.
const (
	helloContext   = "fides/transport/hello/v1"
	sessionContext = "fides/transport/session/v1"
)

// macSize is the per-frame authenticator length (HMAC-SHA256).
const macSize = sha256.Size

// session is one established pairwise authenticated channel.
type session struct {
	key [sha256.Size]byte
}

// mac computes the frame authenticator for payload.
func (s *session) mac(payload []byte) []byte {
	h := hmac.New(sha256.New, s.key[:])
	h.Write(payload)
	return h.Sum(nil)
}

// verify checks a frame authenticator in constant time.
func (s *session) verify(payload, tag []byte) bool {
	if len(tag) != macSize {
		return false
	}
	want := s.mac(payload)
	return subtle.ConstantTimeCompare(want, tag) == 1
}

// ErrNoSession reports a MAC frame from a peer with no established
// session, or a MAC that does not verify.
var ErrNoSession = errors.New("transport: no authenticated session with peer")

// ErrBadMAC reports a frame whose session authenticator does not verify.
var ErrBadMAC = errors.New("transport: invalid frame MAC")

// sealHello builds the signed handshake offer ⟨ctx, from, to, ephemeral
// X25519 public key⟩. Both sides sign their offer with their Ed25519
// identity key, so the handshake inherits the registry's trust: an
// unregistered or impersonating peer cannot complete it.
func sealHello(ident *identity.Identity, to identity.NodeID, ephPub []byte) identity.Envelope {
	payload := make([]byte, 0, len(helloContext)+len(ident.ID)+len(to)+len(ephPub)+8)
	payload = binenc.AppendString(payload, helloContext)
	payload = binenc.AppendString(payload, string(ident.ID))
	payload = binenc.AppendString(payload, string(to))
	payload = binenc.AppendBytes(payload, ephPub)
	return identity.Seal(ident, payload)
}

// openHello verifies a handshake offer against the registry and returns
// the sender's ephemeral public key.
func openHello(reg *identity.Registry, self identity.NodeID, env identity.Envelope) ([]byte, error) {
	payload, err := reg.Open(env)
	if err != nil {
		return nil, err
	}
	r := binenc.NewReader(payload)
	if ctx := r.String(); ctx != helloContext && r.Err() == nil {
		return nil, fmt.Errorf("transport: handshake context %q", ctx)
	}
	from := identity.NodeID(r.String())
	to := identity.NodeID(r.String())
	ephPub := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transport: handshake payload: %w", err)
	}
	if from != env.From {
		return nil, fmt.Errorf("transport: handshake sender %q inside envelope from %q", from, env.From)
	}
	if to != self {
		return nil, fmt.Errorf("transport: handshake addressed to %q delivered to %q", to, self)
	}
	return ephPub, nil
}

// deriveSession computes the pairwise session key from the X25519 shared
// secret and the full handshake transcript (initiator, responder, both
// ephemerals), so neither side can be confused about who agreed with whom.
func deriveSession(shared []byte, initiator, responder identity.NodeID, ephInit, ephResp []byte) *session {
	transcript := make([]byte, 0, len(sessionContext)+len(initiator)+len(responder)+len(ephInit)+len(ephResp)+16)
	transcript = binenc.AppendString(transcript, sessionContext)
	transcript = binenc.AppendString(transcript, string(initiator))
	transcript = binenc.AppendString(transcript, string(responder))
	transcript = binenc.AppendBytes(transcript, ephInit)
	transcript = binenc.AppendBytes(transcript, ephResp)
	h := hmac.New(sha256.New, shared)
	h.Write(transcript)
	s := &session{}
	copy(s.key[:], h.Sum(nil))
	return s
}

// newEphemeral generates one side's ephemeral X25519 key.
func newEphemeral() (*ecdh.PrivateKey, error) {
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("transport: handshake ephemeral: %w", err)
	}
	return key, nil
}

// completeHandshake is the shared second half of both handshake roles:
// combine the local ephemeral with the peer's offered public key and
// derive the session.
func completeHandshake(local *ecdh.PrivateKey, peerEphPub []byte, initiator, responder identity.NodeID, ephInit, ephResp []byte) (*session, error) {
	peerKey, err := ecdh.X25519().NewPublicKey(peerEphPub)
	if err != nil {
		return nil, fmt.Errorf("transport: handshake peer key: %w", err)
	}
	shared, err := local.ECDH(peerKey)
	if err != nil {
		return nil, fmt.Errorf("transport: handshake ecdh: %w", err)
	}
	return deriveSession(shared, initiator, responder, ephInit, ephResp), nil
}

// hsInitiator carries the initiator's ephemeral key across the two halves
// of the handshake. Both transports (in-process and TCP) run exactly this
// logic; only the byte shuttling between the halves differs.
type hsInitiator struct {
	ident *identity.Identity
	peer  identity.NodeID
	local *ecdh.PrivateKey
}

// beginHandshake starts the initiator role: generate the ephemeral and
// produce the signed offer to send to peer.
func beginHandshake(ident *identity.Identity, peer identity.NodeID) (*hsInitiator, identity.Envelope, error) {
	local, err := newEphemeral()
	if err != nil {
		return nil, identity.Envelope{}, err
	}
	offer := sealHello(ident, peer, local.PublicKey().Bytes())
	return &hsInitiator{ident: ident, peer: peer, local: local}, offer, nil
}

// finish completes the initiator role from the responder's signed reply.
func (h *hsInitiator) finish(reg *identity.Registry, reply identity.Envelope) (*session, error) {
	if reply.From != h.peer {
		return nil, fmt.Errorf("transport: handshake answered by %q, want %q", reply.From, h.peer)
	}
	ephResp, err := openHello(reg, h.ident.ID, reply)
	if err != nil {
		return nil, err
	}
	return completeHandshake(h.local, ephResp, h.ident.ID, h.peer, h.local.PublicKey().Bytes(), ephResp)
}

// respondHandshake runs the full responder role: verify the signed offer
// against the registry (unregistered or impersonating initiators fail
// here), derive the session, and produce the signed reply.
func respondHandshake(ident *identity.Identity, reg *identity.Registry, offer identity.Envelope) (identity.Envelope, *session, error) {
	ephInit, err := openHello(reg, ident.ID, offer)
	if err != nil {
		return identity.Envelope{}, nil, err
	}
	local, err := newEphemeral()
	if err != nil {
		return identity.Envelope{}, nil, err
	}
	ephResp := local.PublicKey().Bytes()
	s, err := completeHandshake(local, ephInit, offer.From, ident.ID, ephInit, ephResp)
	if err != nil {
		return identity.Envelope{}, nil, err
	}
	return sealHello(ident, offer.From, ephResp), s, nil
}
