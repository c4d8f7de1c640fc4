package transport

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/identity"
)

// testBinaryBody implements the binary codec contract.
type testBinaryBody struct {
	N uint8  `json:"n"`
	S string `json:"s"`
}

func (b *testBinaryBody) AppendBinary(buf []byte) []byte {
	buf = append(buf, b.N)
	return append(buf, b.S...)
}

func (b *testBinaryBody) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return errors.New("short")
	}
	b.N = data[0]
	b.S = string(data[1:])
	return nil
}

func TestBinaryCodecFastPathAndFallback(t *testing.T) {
	c := BinaryCodec{}

	// Types implementing the contract use it.
	in := &testBinaryBody{N: 7, S: "hello"}
	data, err := c.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 7 || string(data[1:]) != "hello" {
		t.Fatalf("binary fast path not used: %q", data)
	}
	var out testBinaryBody
	if err := c.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != *in {
		t.Fatalf("round trip: %+v", out)
	}

	// Plain types fall back to JSON, deterministically on both sides.
	jdata, err := c.Marshal("an error string")
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if err := c.Unmarshal(jdata, &s); err != nil {
		t.Fatal(err)
	}
	if s != "an error string" {
		t.Fatalf("fallback round trip: %q", s)
	}
}

// withFrameAuth runs fn with the frame-auth mode temporarily replaced.
func withFrameAuth(t *testing.T, a FrameAuth, fn func()) {
	t.Helper()
	prev := DefaultFrameAuth()
	SetDefaultFrameAuth(a)
	defer SetDefaultFrameAuth(prev)
	fn()
}

func TestLocalCallEnvelopeFrameAuth(t *testing.T) {
	withFrameAuth(t, FrameAuthEnvelope, func() {
		net, reg, idents := setupLocal(t, 0)
		net.Endpoint(idents["b"], reg, &echoHandler{})
		a := net.Endpoint(idents["a"], reg, nil)
		msg, _ := NewMessage("echo", "signed")
		resp, err := a.Call(context.Background(), "b", msg)
		if err != nil {
			t.Fatal(err)
		}
		var body string
		if err := resp.Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body != "a:signed" {
			t.Fatalf("body = %q", body)
		}

		// Unregistered senders are rejected by per-message verification.
		mallory, err := identity.New("mallory", identity.RoleClient, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := net.Endpoint(mallory, reg, nil)
		if _, err := m.Call(context.Background(), "b", msg); err == nil {
			t.Fatal("unregistered sender accepted in envelope mode")
		}
	})
}

func TestTCPEnvelopeFrameAuth(t *testing.T) {
	withFrameAuth(t, FrameAuthEnvelope, func() {
		reg := identity.NewRegistry()
		identA, _ := identity.New("a", identity.RoleClient, nil)
		identB, _ := identity.New("b", identity.RoleServer, nil)
		reg.Register(identA.Public())
		reg.Register(identB.Public())

		b, err := NewTCPNode(identB, reg, "127.0.0.1:0", &echoHandler{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = b.Close() }()
		a, err := NewTCPNode(identA, reg, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = a.Close() }()
		a.SetAddress("b", b.Addr())

		msg, _ := NewMessage("echo", "tcp-signed")
		resp, err := a.Call(context.Background(), "b", msg)
		if err != nil {
			t.Fatal(err)
		}
		var body string
		if err := resp.Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body != "a:tcp-signed" {
			t.Fatalf("body = %q", body)
		}
	})
}

func TestTCPSessionRejectsUnregistered(t *testing.T) {
	reg := identity.NewRegistry()
	identB, _ := identity.New("b", identity.RoleServer, nil)
	reg.Register(identB.Public())
	// Mallory knows the registry but is not in it.
	mallory, _ := identity.New("mallory", identity.RoleClient, nil)

	b, err := NewTCPNode(identB, reg, "127.0.0.1:0", &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	m, err := NewTCPNode(mallory, reg, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m.Close() }()
	m.SetAddress("b", b.Addr())

	msg, _ := NewMessage("echo", "hi")
	_, err = m.Call(context.Background(), "b", msg)
	if err == nil {
		t.Fatal("unregistered sender completed a session handshake")
	}
	// The responder's signed rejection must reach the initiator verbatim,
	// not collapse into a framing error.
	if !errors.Is(err, identity.ErrUnknownSender) && !containsUnknownSender(err) {
		t.Fatalf("handshake rejection lost its diagnostic: %v", err)
	}
}

func containsUnknownSender(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, "unknown sender")
}

func TestSessionMACRejectsTamperAndWrongKey(t *testing.T) {
	var s1, s2 session
	s1.key[0] = 1
	s2.key[0] = 2
	payload := []byte("frame bytes")
	tag := s1.mac(payload)
	if !s1.verify(payload, tag) {
		t.Fatal("valid MAC rejected")
	}
	tampered := append([]byte(nil), payload...)
	tampered[0] ^= 0xff
	if s1.verify(tampered, tag) {
		t.Fatal("tampered payload accepted")
	}
	if s2.verify(payload, tag) {
		t.Fatal("MAC accepted under a different session key")
	}
	if s1.verify(payload, tag[:16]) {
		t.Fatal("truncated MAC accepted")
	}
}

func TestSessionHandshakeDerivesSharedKey(t *testing.T) {
	reg := identity.NewRegistry()
	a, _ := identity.New("a", identity.RoleClient, nil)
	b, _ := identity.New("b", identity.RoleServer, nil)
	reg.Register(a.Public())
	reg.Register(b.Public())

	// Initiator side.
	ephA, err := newEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	offer := sealHello(a, "b", ephA.PublicKey().Bytes())

	// Responder side.
	gotEphA, err := openHello(reg, "b", offer)
	if err != nil {
		t.Fatal(err)
	}
	ephB, err := newEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := completeHandshake(ephB, gotEphA, "a", "b", gotEphA, ephB.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Initiator completes with the responder's reply.
	reply := sealHello(b, "a", ephB.PublicKey().Bytes())
	gotEphB, err := openHello(reg, "a", reply)
	if err != nil {
		t.Fatal(err)
	}
	sessA, err := completeHandshake(ephA, gotEphB, "a", "b", ephA.PublicKey().Bytes(), gotEphB)
	if err != nil {
		t.Fatal(err)
	}

	if sessA.key != sessB.key {
		t.Fatal("handshake derived different keys on the two sides")
	}

	// Cross-checks: wrong addressee and tampered offer fail.
	if _, err := openHello(reg, "c", offer); err == nil {
		t.Fatal("hello accepted by wrong addressee")
	}
	bad := offer
	bad.Payload = append([]byte(nil), offer.Payload...)
	bad.Payload[len(bad.Payload)-1] ^= 1
	if _, err := openHello(reg, "b", bad); err == nil {
		t.Fatal("tampered hello accepted")
	}
}
