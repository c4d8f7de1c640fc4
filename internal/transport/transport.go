// Package transport provides the authenticated request/response messaging
// substrate of Fides. Per paper §3.1, all message exchanges (client↔server
// and server↔server) are digitally signed by the sender and verified by the
// receiver; transport enforces this at the framing layer: every request and
// every response travels inside an identity.Envelope.
//
// Two implementations are provided:
//
//   - LocalNetwork: in-process delivery with a configurable simulated
//     one-way latency. This is the reproduction substitute for the paper's
//     single-datacenter EC2 testbed (§6): protocol round counts and
//     cryptographic work are real, the wire is simulated.
//   - TCP (tcp.go): length-prefixed JSON frames over real sockets, for
//     multi-process deployments.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/identity"
	"repro/internal/obs"
)

// Message is a typed RPC payload. Type selects the handler action; Body is
// the BinaryCodec encoding of the protocol-specific request or response
// struct.
type Message struct {
	Type string          `json:"type"`
	Body json.RawMessage `json:"body"`
	// Trace is the commit-path span context riding in the authenticated
	// frame header (zero = untraced). Transports populate it from the
	// caller's context on send and re-inject it into the handler context
	// on receive; it is frame metadata, not body, and is excluded from
	// the JSON form so codec output is unchanged.
	Trace obs.SpanContext `json:"-"`
}

// NewMessage marshals body into a Message of the given type.
func NewMessage(msgType string, body any) (Message, error) {
	raw, err := BinaryCodec{}.Marshal(body)
	if err != nil {
		return Message{}, fmt.Errorf("transport: marshal %s: %w", msgType, err)
	}
	return Message{Type: msgType, Body: raw}, nil
}

// Decode unmarshals the message body into out. Decoded values never alias
// m.Body, so transports may recycle the underlying buffer afterwards.
func (m Message) Decode(out any) error {
	if err := (BinaryCodec{}).Unmarshal(m.Body, out); err != nil {
		return fmt.Errorf("transport: decode %s: %w", m.Type, err)
	}
	return nil
}

// Handler processes one authenticated request and returns the response.
// from is the verified sender identity.
type Handler interface {
	Handle(ctx context.Context, from identity.NodeID, msg Message) (Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, from identity.NodeID, msg Message) (Message, error)

// Handle calls f.
func (f HandlerFunc) Handle(ctx context.Context, from identity.NodeID, msg Message) (Message, error) {
	return f(ctx, from, msg)
}

// Transport sends authenticated requests to named peers.
type Transport interface {
	// Call sends msg to the peer and waits for its response. Both directions
	// are signed and verified.
	Call(ctx context.Context, to identity.NodeID, msg Message) (Message, error)
	// Self returns the local node id.
	Self() identity.NodeID
	// Close releases transport resources.
	Close() error
}

// Errors returned by transports.
var (
	ErrUnknownPeer = errors.New("transport: unknown peer")
	ErrClosed      = errors.New("transport: closed")
)

// RemoteError is a handler-side failure relayed back to the caller.
type RemoteError struct {
	Node identity.NodeID
	Msg  string
}

// Error formats the remote failure with the node that reported it.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error from %s: %s", e.Node, e.Msg)
}

func openFrame(reg *identity.Registry, self identity.NodeID, env identity.Envelope) (identity.NodeID, uint64, Message, error) {
	payload, err := reg.Open(env)
	if err != nil {
		return "", 0, Message{}, err
	}
	to, seq, msg, err := parseFrame(payload)
	if err != nil {
		return "", 0, Message{}, err
	}
	if to != self {
		return "", 0, Message{}, fmt.Errorf("transport: frame addressed to %q delivered to %q", to, self)
	}
	return env.From, seq, msg, nil
}

// LocalNetwork is an in-process network of endpoints with simulated one-way
// latency. Every Call still performs the full authentication work of the
// configured frame-auth mode — session-MAC by default, per-message Ed25519
// in FrameAuthEnvelope mode, including the real signed handshake on first
// contact — so the cryptographic cost profile matches a real deployment.
//
// Delivery timing and fate are delegated to a Scheduler: by default a
// real-time sleeper for the configured latency, replaceable (SetScheduler)
// with the seeded virtual-time scheduler of internal/sim, which accounts
// latency without sleeping and injects faults deterministically.
type LocalNetwork struct {
	mu    sync.RWMutex
	sched Scheduler
	nodes map[identity.NodeID]*localEndpoint
}

// NewLocalNetwork creates a network whose messages each take oneWayLatency
// to deliver (a request/response Call therefore costs two one-way
// latencies, one simulated RTT). Delivery uses plain timer sleeps; callers
// that need microsecond-accurate latencies (the benchmark harness) opt
// into SetPreciseDelay.
func NewLocalNetwork(oneWayLatency time.Duration) *LocalNetwork {
	return &LocalNetwork{
		sched: &realScheduler{latency: oneWayLatency},
		nodes: make(map[identity.NodeID]*localEndpoint),
	}
}

// SetScheduler replaces the network's delivery scheduler. Install before
// traffic starts; the simulation harness does this right after building a
// cluster.
func (n *LocalNetwork) SetScheduler(s Scheduler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s != nil {
		n.sched = s
	}
}

// SetPreciseDelay toggles microsecond-accurate delivery delays on the
// default real-time scheduler (a coarse timer sleep followed by a
// yield-spin for the final stretch). The spin occupies a processor per
// in-flight delivery, so it is reserved for latency measurements; it has
// no effect after SetScheduler installed a custom scheduler.
func (n *LocalNetwork) SetPreciseDelay(precise bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rs, ok := n.sched.(*realScheduler); ok {
		rs.precise = precise
	}
}

func (n *LocalNetwork) scheduler() Scheduler {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.sched
}

// deliver routes one one-way delivery through the scheduler.
func (n *LocalNetwork) deliver(ctx context.Context, from, to identity.NodeID, msgType string, response bool) (Verdict, error) {
	return n.scheduler().Deliver(ctx, from, to, msgType, response)
}

// Endpoint attaches a node to the network and returns its transport.
// handler may be nil for pure clients that never receive calls.
func (n *LocalNetwork) Endpoint(ident *identity.Identity, reg *identity.Registry, handler Handler) Transport {
	ep := &localEndpoint{
		net: n, ident: ident, reg: reg, handler: handler,
		outSess: make(map[identity.NodeID]*session),
		inSess:  make(map[identity.NodeID]*session),
		replay:  make(map[identity.NodeID]*replayGuard),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes[ident.ID] = ep
	return ep
}

// Remove detaches a node, simulating a crashed or unreachable server.
func (n *LocalNetwork) Remove(id identity.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.nodes, id)
}

func (n *LocalNetwork) lookup(id identity.NodeID) (*localEndpoint, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.nodes[id]
	return ep, ok
}

type localEndpoint struct {
	net     *LocalNetwork
	ident   *identity.Identity
	reg     *identity.Registry
	handler Handler

	mu     sync.Mutex
	seq    uint64
	closed bool

	// hsMu serializes handshakes this endpoint initiates; sessMu guards
	// the session maps (never held across a handshake, so two endpoints
	// hand-shaking with each other concurrently cannot deadlock).
	hsMu    sync.Mutex
	sessMu  sync.RWMutex
	outSess map[identity.NodeID]*session // sessions this endpoint initiated
	inSess  map[identity.NodeID]*session // sessions peers initiated with us

	// replayMu guards per-author anti-replay windows over session-mode
	// frame sequence numbers. Frames an author sends (requests it makes and
	// responses it returns) draw from one strictly-increasing counter, so a
	// single window per author catches duplicates in both directions.
	replayMu sync.Mutex
	replay   map[identity.NodeID]*replayGuard
}

// acceptSeq records a session-frame sequence number from the given author
// and reports whether it is fresh (never accepted before).
func (e *localEndpoint) acceptSeq(author identity.NodeID, seq uint64) bool {
	e.replayMu.Lock()
	defer e.replayMu.Unlock()
	g := e.replay[author]
	if g == nil {
		g = &replayGuard{}
		e.replay[author] = g
	}
	return g.accept(seq)
}

// sessionFor returns the authenticated session from e to peer, running the
// signed handshake on first use.
func (e *localEndpoint) sessionFor(peer *localEndpoint) (*session, error) {
	peerID := peer.ident.ID
	e.sessMu.RLock()
	s := e.outSess[peerID]
	e.sessMu.RUnlock()
	if s != nil {
		return s, nil
	}
	e.hsMu.Lock()
	defer e.hsMu.Unlock()
	e.sessMu.RLock()
	s = e.outSess[peerID]
	e.sessMu.RUnlock()
	if s != nil {
		return s, nil
	}
	h, offer, err := beginHandshake(e.ident, peerID)
	if err != nil {
		return nil, err
	}
	reply, err := peer.acceptHello(offer)
	if err != nil {
		return nil, err
	}
	s, err = h.finish(e.reg, reply)
	if err != nil {
		return nil, err
	}
	e.sessMu.Lock()
	e.outSess[peerID] = s
	e.sessMu.Unlock()
	return s, nil
}

// acceptHello is the responder half of the handshake: run the shared
// responder role and record the inbound session.
func (e *localEndpoint) acceptHello(offer identity.Envelope) (identity.Envelope, error) {
	reply, s, err := respondHandshake(e.ident, e.reg, offer)
	if err != nil {
		return identity.Envelope{}, err
	}
	e.sessMu.Lock()
	e.inSess[offer.From] = s
	e.sessMu.Unlock()
	return reply, nil
}

// sessionWith returns the established inbound session from a peer.
func (e *localEndpoint) sessionWith(from identity.NodeID) (*session, error) {
	e.sessMu.RLock()
	s := e.inSess[from]
	e.sessMu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, from)
	}
	return s, nil
}

var _ Transport = (*localEndpoint)(nil)

func (e *localEndpoint) Self() identity.NodeID { return e.ident.ID }

func (e *localEndpoint) Call(ctx context.Context, to identity.NodeID, msg Message) (Message, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Message{}, ErrClosed
	}
	e.seq++
	seq := e.seq
	e.mu.Unlock()

	peer, ok := e.net.lookup(to)
	if !ok {
		return Message{}, fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}

	// Propagate the caller's span context in the authenticated frame
	// header, so the receiver's spans parent under the span that caused
	// this call.
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		msg.Trace = sc
	}

	// In session mode the pairwise channel is established (signed
	// handshake) before the first frame; per-frame authentication is then
	// an HMAC over the same frame bytes the envelope mode would sign.
	mode := DefaultFrameAuth()
	var sess *session
	if mode == FrameAuthSession {
		var err error
		if sess, err = e.sessionFor(peer); err != nil {
			return Message{}, err
		}
	}

	// Request direction. The frame is encoded into a pooled buffer: the
	// handler decodes (copying) before returning, so the buffer is free for
	// reuse once the response has been sealed.
	reqBuf := getBuf()
	defer putBuf(reqBuf)
	reqBuf.b = appendFrame(reqBuf.b[:0], to, seq, msg)

	var env identity.Envelope
	var reqTag []byte
	if sess != nil {
		reqTag = sess.mac(reqBuf.b)
	} else {
		env = identity.Seal(e.ident, reqBuf.b)
	}
	verdict, err := e.net.deliver(ctx, e.ident.ID, to, msg.Type, false)
	if err != nil {
		return Message{}, err
	}

	var from identity.NodeID
	var req Message
	var peerSess *session
	if sess != nil {
		// The receiver authenticates against its own record of the
		// session, exactly as a remote peer would.
		if peerSess, err = peer.sessionWith(e.ident.ID); err != nil {
			return Message{}, err
		}
		if !peerSess.verify(reqBuf.b, reqTag) {
			return Message{}, fmt.Errorf("%w: from %q", ErrBadMAC, e.ident.ID)
		}
		var reqTo identity.NodeID
		var reqSeq uint64
		if reqTo, reqSeq, req, err = parseFrame(reqBuf.b); err != nil {
			return Message{}, err
		}
		if reqTo != peer.ident.ID {
			return Message{}, fmt.Errorf("transport: frame addressed to %q delivered to %q", reqTo, peer.ident.ID)
		}
		if !peer.acceptSeq(e.ident.ID, reqSeq) {
			return Message{}, fmt.Errorf("%w: request seq %d from %q", ErrReplayedFrame, reqSeq, e.ident.ID)
		}
		if verdict.Duplicate {
			// The network duplicated the frame: the copy passes the MAC
			// (same bytes) but must die at the anti-replay window. A copy
			// that survived would be a transport hole, so fail loudly.
			rejected := !peerSess.verify(reqBuf.b, reqTag) || !peer.acceptSeq(e.ident.ID, reqSeq)
			if ob, ok := e.net.scheduler().(DupObserver); ok {
				ob.DupOutcome(e.ident.ID, to, msg.Type, false, rejected)
			}
			if !rejected {
				return Message{}, fmt.Errorf("transport: duplicated request frame accepted twice (seq %d from %q)", reqSeq, e.ident.ID)
			}
		}
		from = e.ident.ID
	} else {
		// seq is not checked on the in-process path: delivery is direct
		// function application of the just-encoded frame, so there is no
		// wire on which an old frame could be replayed. The TCP transport
		// enforces per-connection monotonicity.
		if from, _, req, err = openFrame(peer.reg, peer.ident.ID, env); err != nil {
			return Message{}, err
		}
	}
	if peer.handler == nil {
		return Message{}, fmt.Errorf("transport: node %q has no handler", to)
	}
	// Handlers see the frame's trace context (not the caller's context
	// values), mirroring what a remote process would observe.
	resp, handleErr := peer.handler.Handle(obs.ContextWithSpanContext(ctx, req.Trace), from, req)
	// Response direction: the peer authenticates its response (or error).
	// The response payload escapes to the caller (out.Body), so it is not
	// pooled.
	if handleErr != nil {
		resp = Message{Type: msgTypeError, Body: mustJSON(handleErr.Error())}
	}
	peer.mu.Lock()
	peer.seq++
	respSeq := peer.seq
	peer.mu.Unlock()

	respPayload := appendFrame(nil, e.ident.ID, respSeq, resp)
	var respEnv identity.Envelope
	var respTag []byte
	if peerSess != nil {
		respTag = peerSess.mac(respPayload)
	} else {
		respEnv = identity.Seal(peer.ident, respPayload)
	}
	respVerdict, err := e.net.deliver(ctx, to, e.ident.ID, resp.Type, true)
	if err != nil {
		return Message{}, err
	}

	var out Message
	if sess != nil {
		if !sess.verify(respPayload, respTag) {
			return Message{}, fmt.Errorf("%w: from %q", ErrBadMAC, to)
		}
		var respTo identity.NodeID
		var parsedSeq uint64
		if respTo, parsedSeq, out, err = parseFrame(respPayload); err != nil {
			return Message{}, err
		}
		if respTo != e.ident.ID {
			return Message{}, fmt.Errorf("transport: frame addressed to %q delivered to %q", respTo, e.ident.ID)
		}
		if !e.acceptSeq(to, parsedSeq) {
			return Message{}, fmt.Errorf("%w: response seq %d from %q", ErrReplayedFrame, parsedSeq, to)
		}
		if respVerdict.Duplicate {
			rejected := !sess.verify(respPayload, respTag) || !e.acceptSeq(to, parsedSeq)
			if ob, ok := e.net.scheduler().(DupObserver); ok {
				ob.DupOutcome(to, e.ident.ID, resp.Type, true, rejected)
			}
			if !rejected {
				return Message{}, fmt.Errorf("transport: duplicated response frame accepted twice (seq %d from %q)", parsedSeq, to)
			}
		}
	} else {
		if _, _, out, err = openFrame(e.reg, e.ident.ID, respEnv); err != nil {
			return Message{}, err
		}
	}
	if out.Type == msgTypeError {
		return Message{}, decodeErrorReply(to, out.Body)
	}
	return out, nil
}

// msgTypeError marks a handler-side failure relayed as a response.
const msgTypeError = "error"

// decodeErrorReply turns an error-typed reply body into a RemoteError. A
// body that fails to decode is reported verbatim rather than silently
// flattened to an empty message.
func decodeErrorReply(node identity.NodeID, body []byte) error {
	var emsg string
	if err := json.Unmarshal(body, &emsg); err != nil {
		return &RemoteError{Node: node, Msg: fmt.Sprintf("undecodable error reply %q (%v)", body, err)}
	}
	return &RemoteError{Node: node, Msg: emsg}
}

func (e *localEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

func mustJSON(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		// Only called with plain strings; cannot fail.
		return json.RawMessage(`""`)
	}
	return raw
}

// CallAll sends msg to every target in parallel and collects the responses.
// It returns a map of responses for the targets that answered and a map of
// errors for those that did not. The call is all-informative rather than
// fail-fast: commit protocols need to know exactly who voted what.
func CallAll(ctx context.Context, t Transport, targets []identity.NodeID, msg Message) (map[identity.NodeID]Message, map[identity.NodeID]error) {
	type result struct {
		id   identity.NodeID
		resp Message
		err  error
	}
	results := make(chan result, len(targets))
	var wg sync.WaitGroup
	for _, id := range targets {
		wg.Add(1)
		go func(id identity.NodeID) {
			defer wg.Done()
			resp, err := t.Call(ctx, id, msg)
			results <- result{id: id, resp: resp, err: err}
		}(id)
	}
	wg.Wait()
	close(results)
	resps := make(map[identity.NodeID]Message, len(targets))
	errs := make(map[identity.NodeID]error)
	for r := range results {
		if r.err != nil {
			errs[r.id] = r.err
			continue
		}
		resps[r.id] = r.resp
	}
	if len(errs) == 0 {
		errs = nil
	}
	return resps, errs
}
