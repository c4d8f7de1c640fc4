// Package client implements the Fides client library: the transaction
// life-cycle of paper §4.1 / Figure 5. Clients interact with the relevant
// database partition servers directly — Fides intentionally has no
// front-end transaction managers (§4.1) — then hand the read/write sets to
// the designated coordinator for termination, and finally verify the
// collective signature on the resulting block before accepting the
// decision.
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/lightclient"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// Directory resolves which server stores a data item (the paper's "lookup
// and directory service for the database partitions", §4.1).
type Directory interface {
	Owner(id txn.ItemID) (identity.NodeID, bool)
}

// Config assembles a Client.
type Config struct {
	Identity    *identity.Identity
	Registry    *identity.Registry
	Transport   transport.Transport
	Directory   Directory
	Coordinator identity.NodeID
	// ClientID seeds the Lamport clock; must be unique per client.
	ClientID uint32
	// TrustedMode skips collective-signature verification on decisions.
	// It exists for the trusted 2PC baseline (paper §6.1), whose blocks are
	// not collectively signed; Fides clients leave it false.
	TrustedMode bool
	// TSSource optionally supplies commit timestamps; when nil the client
	// owns a private Lamport clock. Several clients may share one source
	// (paper §4.1: clients need only use the same timestamp mechanism).
	TSSource txn.TSSource
	// Verifier enables Verified() reads: they carry Merkle proofs
	// that are checked against the light client's synced header chain
	// before the value is accepted. Many clients may (and should) share
	// one Verifier — the header cache is shared state. Nil leaves only
	// the plain audit-time-checked Read available.
	Verifier *lightclient.Client
	// Obs supplies metrics and tracing. A configured tracer makes every
	// Commit mint a root span whose context rides the authenticated frames
	// to the coordinator and cohorts, so the whole commit path of one
	// transaction reconstructs as a single trace. Nil runs dark.
	Obs *obs.Obs
	// Crypto is the client's verification plane for decision-block
	// collective signatures (VerifyBlock). Nil defaults to the serial
	// backend over Registry. Clients of one deployment should share one
	// batched instance — they all verify the same co-signed blocks, so one
	// verdict cache serves them all (core.Cluster.ClientVerifier does
	// this).
	Crypto crypto.Verifier
}

// Client executes transactions against a Fides deployment. A Client may
// run many sequential sessions; concurrent sessions should use separate
// Clients (each owns a timestamp clock).
type Client struct {
	ident    *identity.Identity
	reg      *identity.Registry
	tr       transport.Transport
	dir      Directory
	coord    identity.NodeID
	trusted  bool
	verifier *lightclient.Client
	crypto   crypto.Verifier
	o        *obs.Obs

	commitHist *obs.Histogram

	mu     sync.Mutex
	clock  txn.TSSource
	txnSeq uint64
}

// New creates a Client.
func New(cfg Config) (*Client, error) {
	if cfg.Identity == nil || cfg.Registry == nil || cfg.Transport == nil || cfg.Directory == nil {
		return nil, errors.New("client: config requires identity, registry, transport and directory")
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("client: config requires a coordinator")
	}
	clock := cfg.TSSource
	if clock == nil {
		clock = txn.NewClock(cfg.ClientID)
	}
	cv := cfg.Crypto
	if cv == nil {
		cv = crypto.NewSerial(cfg.Registry)
	}
	return &Client{
		ident:      cfg.Identity,
		reg:        cfg.Registry,
		tr:         cfg.Transport,
		dir:        cfg.Directory,
		coord:      cfg.Coordinator,
		trusted:    cfg.TrustedMode,
		verifier:   cfg.Verifier,
		crypto:     cv,
		o:          cfg.Obs,
		commitHist: cfg.Obs.Histogram("fides_client_commit_seconds", "End-to-end Commit latency at the client: end_transaction sent to decision verified.", nil),
		clock:      clock,
	}, nil
}

// Verifier returns the light client backing Verified() reads (nil when
// the client was built without one).
func (c *Client) Verifier() *lightclient.Client { return c.verifier }

// ID returns the client's node id.
func (c *Client) ID() identity.NodeID { return c.ident.ID }

// observe merges an observed timestamp into the client's Lamport clock so
// its next commit timestamp orders after everything it has seen.
func (c *Client) observe(ts txn.Timestamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock.Observe(ts)
}

func (c *Client) nextTS() txn.Timestamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock.Next()
}

func (c *Client) nextTxnID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txnSeq++
	return fmt.Sprintf("%s-t%d", c.ident.ID, c.txnSeq)
}

// Session is one in-flight transaction: Begin → Read/Write → Commit
// (paper Figure 5).
type Session struct {
	client *Client
	id     string

	reads   []txn.ReadEntry
	writes  []txn.WriteEntry
	readIdx map[txn.ItemID]int
	written map[txn.ItemID]int
	began   map[identity.NodeID]bool
	done    bool
}

// Begin starts a new transaction session.
func (c *Client) Begin() *Session {
	return &Session{
		client:  c,
		id:      c.nextTxnID(),
		readIdx: make(map[txn.ItemID]int),
		written: make(map[txn.ItemID]int),
		began:   make(map[identity.NodeID]bool),
	}
}

// ID returns the session's transaction id.
func (s *Session) ID() string { return s.id }

// ErrSessionDone is returned for operations on a terminated session.
var ErrSessionDone = errors.New("client: session already terminated")

// ensureBegin marks the transaction as begun at a server the first time
// the session touches it (paper §4.1 step 1). The begin is piggybacked on
// the first read/write rather than sent as its own round trip: the
// execution layer opens the transaction's write buffer implicitly on first
// access, so a separate announcement would only add a message per server
// per transaction. (wire.MsgBeginTxn remains available for clients that
// want the explicit handshake.)
func (s *Session) ensureBegin(_ context.Context, owner identity.NodeID) error {
	s.began[owner] = true
	return nil
}

// ReadOption configures one Session.Read call.
type ReadOption func(*readOpts)

type readOpts struct {
	verified bool
	pinned   bool
	height   uint64
}

// Verified makes the read proof-carrying: the value arrives with a Merkle
// proof and the block height whose committed, co-signed shard root
// authenticates it, checked against the client's light client
// (Config.Verifier) before the value is accepted. A stale or forged value
// fails at read time instead of at the next audit (paper §5 Scenario 1 /
// Lemma 1).
func Verified() ReadOption {
	return func(o *readOpts) { o.verified = true }
}

// AtHeight pins the read to the shard state authenticated by the co-signed
// root committed at or below block height h — a point-in-time verified
// lookup (it implies Verified). Unlike plain and Verified reads, a pinned
// read does not enter the session's read set: OCC validates reads against
// current state, and a historical snapshot read is a query, not a commit
// dependency.
func AtHeight(h uint64) ReadOption {
	return func(o *readOpts) { o.verified, o.pinned, o.height = true, true, h }
}

// Read fetches an item's value from its owning server and records the read
// entry (value, rts, wts) for the commit request. Options select the
// integrity mode: no options is the plain audit-time-checked read,
// Verified() checks a Merkle proof against the synced header chain before
// accepting, AtHeight(h) additionally pins the lookup to a historical
// co-signed root. Reads are cached: re-reading an item (or reading an item
// the session wrote) is served locally, regardless of mode.
func (s *Session) Read(ctx context.Context, id txn.ItemID, opts ...ReadOption) ([]byte, error) {
	var o readOpts
	for _, opt := range opts {
		opt(&o)
	}
	if s.done {
		return nil, ErrSessionDone
	}
	if wi, ok := s.written[id]; ok {
		return append([]byte(nil), s.writes[wi].NewVal...), nil
	}
	if o.pinned {
		return s.readPinned(ctx, id, o.height)
	}
	if ri, ok := s.readIdx[id]; ok {
		return append([]byte(nil), s.reads[ri].Value...), nil
	}
	if o.verified && s.client.verifier == nil {
		return nil, ErrNoVerifier
	}
	owner, ok := s.client.dir.Owner(id)
	if !ok {
		return nil, fmt.Errorf("client: no owner for item %s", id)
	}
	if err := s.ensureBegin(ctx, owner); err != nil {
		return nil, err
	}
	if o.verified {
		vals, err := s.client.verifier.ReadVerified(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("client: verified read %s from %s: %w", id, owner, err)
		}
		v := vals[0]
		s.client.observe(v.RTS)
		s.client.observe(v.WTS)
		s.readIdx[id] = len(s.reads)
		s.reads = append(s.reads, txn.ReadEntry{ID: id, Value: v.Value, RTS: v.RTS, WTS: v.WTS})
		return append([]byte(nil), v.Value...), nil
	}
	msg, err := transport.NewMessage(wire.MsgRead, &wire.ReadReq{TxnID: s.id, ID: id})
	if err != nil {
		return nil, err
	}
	resp, err := s.client.tr.Call(ctx, owner, msg)
	if err != nil {
		return nil, fmt.Errorf("client: read %s from %s: %w", id, owner, err)
	}
	var rr wire.ReadResp
	if err := resp.Decode(&rr); err != nil {
		return nil, err
	}
	s.client.observe(rr.RTS)
	s.client.observe(rr.WTS)
	s.readIdx[id] = len(s.reads)
	s.reads = append(s.reads, txn.ReadEntry{ID: id, Value: rr.Value, RTS: rr.RTS, WTS: rr.WTS})
	return append([]byte(nil), rr.Value...), nil
}

// readPinned serves an AtHeight read: a verified lookup against the
// co-signed shard root at the pinned height. Values the session itself
// wrote are still served from the write buffer (handled by Read); nothing
// here touches the read set.
func (s *Session) readPinned(ctx context.Context, id txn.ItemID, height uint64) ([]byte, error) {
	if s.client.verifier == nil {
		return nil, ErrNoVerifier
	}
	vals, err := s.client.verifier.ReadPinned(ctx, height, id)
	if err != nil {
		return nil, fmt.Errorf("client: pinned read %s at height %d: %w", id, height, err)
	}
	return append([]byte(nil), vals[0].Value...), nil
}

// ErrNoVerifier is returned by a Verified() or AtHeight read on a client
// built without a light client (Config.Verifier).
var ErrNoVerifier = errors.New("client: no verifier configured for verified reads")

// Write buffers a new value for an item at its owning server and records
// the write entry. For blind writes (items not read first), the server's
// acknowledgement supplies the old value and timestamps (paper §4.2.1).
func (s *Session) Write(ctx context.Context, id txn.ItemID, value []byte) error {
	if s.done {
		return ErrSessionDone
	}
	owner, ok := s.client.dir.Owner(id)
	if !ok {
		return fmt.Errorf("client: no owner for item %s", id)
	}
	if err := s.ensureBegin(ctx, owner); err != nil {
		return err
	}
	msg, err := transport.NewMessage(wire.MsgWrite, &wire.WriteReq{TxnID: s.id, ID: id, Value: value})
	if err != nil {
		return err
	}
	resp, err := s.client.tr.Call(ctx, owner, msg)
	if err != nil {
		return fmt.Errorf("client: write %s at %s: %w", id, owner, err)
	}
	var wr wire.WriteResp
	if err := resp.Decode(&wr); err != nil {
		return err
	}
	s.client.observe(wr.RTS)
	s.client.observe(wr.WTS)

	if wi, ok := s.written[id]; ok {
		s.writes[wi].NewVal = append([]byte(nil), value...)
		return nil
	}
	entry := txn.WriteEntry{ID: id, NewVal: append([]byte(nil), value...)}
	if ri, ok := s.readIdx[id]; ok {
		// Read-then-write: timestamps come from the read observation.
		entry.RTS = s.reads[ri].RTS
		entry.WTS = s.reads[ri].WTS
	} else {
		// Blind write: old value and timestamps from the acknowledgement
		// (Table 1: old_val is populated only for blind writes).
		entry.Blind = true
		entry.OldVal = append([]byte(nil), wr.OldVal...)
		entry.RTS = wr.RTS
		entry.WTS = wr.WTS
	}
	s.written[id] = len(s.writes)
	s.writes = append(s.writes, entry)
	return nil
}

// CommitResult is the outcome of a termination request.
type CommitResult struct {
	// Committed reports the collective decision.
	Committed bool
	// Rejected reports that the coordinator ignored the request because its
	// timestamp was not above the latest committed timestamp (paper §4.3.1);
	// the client's clock has been fast-forwarded, so a fresh attempt will
	// carry a valid timestamp.
	Rejected bool
	// Block is the collectively signed block terminating the transaction
	// (nil when Rejected).
	Block *ledger.Block
	// TS is the commit timestamp the client assigned.
	TS txn.Timestamp
}

// ErrInvalidCoSig is returned when the block accompanying a decision fails
// collective-signature verification — the paper's cue for the client to
// "detect an anomaly and trigger an audit" (§4.3.1 phase 5).
var ErrInvalidCoSig = errors.New("client: decision block carries an invalid collective signature")

// Commit assigns the commit timestamp, sends the signed end_transaction
// request µ = ⟨end_transaction(Tid, ts, Rset-Wset)⟩_σA to the coordinator
// (paper §4.3.1), and verifies the collective signature on the returned
// block before accepting the decision.
func (s *Session) Commit(ctx context.Context) (*CommitResult, error) {
	if s.done {
		return nil, ErrSessionDone
	}
	s.done = true
	start := time.Now()
	ctx, span := s.client.o.StartRoot(ctx, "client.commit", "txn", s.id)
	res, err := s.commit(ctx)
	s.client.commitHist.ObserveSince(start)
	if err != nil {
		span.EndErr(err)
		return res, err
	}
	switch {
	case res.Rejected:
		span.SetAttr("outcome", "rejected")
	case res.Committed:
		span.SetAttr("outcome", "commit")
	default:
		span.SetAttr("outcome", "abort")
	}
	span.End()
	return res, nil
}

// commit is the body of Commit, running inside the root span.
func (s *Session) commit(ctx context.Context) (*CommitResult, error) {
	t := &txn.Transaction{ID: s.id, TS: s.client.nextTS(), Reads: s.reads, Writes: s.writes}
	// The client signs the canonical binary encoding of the transaction;
	// servers store this envelope in the block, so the auditor can later
	// re-verify exactly what the client authorized (paper §3.2).
	env := identity.Seal(s.client.ident, t.AppendBinary(nil))
	msg, err := transport.NewMessage(wire.MsgEndTxn, &wire.EndTxnReq{TxnEnvelope: env})
	if err != nil {
		return nil, err
	}
	resp, err := s.client.tr.Call(ctx, s.client.coord, msg)
	if err != nil {
		return nil, fmt.Errorf("client: end_transaction: %w", err)
	}
	var er wire.EndTxnResp
	if err := resp.Decode(&er); err != nil {
		return nil, err
	}
	if er.Rejected {
		// Only the timestamp was stale; the read/write sets remain valid.
		// Reopen the session so the caller can re-commit immediately with a
		// fresh (fast-forwarded) timestamp instead of re-executing.
		s.client.observe(er.LatestTS)
		s.done = false
		return &CommitResult{Rejected: true, TS: t.TS}, nil
	}
	if er.Block == nil {
		return nil, errors.New("client: coordinator returned no block")
	}
	if !s.client.trusted {
		if err := s.client.VerifyBlock(er.Block); err != nil {
			return &CommitResult{Committed: false, Block: er.Block, TS: t.TS}, err
		}
	}
	if !blockContains(er.Block, s.id) {
		return nil, fmt.Errorf("client: decision block %d does not contain txn %s", er.Block.Height, s.id)
	}
	s.client.observe(er.Block.MaxTS())
	return &CommitResult{Committed: er.Committed, Block: er.Block, TS: t.TS}, nil
}

// Transaction materializes the session's current read/write sets without
// terminating it (used by tests and by custom termination paths).
func (s *Session) Transaction(ts txn.Timestamp) *txn.Transaction {
	return &txn.Transaction{ID: s.id, TS: ts, Reads: s.reads, Writes: s.writes}
}

// VerifyBlock checks a block's collective signature against the Schnorr
// keys of its declared signers — "the client, with the public keys of all
// the servers, verifies the co-sign before accepting the decision; even an
// aborted transaction must be signed by all the servers" (paper §4.3.1).
func (c *Client) VerifyBlock(b *ledger.Block) error {
	if len(b.Signers) == 0 {
		return fmt.Errorf("%w: no signers", ErrInvalidCoSig)
	}
	sig := b.CoSig()
	if sig.IsZero() {
		return ErrInvalidCoSig
	}
	if err := c.crypto.VerifyCoSig(b.Signers, b.SigningBytes(), sig); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidCoSig, err)
	}
	return nil
}

func blockContains(b *ledger.Block, txnID string) bool {
	for i := range b.Txns {
		if b.Txns[i].TxnID == txnID {
			return true
		}
	}
	return false
}
