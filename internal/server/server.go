// Package server implements a Fides database server: the four-component
// node of paper Figure 3 — a transaction execution layer, a commitment
// layer (TFCommit cohort, plus the 2PC baseline), a datastore, and the
// tamper-proof log.
//
// The server also hosts the fault-injection surface of the reproduction:
// every malicious behavior the paper's auditor must detect (§3.2, §5) can
// be switched on per server through the Faults configuration, while the
// default zero value is a correct server.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// Directory resolves which server stores a data item. Every node knows the
// full partitioning (paper §3.1: clients and servers "are aware of all the
// other servers in the system").
type Directory interface {
	// Owner returns the server storing id.
	Owner(id txn.ItemID) (identity.NodeID, bool)
}

// Terminator handles a client's end_transaction request. The coordinator
// server wires this to its batching commit service; cohort servers leave it
// nil and reject termination requests.
type Terminator interface {
	Terminate(ctx context.Context, env identity.Envelope) (*wire.EndTxnResp, error)
}

// Snapshotter is notified after every committed block so a durable store
// can periodically checkpoint the shard (internal/durable implements it).
// It is called with the server lock held, after the block is applied and
// appended; height and tipHash identify the block just committed.
type Snapshotter interface {
	MaybeSnapshot(shard *store.Shard, height uint64, tipHash []byte) error
}

// Config assembles a server.
type Config struct {
	Identity *identity.Identity
	// Registry holds every node's public keys. Its servers, as registered
	// when New runs, are the full server set every co-signed block this
	// server accepts must carry.
	Registry  *identity.Registry
	Directory Directory
	Shard     *store.Shard
	Faults    Faults

	// Log, when non-nil, seeds the server with a recovered tamper-proof
	// log instead of an empty one (the open-with-recovery startup path).
	// The server's last-committed watermark is derived from its blocks.
	Log *ledger.Log
	// Snapshot, when non-nil, is invoked after every committed block.
	Snapshot Snapshotter
	// VoteLookahead enables the pipelined commit path on the cohort side:
	// a get_vote announcement for a height above the log tip waits up to
	// this long for the in-flight decisions below it to apply, instead of
	// being rejected outright. Zero keeps the strict serial behavior
	// (announcements must extend the log exactly when they arrive).
	VoteLookahead time.Duration
	// CrashHook, when non-nil, is invoked at named points of the commit
	// path — "post-cosign" (decision signature verified, nothing applied
	// yet) and "mid-apply" (datastore updated, block not yet appended to
	// the log) — with the height of the block in flight. Returning a
	// non-nil error makes the step fail at exactly that point, which is
	// how the simulation harness (internal/sim) crashes a server between
	// the effects a real crash can separate. Production servers leave it
	// nil.
	CrashHook func(point string, height uint64) error
	// Obs supplies metrics, tracing and logging for this server; nil runs
	// dark (detached instruments, no spans, discard logger).
	Obs *obs.Obs
	// Verifier is this server's verification plane: every client-envelope
	// and collective-signature check on the commit path goes through it,
	// so the backend (serial or batched/parallel, core.Config.Crypto)
	// decides how the work is scheduled. Nil defaults to the serial
	// backend over Registry — today's behavior byte-for-byte.
	Verifier crypto.Verifier
}

// Server is one Fides database server.
type Server struct {
	ident    *identity.Identity
	reg      *identity.Registry
	dir      Directory
	shard    *store.Shard
	log      *ledger.Log
	verifier crypto.Verifier
	chain    *ledger.ChainVerifier // acceptance check for decisions and fetched blocks

	faults Faults

	snap      Snapshotter
	lookahead time.Duration // max get_vote wait for pipelined arrivals
	crash     func(point string, height uint64) error
	o         *obs.Obs

	// Registry-backed instruments (detached when no registry is wired).
	// They are also the storage for Stats(): the snapshot is a thin view
	// over these, never a second hand-rolled counter set.
	mhtHist         *obs.Histogram
	catchupBlocks   *obs.Counter
	wedgeRecoveries *obs.Counter
	dupDecisions    *obs.Counter
	occAborts       [4]*obs.Counter // indexed by occCause
	heightGauge     *obs.Gauge

	mu            sync.Mutex
	lastCommitted txn.Timestamp
	inflight      *cohortState // at most one TFCommit/2PC block in flight (sequential blocks)
	prevValues    map[txn.ItemID][]byte
	terminator    Terminator

	// Catch-up state (catchup.go): the peer mesh for pulling missed
	// decisions, and the hashes of recently decided abort blocks so a
	// retried abort decision whose ack was lost re-acknowledges
	// idempotently (commit blocks need no such memory — the log itself is
	// it).
	cu           *catchupState
	recentAborts map[uint64][]byte

	// Verified-read serving state (readserve.go): the header cache is the
	// log's headers, index == height; the committed-root cache records at
	// which heights this server's shard root was co-signed into a block,
	// so the serving path resolves "latest root ≤ pin" without scanning
	// the log. Both are maintained under mu by applyCommitLocked and
	// seeded from a recovered log.
	headers     []*ledger.Header
	rootHeights []uint64          // ascending
	rootAt      map[uint64][]byte // height → this server's committed root
}

// Stats aggregates the server-side costs the paper's evaluation reports;
// Figure 14 plots the Merkle-tree update time per block alongside latency
// and throughput.
type Stats struct {
	// MHTTime is the cumulative wall time spent computing in-memory Merkle
	// roots during Vote phases (overlay updates + reverts).
	MHTTime time.Duration
	// MHTBlocks counts the blocks those computations served.
	MHTBlocks int

	// CatchupBlocks counts blocks applied from peers through the catch-up
	// path (catchup.go) rather than a directly delivered phase-5 decision.
	CatchupBlocks int
	// WedgeRecoveries counts vote announcements that stalled past their
	// grace slice and were un-wedged by pulling the missing decisions from
	// peers — each one is a would-be liveness failure that healed.
	WedgeRecoveries int
	// DupDecisions counts re-delivered decisions acknowledged
	// idempotently: a coordinator retry after a lost ack, or a decision
	// arriving after catch-up already supplied the block.
	DupDecisions int
}

// occCause indexes Server.occAborts: the reason an OCC timestamp
// validation voted a transaction (or the whole block) abort.
type occCause int

const (
	occStaleTS       occCause = iota // txn timestamp ≤ last committed watermark
	occReadConflict                  // a read item's WTS moved since the read
	occWriteConflict                 // a written item's WTS moved since the write
	occBlockConflict                 // intra-block conflicting access set (§4.6)
)

// Stats returns a snapshot of the server's accumulated statistics. It is
// a thin view over the registry-backed instruments that also feed
// /metrics (fides_server_mht_seconds, fides_server_catchup_blocks_total,
// fides_server_wedge_recoveries_total, fides_server_dup_decisions_total).
func (s *Server) Stats() Stats {
	return Stats{
		MHTTime:         time.Duration(s.mhtHist.Sum() * float64(time.Second)),
		MHTBlocks:       int(s.mhtHist.Count()),
		CatchupBlocks:   int(s.catchupBlocks.Value()),
		WedgeRecoveries: int(s.wedgeRecoveries.Value()),
		DupDecisions:    int(s.dupDecisions.Value()),
	}
}

// New builds a server from its configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Identity == nil || cfg.Identity.Role != identity.RoleServer {
		return nil, errors.New("server: config requires a server identity")
	}
	if cfg.Identity.Schnorr == nil {
		return nil, errors.New("server: identity lacks a schnorr key")
	}
	if cfg.Registry == nil || cfg.Shard == nil || cfg.Directory == nil {
		return nil, errors.New("server: config requires registry, shard and directory")
	}
	log := cfg.Log
	if log == nil {
		log = ledger.NewLog()
	}
	verifier := cfg.Verifier
	if verifier == nil {
		verifier = crypto.NewSerial(cfg.Registry)
	}
	o := cfg.Obs
	s := &Server{
		ident:     cfg.Identity,
		reg:       cfg.Registry,
		verifier:  verifier,
		chain:     ledger.NewChainVerifier(cfg.Registry.Servers(), verifier),
		dir:       cfg.Directory,
		shard:     cfg.Shard,
		log:       log,
		snap:      cfg.Snapshot,
		lookahead: cfg.VoteLookahead,
		crash:     cfg.CrashHook,
		o:         o,
		faults:    cfg.Faults,

		mhtHist:         o.Histogram("fides_server_mht_seconds", "In-memory Merkle root computation latency during Vote phases (overlay updates + reverts).", nil),
		catchupBlocks:   o.Counter("fides_server_catchup_blocks_total", "Blocks applied via the peer catch-up path instead of a directly delivered decision."),
		wedgeRecoveries: o.Counter("fides_server_wedge_recoveries_total", "Vote announcements un-wedged by pulling overdue decisions from peers."),
		dupDecisions:    o.Counter("fides_server_dup_decisions_total", "Re-delivered decisions acknowledged idempotently."),
		heightGauge:     o.Gauge("fides_server_log_height", "Tamper-proof log length (blocks committed)."),

		prevValues:   make(map[txn.ItemID][]byte),
		rootAt:       make(map[uint64][]byte),
		recentAborts: make(map[uint64][]byte),
	}
	const occHelp = "Transactions voted abort by OCC timestamp validation, by cause."
	s.occAborts = [4]*obs.Counter{
		occStaleTS:       o.Counter("fides_server_occ_aborts_total", occHelp, obs.L("cause", "stale_ts")),
		occReadConflict:  o.Counter("fides_server_occ_aborts_total", occHelp, obs.L("cause", "read_conflict")),
		occWriteConflict: o.Counter("fides_server_occ_aborts_total", occHelp, obs.L("cause", "write_conflict")),
		occBlockConflict: o.Counter("fides_server_occ_aborts_total", occHelp, obs.L("cause", "block_conflict")),
	}
	// A recovered log restores the OCC watermark: "the servers ignore any
	// end transaction request with a timestamp lower than the latest
	// committed timestamp" must hold across restarts too — and re-seeds
	// the header and committed-root caches the verified-read path serves
	// from.
	for _, b := range log.Blocks() {
		s.lastCommitted = s.lastCommitted.Max(b.MaxTS())
		s.cacheBlockLocked(b)
	}
	s.heightGauge.Set(int64(log.Len()))
	return s, nil
}

// cacheBlockLocked records a committed block's header and, when this
// server's shard was involved, its co-signed root in the verified-read
// caches. Log heights are dense, so the header cache index equals the
// block height.
func (s *Server) cacheBlockLocked(b *ledger.Block) {
	s.headers = append(s.headers, b.Header())
	if root, ok := b.Roots[s.ident.ID]; ok {
		s.rootHeights = append(s.rootHeights, b.Height)
		s.rootAt[b.Height] = append([]byte(nil), root...)
	}
}

// ID returns the server's node id.
func (s *Server) ID() identity.NodeID { return s.ident.ID }

// Shard exposes the server's datastore (read-only use by tests/benches).
func (s *Server) Shard() *store.Shard { return s.shard }

// Log exposes the server's tamper-proof log.
func (s *Server) Log() *ledger.Log { return s.log }

// SetTerminator installs the termination service (the coordinator's commit
// batcher) that serves client end_transaction requests.
func (s *Server) SetTerminator(t Terminator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.terminator = t
}

// SetFaults replaces the server's fault configuration (tests flip faults on
// and off mid-run).
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = f
}

// Faults returns the current fault configuration.
func (s *Server) Faults() Faults {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// LastCommitted returns the largest commit timestamp the server has applied.
func (s *Server) LastCommitted() txn.Timestamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCommitted
}

var _ transport.Handler = (*Server)(nil)

// Handle dispatches an authenticated transport message to the appropriate
// layer.
func (s *Server) Handle(ctx context.Context, from identity.NodeID, msg transport.Message) (transport.Message, error) {
	switch msg.Type {
	case wire.MsgRead:
		return dispatch(msg, func(req *wire.ReadReq) (*wire.ReadResp, error) {
			return s.handleRead(req)
		})
	case wire.MsgEndTxn:
		return dispatch(msg, func(req *wire.EndTxnReq) (*wire.EndTxnResp, error) {
			return s.handleEndTxn(ctx, req)
		})
	case wire.MsgGetVote:
		return dispatch(msg, func(req *wire.GetVoteReq) (*wire.VoteResp, error) {
			return s.GetVote(ctx, from, req)
		})
	case wire.MsgChallenge:
		return dispatch(msg, func(req *wire.ChallengeReq) (*wire.ChallengeResp, error) {
			return s.Challenge(ctx, from, req)
		})
	case wire.MsgDecision:
		return dispatch(msg, func(req *wire.DecisionReq) (*wire.DecisionResp, error) {
			return s.Decide(ctx, from, req)
		})
	case wire.MsgPrepare:
		return dispatch(msg, func(req *wire.PrepareReq) (*wire.PrepareResp, error) {
			return s.Prepare(ctx, from, req)
		})
	case wire.Msg2PCDecision:
		return dispatch(msg, func(req *wire.TwoPCDecisionReq) (*wire.TwoPCDecisionResp, error) {
			return s.Decide2PC(ctx, from, req)
		})
	case wire.MsgFetchLog:
		return dispatch(msg, func(req *wire.FetchLogReq) (*wire.FetchLogResp, error) {
			return s.handleFetchLog(req)
		})
	case wire.MsgFetchProof:
		return dispatch(msg, func(req *wire.FetchProofReq) (*wire.FetchProofResp, error) {
			return s.handleFetchProof(req)
		})
	case wire.MsgFetchHeaders:
		return dispatch(msg, func(req *wire.FetchHeadersReq) (*wire.FetchHeadersResp, error) {
			return s.handleFetchHeaders(req)
		})
	case wire.MsgVerifiedRead:
		return dispatch(msg, func(req *wire.VerifiedReadReq) (*wire.VerifiedReadResp, error) {
			return s.handleVerifiedRead(req)
		})
	case wire.MsgFetchBlocks:
		return dispatch(msg, func(req *wire.FetchBlocksReq) (*wire.FetchBlocksResp, error) {
			return s.handleFetchBlocks(req)
		})
	default:
		return transport.Message{}, fmt.Errorf("server %s: unknown message type %q", s.ident.ID, msg.Type)
	}
}

// dispatch decodes the request, invokes fn, and encodes the response.
func dispatch[Req any, Resp any](msg transport.Message, fn func(*Req) (*Resp, error)) (transport.Message, error) {
	var req Req
	if err := msg.Decode(&req); err != nil {
		return transport.Message{}, err
	}
	resp, err := fn(&req)
	if err != nil {
		return transport.Message{}, err
	}
	return transport.NewMessage(msg.Type, resp)
}

// --- Execution layer (paper §4.2.1) ---

// handleRead serves an item's current value and timestamps. The execution
// layer holds no per-transaction state: the client keeps its own read and
// write sets, and the signed end_transaction carries them whole, so a read
// needs no transaction id and a write needs no server round trip (a blind
// write fetches its old value and timestamps through this same read).
func (s *Server) handleRead(req *wire.ReadReq) (*wire.ReadResp, error) {
	// The shard read runs under the shard's own RLock so concurrent plain
	// reads never serialize behind block applies; the server lock guards
	// only the fault state.
	item, err := s.shard.Get(req.ID)
	if err != nil {
		return nil, err
	}
	resp := &wire.ReadResp{Value: item.Value, RTS: item.RTS, WTS: item.WTS}
	s.mu.Lock()
	if s.faults.StaleReads {
		// Scenario 1 (paper §5): return an incorrect (previous) value while
		// keeping the up-to-date timestamps, so the lie is only catchable by
		// the auditor's read-value chain check (Lemma 1) — or, online, by a
		// proof-carrying read (readserve.go).
		if prev, ok := s.prevValues[req.ID]; ok {
			resp.Value = append([]byte(nil), prev...)
		}
	}
	s.mu.Unlock()
	return resp, nil
}

func (s *Server) handleEndTxn(ctx context.Context, req *wire.EndTxnReq) (*wire.EndTxnResp, error) {
	s.mu.Lock()
	t := s.terminator
	s.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("server %s: not the designated coordinator", s.ident.ID)
	}
	return t.Terminate(ctx, req.TxnEnvelope)
}

// DecodeTxnEnvelope verifies a client-signed transaction envelope against
// the registry and returns the transaction. Both the coordinator (on
// end_transaction) and every cohort (on get_vote, paper §4.3.1 phase 2)
// perform this check.
func DecodeTxnEnvelope(reg *identity.Registry, env identity.Envelope) (*txn.Transaction, error) {
	payload, err := reg.Open(env)
	if err != nil {
		return nil, fmt.Errorf("server: client request: %w", err)
	}
	return decodeTxnPayload(payload)
}

// DecodeTxnEnvelopeTrusted parses a transaction envelope without verifying
// its signature. It exists solely for the coordinator's local participant
// path: the coordinator already verified the very same envelope on
// end_transaction (Terminate), so its own cohort need not pay a second
// Ed25519 verification per transaction. Remote cohorts always use
// DecodeTxnEnvelope.
func DecodeTxnEnvelopeTrusted(env identity.Envelope) (*txn.Transaction, error) {
	return decodeTxnPayload(env.Payload)
}

// decodeTxnPayload parses a signed transaction payload: the canonical
// binary encoding by default, with the legacy JSON form (first byte '{')
// still accepted for compatibility.
func decodeTxnPayload(payload []byte) (*txn.Transaction, error) {
	var t txn.Transaction
	if len(payload) > 0 && payload[0] == '{' {
		if err := json.Unmarshal(payload, &t); err != nil {
			return nil, fmt.Errorf("server: client request: %w", err)
		}
	} else if err := t.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("server: client request: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("server: client request: %w", err)
	}
	return &t, nil
}
