// Package wire defines the RPC message vocabulary of Fides: the
// client↔server execution messages (paper §4.1–4.2, Figure 6), the five
// TFCommit phases (paper §4.3.1, Figure 7), the Two-Phase-Commit baseline
// (paper §6.1), and the audit RPCs (paper §3.3).
//
// Every message travels inside a signed transport frame; the structs here
// are the JSON bodies.
package wire

import (
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/txn"
)

// Message type identifiers.
const (
	// Execution layer (client → server).
	MsgRead = "read"

	// Termination (client → coordinator).
	MsgEndTxn = "end_txn"

	// TFCommit phases (coordinator ↔ cohorts). Each name carries the
	// ⟨2PC phase, CoSi phase⟩ mapping of Figure 7.
	MsgGetVote   = "tfc_get_vote"  // ⟨GetVote, SchAnnouncement⟩
	MsgChallenge = "tfc_challenge" // ⟨null, SchChallenge⟩
	MsgDecision  = "tfc_decision"  // ⟨Decision, null⟩

	// Two-Phase Commit baseline.
	MsgPrepare     = "2pc_prepare"
	Msg2PCDecision = "2pc_decision"

	// Audit.
	MsgFetchLog   = "audit_fetch_log"
	MsgFetchProof = "audit_fetch_proof"

	// Light client: header sync and proof-carrying reads
	// (internal/lightclient; see docs/protocol.md "Verified reads").
	MsgFetchHeaders = "lc_fetch_headers"
	MsgVerifiedRead = "lc_verified_read"

	// Decision recovery and cohort catch-up (server ↔ server; see
	// docs/protocol.md "Decision delivery, catch-up, and coordinator
	// failover"). A co-signed block is self-authenticating, so any peer —
	// trusted or not — can answer it.
	MsgFetchBlocks = "log_fetch_blocks"

	// Watchtower (internal/watch): portable misbehavior evidence and the
	// /integrity status document. Neither is an RPC — bundles are written
	// to disk / shipped to third parties, the status is served over HTTP —
	// but both live in the wire vocabulary so they share the binary codec,
	// the fuzz corpus, and offline decodability guarantees.
	MsgEvidenceBundle  = "watch_evidence"
	MsgIntegrityStatus = "watch_integrity"
)

// ReadReq asks the execution layer for a data item's current value
// (paper §4.1 step 2).
type ReadReq struct {
	ID txn.ItemID `json:"id"`
}

// ReadResp carries the value and the item's current read/write timestamps
// (paper §4.2.1: "the servers respond with the data values along with the
// associated rts and wts timestamps").
type ReadResp struct {
	Value []byte        `json:"value"`
	RTS   txn.Timestamp `json:"rts"`
	WTS   txn.Timestamp `json:"wts"`
}

// EndTxnReq is the client's signed termination request
// µ = ⟨end_transaction(Tid, ts, Rset-Wset)⟩_σA (paper §4.3.1). TxnEnvelope
// contains the client-signed JSON encoding of the txn.Transaction; the
// coordinator verifies and then encapsulates it in the GetVote message so
// every cohort can check the client authorized exactly this transaction.
type EndTxnReq struct {
	TxnEnvelope identity.Envelope `json:"txn_envelope"`
}

// EndTxnResp returns the termination outcome together with the finalized,
// collectively signed block, which the client verifies before accepting the
// decision — "even an aborted transaction must be signed by all the
// servers" (paper §4.3.1 phase 5).
//
// A request whose commit timestamp is not above the latest committed
// timestamp is ignored rather than run through the protocol (§4.3.1); the
// coordinator reports that with Rejected=true and no block, and LatestTS
// lets the client fast-forward its Lamport clock before retrying.
type EndTxnResp struct {
	Committed bool          `json:"committed"`
	Block     *ledger.Block `json:"block,omitempty"`
	Rejected  bool          `json:"rejected,omitempty"`
	LatestTS  txn.Timestamp `json:"latest_ts,omitempty"`
}

// GetVoteReq is TFCommit phase 1 ⟨GetVote, SchAnnouncement⟩: the partially
// filled block b_i = [ts_i, Rset-Wset, h_{i-1}] plus the encapsulated
// signed client requests, one per transaction in the block.
type GetVoteReq struct {
	Block      *ledger.Block       `json:"block"`
	ClientReqs []identity.Envelope `json:"client_reqs"`
}

// VoteResp is TFCommit phase 2 ⟨Vote, SchCommitment⟩: the cohort's local
// commit/abort decision, its in-memory Merkle root assuming the block
// commits (only if involved and voting commit), and its Schnorr commitment
// x_sch for CoSi.
//
// TxnAborts itemizes which transactions of the block failed this cohort's
// validation. The block's fate stays atomic (any itemized abort aborts the
// whole block, per §4.3), but the coordinator uses the itemization to
// retry the block with the vetoed transactions pruned — how the evaluation
// sustains ~100-transaction blocks (§4.6, §6.2) without one stale
// transaction dooming its 99 batchmates.
type VoteResp struct {
	Vote       ledger.Decision `json:"vote"`
	Involved   bool            `json:"involved"`
	Root       []byte          `json:"root,omitempty"`
	Commitment []byte          `json:"commitment"`
	TxnAborts  []int           `json:"txn_aborts,omitempty"`
}

// ChallengeReq is TFCommit phase 3 ⟨null, SchChallenge⟩: the Schnorr
// challenge ch = h(X_sch ‖ b_i), the aggregate commitment X_sch, and the
// now fully filled block (roots + decision).
type ChallengeReq struct {
	Challenge     []byte        `json:"challenge"`
	AggCommitment []byte        `json:"agg_commitment"`
	Block         *ledger.Block `json:"block"`
}

// ChallengeResp is TFCommit phase 4 ⟨null, SchResponse⟩: the cohort's
// Schnorr response r_i, sent only after the cohort validated the block, its
// own root within it, and the challenge computation.
type ChallengeResp struct {
	Response []byte `json:"response"`
}

// DecisionReq is TFCommit phase 5 ⟨Decision, null⟩: the finalized block
// carrying the collective signature ⟨ch, R_sch⟩.
type DecisionReq struct {
	Block *ledger.Block `json:"block"`
}

// DecisionResp acknowledges the decision.
type DecisionResp struct {
	OK bool `json:"ok"`
}

// PrepareReq is 2PC round 1: the coordinator ships the candidate block and
// collects votes.
type PrepareReq struct {
	Block      *ledger.Block       `json:"block"`
	ClientReqs []identity.Envelope `json:"client_reqs"`
}

// PrepareResp is a 2PC cohort vote.
type PrepareResp struct {
	Vote ledger.Decision `json:"vote"`
}

// TwoPCDecisionReq is 2PC round 2: the coordinator's decision.
type TwoPCDecisionReq struct {
	Block *ledger.Block `json:"block"`
}

// TwoPCDecisionResp acknowledges a 2PC decision.
type TwoPCDecisionResp struct {
	OK bool `json:"ok"`
}

// FetchLogReq asks a server for its full tamper-proof log (paper §3.3: "the
// auditor gathers the tamper-proof logs from all the servers").
type FetchLogReq struct{}

// FetchLogResp carries the server's log.
type FetchLogResp struct {
	Blocks []*ledger.Block `json:"blocks"`
}

// FetchProofReq asks a server for the Verification Object of one item,
// either against the current state (single-versioned audit) or at a given
// version (multi-versioned audit, paper §4.2.2).
type FetchProofReq struct {
	ID txn.ItemID `json:"id"`
	// AtVersion selects a historical version; TS is the version timestamp.
	AtVersion bool          `json:"at_version,omitempty"`
	TS        txn.Timestamp `json:"ts,omitempty"`
}

// FetchProofResp carries the leaf content the server claims for the item
// and the VO authenticating it.
type FetchProofResp struct {
	LeafContent []byte       `json:"leaf_content"`
	Proof       merkle.Proof `json:"proof"`
}

// FetchHeadersReq asks a server for a range of block headers starting at
// height From (at most Max of them). A light client cold-syncs by paging
// from height 0 and resumes from any trusted height by paging from its
// cached tip; the server streams whatever prefix of [From, From+Max) its
// log holds.
type FetchHeadersReq struct {
	From uint64 `json:"from"`
	Max  uint32 `json:"max"`
}

// FetchHeadersResp carries the requested header range plus the server's
// current log length, so the client knows whether another page remains
// without an extra round trip.
type FetchHeadersResp struct {
	Headers []*ledger.Header `json:"headers"`
	Tip     uint64           `json:"tip"`
}

// VerifiedReadReq asks for the current value of one or more items of a
// single shard together with the Merkle proof authenticating them against
// a committed, co-signed shard root — the proof-carrying read path that
// makes read integrity an online property instead of an audit-time one.
//
// With Pinned set, the read is served against the shard state
// authenticated by the newest committed root at height ≤ AtHeight — a
// snapshot read at a pinned height (multi-versioned shards only when the
// pin is older than the newest root).
type VerifiedReadReq struct {
	IDs      []txn.ItemID `json:"ids"`
	Pinned   bool         `json:"pinned,omitempty"`
	AtHeight uint64       `json:"at_height,omitempty"`
}

// VerifiedItem is one item of a verified-read response: the value and
// timestamps whose LeafContent the proof authenticates.
type VerifiedItem struct {
	ID    txn.ItemID    `json:"id"`
	Value []byte        `json:"value"`
	RTS   txn.Timestamp `json:"rts"`
	WTS   txn.Timestamp `json:"wts"`
}

// VerifiedReadResp carries the items (in Merkle leaf order, matching
// Proof.Indices), the one batched proof covering all of them, and the
// block height whose committed shard root the proof folds up to. The light
// client authenticates the response against its header cache: the header
// at Height supplies the expected root, and the client's per-server root
// index exposes a Height older than the newest committed root as a stale
// read.
type VerifiedReadResp struct {
	Height uint64            `json:"height"`
	Items  []VerifiedItem    `json:"items"`
	Proof  merkle.MultiProof `json:"proof"`
}

// FetchBlocksReq asks a peer server for a range of full committed blocks
// starting at height From (at most Max of them). A server that recovers
// behind the cluster tip pages its missing log suffix from any peer,
// re-verifying chain position, txns-hash, and collective signature exactly
// as recovery verifies the disk before applying each block. A cohort whose
// round stalled in phase 5 asks for one block at its next height: because
// the block carries the collective signature of every server, the cohort
// verifies the answer without trusting the responder — the co-signed block
// *is* the decision.
type FetchBlocksReq struct {
	From uint64 `json:"from"`
	Max  uint32 `json:"max"`
}

// FetchBlocksResp carries the requested block range plus the responder's
// current log length, so the asker knows whether another page remains.
type FetchBlocksResp struct {
	Blocks []*ledger.Block `json:"blocks"`
	Tip    uint64          `json:"tip"`
}

// EvidenceBundle is a self-contained, portable accusation: everything a
// third party needs to re-verify a watchtower finding offline, trusting
// nothing but the servers' registered public keys. The co-signed material
// (Blocks, Anchor) authenticates itself; the offending material (BadHeader,
// Read, Proof, or the tail of Blocks) demonstrably fails the protocol check
// the bundle's Kind names. internal/watch.VerifyBundle re-runs that check;
// `fides-client -verify-bundle` wraps it for the command line.
//
// Attribution note: the co-signed evidence proves *that* the protocol was
// violated; which server *served* the offending response rests on the
// watchtower's transcript (Accused), exactly as log-fetch attribution does
// in the offline audit.
type EvidenceBundle struct {
	// Kind is the watch finding type the bundle substantiates.
	Kind string `json:"kind"`
	// Accused names the server(s) the watchtower received the offending
	// material from (or that own the offending item, for replay findings).
	Accused []identity.NodeID `json:"accused"`
	// Height is the block height the finding is anchored at.
	Height uint64 `json:"height"`
	// Item and TxnID locate the finding, when applicable.
	Item  txn.ItemID `json:"item,omitempty"`
	TxnID string     `json:"txn_id,omitempty"`
	// Detail is the watchtower's human-readable explanation.
	Detail string `json:"detail"`

	// Blocks is a contiguous co-signed block range for replay findings:
	// replaying it from its first block reproduces the finding (the first
	// block baselines the item state, the last exhibits the violation).
	Blocks []*ledger.Block `json:"blocks,omitempty"`
	// Anchor is the co-signed header serving-path evidence is checked
	// against (the header whose root the offending response claimed).
	Anchor *ledger.Header `json:"anchor,omitempty"`
	// BadHeader is a forged header exactly as served.
	BadHeader *ledger.Header `json:"bad_header,omitempty"`
	// ReadIDs is the item set the watchtower requested when the offending
	// verified read was served.
	ReadIDs []txn.ItemID `json:"read_ids,omitempty"`
	// Read is the offending verified-read response exactly as served.
	Read *VerifiedReadResp `json:"read,omitempty"`
	// Proof is the follow-up single-item VO used to classify a failed read
	// (datastore corruption vs. a lie about the value).
	Proof *FetchProofResp `json:"proof,omitempty"`
}

// IntegrityAlert is one in-process alert rule evaluation result.
type IntegrityAlert struct {
	// Rule names the threshold rule that fired (e.g. "verified_lag",
	// "findings").
	Rule string `json:"rule"`
	// Severity is "warning" or "critical".
	Severity string `json:"severity"`
	// Message explains the firing state.
	Message string `json:"message"`
}

// IntegrityStatus is the watchtower's integrity SLO document, served as
// JSON on /integrity and embeddable in the binary codec for archival.
type IntegrityStatus struct {
	// Watcher identifies the reporting watchtower.
	Watcher identity.NodeID `json:"watcher"`
	// Tip is the highest chain height any server reports.
	Tip uint64 `json:"tip"`
	// Verified is the height up to which the watchtower has re-verified
	// and replayed the chain.
	Verified uint64 `json:"verified"`
	// Lag is Tip - Verified (the freshness SLO).
	Lag uint64 `json:"lag"`
	// BlocksVerified counts blocks re-verified since start.
	BlocksVerified uint64 `json:"blocks_verified"`
	// SampledReads counts sampled proof-carrying reads since start.
	SampledReads uint64 `json:"sampled_reads"`
	// Findings counts integrity findings since start.
	Findings uint64 `json:"findings"`
	// Alerts lists the alert rules currently firing.
	Alerts []IntegrityAlert `json:"alerts,omitempty"`
	// Healthy is true when nothing fires: lag within bounds, no findings.
	Healthy bool `json:"healthy"`
}
