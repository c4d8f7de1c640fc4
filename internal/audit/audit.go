// Package audit implements the Fides auditor (paper §3.3, §4.2.2–§4.5,
// §5): a powerful external entity that gathers the tamper-proof logs from
// all servers, identifies the correct and complete log, and then verifies
// every layer of every server — producing findings that pinpoint (i) the
// precise point in the transaction history where an anomaly occurred and
// (ii) the exact misbehaving server(s) irrefutably linked to it.
//
// The checks map one-to-one onto the paper's lemmas:
//
//	Lemma 1 — incorrect read values, via log replay (replay.go)
//	Lemma 2 — datastore corruption, via VO + MHT roots (datastore.go)
//	Lemma 3 — serializability violations, via conflict rules and a
//	          serialization-graph cycle check (replay.go, graph.go)
//	Lemma 4 — invalid collective signatures (logselect.go)
//	Lemma 5 — atomicity violations / equivocation, surfacing as invalid
//	          co-signs or forks across server logs (logselect.go)
//	Lemmas 6, 7 — tampered, reordered, or truncated logs (logselect.go)
//
// Together these give the verifiable ACID guarantees of Theorem 1.
package audit

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// FindingType classifies an audit finding.
type FindingType string

// Finding types, named after the failure classes of paper §3.2 and §5.
const (
	// FindingTamperedLog: a served log contains a block whose collective
	// signature does not verify (Lemma 6) — modified content, or an
	// equivocation branch block that was never collectively signed
	// (Lemma 5).
	FindingTamperedLog FindingType = "tampered-log"
	// FindingReorderedLog: a served log's hash pointers do not chain
	// (Lemma 6).
	FindingReorderedLog FindingType = "reordered-log"
	// FindingIncompleteLog: a served log is a strict prefix of the
	// authoritative log (Lemma 7).
	FindingIncompleteLog FindingType = "incomplete-log"
	// FindingForkedLog: a server's valid log diverges from the
	// authoritative log — two different blocks at the same height, the
	// observable footprint of coordinator equivocation (Lemma 5).
	FindingForkedLog FindingType = "forked-log"
	// FindingIncorrectRead: a committed transaction's recorded read does
	// not match the latest committed write of that item (Lemma 1,
	// Scenario 1).
	FindingIncorrectRead FindingType = "incorrect-read"
	// FindingStaleTimestamp: a recorded read carries timestamps that do not
	// match the item's authoritative timestamps at that point in history.
	FindingStaleTimestamp FindingType = "stale-timestamp"
	// FindingSerializability: a committed transaction exhibits an RW, WW,
	// or WR conflict inconsistent with the timestamp order (Lemma 3).
	FindingSerializability FindingType = "serializability-violation"
	// FindingDatastoreCorruption: a server's datastore state does not
	// authenticate against the MHT root recorded in the log (Lemma 2,
	// Scenario 3).
	FindingDatastoreCorruption FindingType = "datastore-corruption"
	// FindingUnauditable: a server could not be audited (unreachable, or
	// refused to serve a proof). Not proof of misbehavior by itself, but
	// reported so the operator can act.
	FindingUnauditable FindingType = "unauditable"
)

// Finding is one detected anomaly.
type Finding struct {
	Type FindingType
	// Servers are the implicated server(s).
	Servers []identity.NodeID
	// Height is the block height at which the anomaly occurs (-1 if not
	// tied to a specific block).
	Height int64
	// TxnID is the offending transaction, when applicable.
	TxnID string
	// Item is the data item involved, when applicable.
	Item txn.ItemID
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the finding with its type, position and implicated servers.
func (f Finding) String() string {
	srv := make([]string, len(f.Servers))
	for i, s := range f.Servers {
		srv[i] = string(s)
	}
	sort.Strings(srv)
	return fmt.Sprintf("[%s] servers=%v height=%d txn=%q item=%q: %s",
		f.Type, srv, f.Height, f.TxnID, f.Item, f.Detail)
}

// Report is the outcome of an audit.
type Report struct {
	// Findings lists every detected anomaly in detection order.
	Findings []Finding
	// Authoritative is the correct and complete log the audit was run
	// against (paper §3.3: derivable because at least one server is
	// correct).
	Authoritative []*ledger.Block
	// AuthoritativeFrom names a server that served the authoritative log.
	AuthoritativeFrom identity.NodeID
	// LogLengths records the length of the log served by each server.
	LogLengths map[identity.NodeID]int

	// dsTargets are the datastore-audit obligations the replay derived.
	dsTargets []dsTarget
}

// Clean reports whether the audit found no anomalies.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// FirstViolation returns the earliest finding by block height (ties broken
// by detection order), matching §4.5: the auditor identifies the first
// occurrence, after which the rest of the history is suspect.
func (r *Report) FirstViolation() *Finding {
	if len(r.Findings) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(r.Findings); i++ {
		if heightKey(r.Findings[i].Height) < heightKey(r.Findings[best].Height) {
			best = i
		}
	}
	return &r.Findings[best]
}

func heightKey(h int64) int64 {
	if h < 0 {
		return 1<<62 - 1
	}
	return h
}

// ByType returns the findings of one type.
func (r *Report) ByType(t FindingType) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Type == t {
			out = append(out, f)
		}
	}
	return out
}

// Implicates reports whether any finding names the given server.
func (r *Report) Implicates(id identity.NodeID) bool {
	for _, f := range r.Findings {
		for _, s := range f.Servers {
			if s == id {
				return true
			}
		}
	}
	return false
}

// Directory resolves item ownership, used to attribute item-level findings
// to servers.
type Directory interface {
	Owner(id txn.ItemID) (identity.NodeID, bool)
}

// Options tune an audit run.
type Options struct {
	// CheckDatastore enables the Lemma 2 VO/MHT verification against the
	// servers' live datastores.
	CheckDatastore bool
	// Exhaustive audits every version of every involved server
	// (multi-versioned shards); otherwise only each server's latest
	// authenticated version is checked (paper §4.2.2 describes both
	// policies).
	Exhaustive bool
	// MultiVersion declares whether the deployment's shards retain
	// versions; it selects which VO form the auditor requests.
	MultiVersion bool
	// Resume, when non-nil, starts the log replay from a previously
	// verified checkpoint (e.g. the watchtower's) instead of genesis. The
	// checkpoint is validated against the authoritative log before use;
	// Run fails if it was taken on a different history. Findings confined
	// to blocks below the checkpoint height were already reported when the
	// checkpoint was built and are not re-derived.
	Resume *Checkpoint
}

// Config assembles an Auditor. The shared peer wiring — registry,
// transport, server set and coordinator — is the embedded
// peer.PeerConfig (the auditor pulls whole logs, so Source and PageSize
// are unused).
type Config struct {
	peer.PeerConfig

	// Identity is the auditor's identity (a client-role key registered with
	// all servers so its requests authenticate).
	Identity *identity.Identity
	// Directory resolves item ownership.
	Directory Directory
}

// Auditor audits a Fides deployment.
type Auditor struct {
	ident   *identity.Identity
	tr      transport.Transport
	servers []identity.NodeID
	dir     Directory
	coord   identity.NodeID
	chain   *ledger.ChainVerifier
}

// New creates an Auditor.
func New(cfg Config) (*Auditor, error) {
	if cfg.Identity == nil || cfg.Directory == nil {
		return nil, errors.New("audit: config requires identity, registry, transport and directory")
	}
	if err := cfg.Validate("audit"); err != nil {
		return nil, err
	}
	cfg.ApplyDefaults(0)
	servers := append([]identity.NodeID(nil), cfg.Servers...)
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	return &Auditor{
		ident:   cfg.Identity,
		tr:      cfg.Transport,
		servers: servers,
		dir:     cfg.Directory,
		coord:   cfg.Coordinator,
		chain:   ledger.NewChainVerifier(servers, cfg.Verifier),
	}, nil
}

// Run performs a full audit: gather logs, select the authoritative log,
// verify every served log against it, replay the history (Lemmas 1 and 3),
// and optionally authenticate the datastores (Lemma 2).
func (a *Auditor) Run(ctx context.Context, opts Options) (*Report, error) {
	report := &Report{LogLengths: make(map[identity.NodeID]int, len(a.servers))}

	logs := a.collectLogs(ctx, report)
	a.selectAuthoritative(logs, report)
	if err := a.replayLog(report, opts.Resume); err != nil {
		return report, err
	}
	if opts.CheckDatastore {
		a.checkDatastores(ctx, report, opts)
	}
	return report, nil
}

// collectLogs fetches every server's log (paper §3.3 step i).
func (a *Auditor) collectLogs(ctx context.Context, report *Report) map[identity.NodeID][]*ledger.Block {
	logs := make(map[identity.NodeID][]*ledger.Block, len(a.servers))
	msg, err := transport.NewMessage(wire.MsgFetchLog, &wire.FetchLogReq{})
	if err != nil {
		return logs
	}
	resps, errs := transport.CallAll(ctx, a.tr, a.servers, msg)
	for id, e := range errs {
		report.Findings = append(report.Findings, Finding{
			Type:    FindingUnauditable,
			Servers: []identity.NodeID{id},
			Height:  -1,
			Detail:  fmt.Sprintf("log fetch failed: %v", e),
		})
	}
	for id, resp := range resps {
		var fl wire.FetchLogResp
		if err := resp.Decode(&fl); err != nil {
			report.Findings = append(report.Findings, Finding{
				Type:    FindingUnauditable,
				Servers: []identity.NodeID{id},
				Height:  -1,
				Detail:  fmt.Sprintf("log decode failed: %v", err),
			})
			continue
		}
		logs[id] = fl.Blocks
		report.LogLengths[id] = len(fl.Blocks)
	}
	return logs
}

// fetchProof asks one server for a Verification Object.
func (a *Auditor) fetchProof(ctx context.Context, server identity.NodeID, req *wire.FetchProofReq) (*wire.FetchProofResp, error) {
	msg, err := transport.NewMessage(wire.MsgFetchProof, req)
	if err != nil {
		return nil, err
	}
	resp, err := a.tr.Call(ctx, server, msg)
	if err != nil {
		return nil, err
	}
	var pr wire.FetchProofResp
	if err := resp.Decode(&pr); err != nil {
		return nil, err
	}
	return &pr, nil
}

// ownersOf resolves the owner of an item into a finding's server list.
func (a *Auditor) ownersOf(id txn.ItemID) []identity.NodeID {
	if owner, ok := a.dir.Owner(id); ok {
		return []identity.NodeID{owner}
	}
	return nil
}

// implicated builds the server list for a finding, appending the designated
// coordinator when block production itself is suspect.
func (a *Auditor) implicated(ids []identity.NodeID, withCoordinator bool) []identity.NodeID {
	out := append([]identity.NodeID(nil), ids...)
	if withCoordinator && a.coord != "" {
		seen := false
		for _, id := range out {
			if id == a.coord {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, a.coord)
		}
	}
	return out
}
