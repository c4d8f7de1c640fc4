// Package watch implements the continuous integrity watchtower: a daemon
// that turns the paper's *offline* audit (§4.2.2) into a streaming,
// always-on property.
//
// The offline auditor (internal/audit) fetches every server's full log,
// replays it from genesis and interrogates datastores after the fact; its
// findings arrive whenever someone bothers to run it. The watchtower
// closes the window between fault and detection:
//
//   - Tail + re-verify. It pages full committed blocks from a server
//     (wire.FetchBlocksReq — blocks are self-authenticating, so the source
//     needs no trust), re-verifies each block's chain position, collective
//     signature of the full server set, and txns-hash, and feeds it to a
//     streaming audit.Replayer: the incremental analogue of the
//     from-genesis replay, maintaining a verified shadow state and
//     emitting Lemma 1/3 findings the moment the offending block is
//     tailed. The replayer's checkpoint is exposed (Checkpoint) so a full
//     offline audit can resume from it instead of genesis.
//
//   - Probe headers. Each poll it re-fetches the newest header from every
//     server and compares it against the hash of the block it already
//     verified — a server serving forged headers to light clients
//     (TamperHeaders) is caught even though its block stream is honest.
//
//   - Sample reads. With probability SampleRate per server per poll it
//     issues a proof-carrying verified read for a random item of the
//     server's shard (preferring items whose authoritative value the
//     shadow state knows) and verifies the response against its own
//     verified chain. A failed fold is classified with a follow-up
//     Verification Object fetch: a VO that no longer folds to the
//     co-signed root is datastore corruption (Lemma 2); a VO that still
//     folds means the read itself lied (Lemma 1).
//
// Every finding carries a portable wire.EvidenceBundle that a third party
// re-verifies offline with zero trust in the watchtower (VerifyBundle,
// surfaced as `fides-client -verify-bundle`). Progress and findings are
// reported as fides_watch_* metric families through internal/obs, with
// threshold alert rules evaluated in-process and served as an integrity
// SLO document on /integrity (Handler).
package watch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/lightclient"
	"repro/internal/merkle"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// FindingType classifies watchtower findings. Replay-derived findings pass
// through the audit package's type strings unchanged (incorrect-read,
// stale-timestamp, serializability-violation, tampered-log, ...); the
// serving-path types below are the watchtower's own.
type FindingType string

const (
	// FindingTamperedChain: a block served on the tail stream failed
	// re-verification (chain position, signer set, or collective
	// signature) — the tail source is lying or corrupted.
	FindingTamperedChain FindingType = "tampered-chain"
	// FindingTamperedHeader: a server served a header that differs from
	// the co-signed block the watchtower already verified at that height.
	FindingTamperedHeader FindingType = "tampered-header"
	// FindingBadProof: a sampled verified read carried a proof that does
	// not fit the shard layout (forged indices, wrong depth, wrong items).
	FindingBadProof FindingType = "bad-proof"
	// FindingIncorrectRead: a sampled verified read returned values that
	// fail to reproduce the committed shard root, while the server's own
	// VO still folds — the serving path lied about the value (Lemma 1,
	// online). The same string also arrives via log replay.
	FindingIncorrectRead FindingType = "incorrect-read"
	// FindingDatastoreCorruption: the follow-up VO no longer folds to the
	// co-signed root — the server's datastore diverged from the committed
	// state (Lemma 2, online).
	FindingDatastoreCorruption FindingType = "datastore-corruption"
)

// Finding is one detected integrity violation, with the evidence bundle
// that lets anyone re-verify it offline.
type Finding struct {
	Type FindingType
	// Servers are the accused server(s).
	Servers []identity.NodeID
	// Height anchors the finding in the chain.
	Height uint64
	// TxnID and Item locate the finding, when applicable.
	TxnID string
	Item  txn.ItemID
	// Detail is a human-readable explanation.
	Detail string
	// Poll is the poll index (from 0) at which the finding fired;
	// DetectPolls is the number of polls between the evidence becoming
	// observable to the watchtower and the finding firing (the
	// time-to-detection bound the sim asserts).
	Poll        uint64
	DetectPolls uint64
	// Bundle is the portable evidence (nil only if bundling failed).
	Bundle *wire.EvidenceBundle
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("%s at height %d accusing %v: %s", f.Type, f.Height, f.Servers, f.Detail)
}

// Config assembles a watchtower.
type Config struct {
	// PeerConfig is the shared peer wiring: registry, transport, server
	// set, tail source (rotates automatically when it serves a bad
	// block), coordinator (implicated alongside owners in replay
	// findings), tail page size (default 256) and the verification plane.
	peer.PeerConfig

	// Layout is the item→server directory and shard layout (also the
	// audit directory for the streaming replay).
	Layout lightclient.Layout
	// SampleRate is the per-server, per-poll probability of a sampled
	// verified read (0 disables sampling; 1 samples every server every
	// poll).
	SampleRate float64
	// SampleSeed seeds the sampling RNG (deterministic sims pin it).
	SampleSeed int64
	// MaxLag is the verified-height lag (tip − verified) above which the
	// verified_lag alert fires (default 16).
	MaxLag uint64
	// Resume restarts the streaming replay from a previously persisted
	// checkpoint instead of genesis.
	Resume *audit.Checkpoint
	// Now supplies the clock (default time.Now).
	Now func() time.Time
}

// Watchtower is the continuous auditor. All methods are safe for
// concurrent use; Poll cycles are serialized.
type Watchtower struct {
	reg        *identity.Registry
	tr         transport.Transport
	layout     lightclient.Layout
	servers    []identity.NodeID
	coord      identity.NodeID
	pageSize   uint32
	chain      *ledger.ChainVerifier
	sampleRate float64
	maxLag     uint64
	now        func() time.Time
	o          *obs.Obs

	mu       sync.Mutex
	rng      *rand.Rand
	source   int // index into servers of the current tail source
	rp       *audit.Replayer
	base     uint64          // height of blocks[0]
	blocks   []*ledger.Block // verified blocks since start (replay evidence)
	poll     []uint64        // poll index at which blocks[i] was verified
	prevHash []byte
	tip      uint64 // highest tip any server reported
	// rootHeights holds the ascending heights carrying a root, per server,
	// over the verified chain (the sampled-read freshness reference).
	rootHeights map[identity.NodeID][]uint64
	pollStarts  []time.Time
	findings    []Finding
	seen        map[string]struct{} // serving-path finding dedup
	sampled     uint64

	verifiedHeightG *obs.Gauge
	tipHeightG      *obs.Gauge
	lagG            *obs.Gauge
	alertsFiringG   *obs.Gauge
	blocksVerifiedC *obs.Counter
	pollsC          *obs.Counter
	pollSecondsH    *obs.Histogram
	detectionH      *obs.Histogram
	sampleOutcomes  map[string]*obs.Counter
}

// New creates a watchtower. It performs no I/O; the first Poll does.
func New(cfg Config) (*Watchtower, error) {
	if cfg.Layout == nil {
		return nil, errors.New("watch: config requires registry, transport and layout")
	}
	if err := cfg.Validate("watch"); err != nil {
		return nil, err
	}
	cfg.ApplyDefaults(256)
	maxLag := cfg.MaxLag
	if maxLag == 0 {
		maxLag = 16
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	o := cfg.Obs
	w := &Watchtower{
		reg:         cfg.Registry,
		tr:          cfg.Transport,
		layout:      cfg.Layout,
		servers:     append([]identity.NodeID(nil), cfg.Servers...),
		coord:       cfg.Coordinator,
		pageSize:    cfg.PageSize,
		chain:       ledger.NewChainVerifier(cfg.Servers, cfg.Verifier),
		sampleRate:  cfg.SampleRate,
		maxLag:      maxLag,
		now:         now,
		o:           o,
		rng:         rand.New(rand.NewSource(cfg.SampleSeed)),
		rootHeights: make(map[identity.NodeID][]uint64),
		seen:        make(map[string]struct{}),

		verifiedHeightG: o.Gauge("fides_watch_verified_height", "Height up to which the watchtower has re-verified and replayed the chain."),
		tipHeightG:      o.Gauge("fides_watch_tip_height", "Highest chain height any server reports."),
		lagG:            o.Gauge("fides_watch_lag_blocks", "Verified-height lag behind the reported tip (the freshness SLO)."),
		alertsFiringG:   o.Gauge("fides_watch_alerts_firing", "Alert rules currently firing."),
		blocksVerifiedC: o.Counter("fides_watch_blocks_verified_total", "Blocks re-verified (chain position, co-sign, txns-hash) and replayed."),
		pollsC:          o.Counter("fides_watch_polls_total", "Completed watchtower poll cycles."),
		pollSecondsH:    o.Histogram("fides_watch_poll_seconds", "Wall time of one poll cycle (tail, probes, samples, alerts).", nil),
		detectionH:      o.Histogram("fides_watch_detection_seconds", "Time from evidence first observable to finding fired.", nil),
		sampleOutcomes:  make(map[string]*obs.Counter, 4),
	}
	for _, outcome := range []string{"ok", "stale", "unverifiable", "finding", "error"} {
		w.sampleOutcomes[outcome] = o.Counter("fides_watch_sampled_reads_total", "Sampled proof-carrying verified reads by outcome.", obs.L("outcome", outcome))
	}
	if src := cfg.Source; src != "" {
		for i, id := range w.servers {
			if id == src {
				w.source = i
			}
		}
	}
	if cp := cfg.Resume; cp != nil {
		w.rp = audit.ResumeReplayer(cfg.Layout, cfg.Coordinator, cp)
		w.base = cp.Height
		w.prevHash = append([]byte(nil), cp.Hash...)
	} else {
		w.rp = audit.NewReplayer(cfg.Layout, cfg.Coordinator)
	}
	return w, nil
}

// Tip is the highest chain height any server has reported.
func (w *Watchtower) Tip() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tip
}

// Findings returns a copy of all findings so far.
func (w *Watchtower) Findings() []Finding {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Finding(nil), w.findings...)
}

// Checkpoint returns the streaming replay's verified checkpoint: the resume
// point for both a restarted watchtower (Config.Resume) and a full offline
// audit (audit.Options.Resume).
func (w *Watchtower) Checkpoint() *audit.Checkpoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rp.Checkpoint()
}

// Run polls at the given interval until the context is done.
func (w *Watchtower) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := w.Poll(ctx); err != nil {
			w.o.Log().Warn("watch: poll failed", "err", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Poll runs one watch cycle: tail and re-verify new blocks through the
// streaming replay, probe every server's served headers against the
// verified chain, issue sampled verified reads, and re-evaluate alert
// rules. Findings are recorded (see Findings), not returned as errors; the
// returned error reports transport-level failures only.
func (w *Watchtower) Poll(ctx context.Context) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.now()
	w.pollStarts = append(w.pollStarts, start)

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(w.tailLocked(ctx))
	keep(w.probeHeadersLocked(ctx))
	keep(w.sampleReadsLocked(ctx))
	w.updateSLOLocked()
	w.pollsC.Inc()
	w.pollSecondsH.Observe(w.now().Sub(start).Seconds())
	return firstErr
}

// curPoll is the index of the poll in flight.
func (w *Watchtower) curPoll() uint64 { return uint64(len(w.pollStarts) - 1) }

// --- tail + streaming replay ---

// tailLocked pages new blocks from the current source up to its tip,
// re-verifying and replaying each.
func (w *Watchtower) tailLocked(ctx context.Context) error {
	for {
		src := w.servers[w.source]
		from := w.base + uint64(len(w.blocks))
		req := &wire.FetchBlocksReq{From: from, Max: w.pageSize}
		msg, err := transport.NewMessage(wire.MsgFetchBlocks, req)
		if err != nil {
			return err
		}
		resp, err := w.tr.Call(ctx, src, msg)
		if err != nil {
			// Rotate so a crashed source does not stall the tail forever.
			w.source = (w.source + 1) % len(w.servers)
			return fmt.Errorf("watch: fetch blocks from %s: %w", src, err)
		}
		var br wire.FetchBlocksResp
		if err := resp.Decode(&br); err != nil {
			return err
		}
		if br.Tip > w.tip {
			w.tip = br.Tip
		}
		if len(br.Blocks) == 0 {
			return nil
		}
		for i, b := range br.Blocks {
			want := from + uint64(i)
			if err := w.chain.Entry(want, w.prevHash, b, nil); err != nil {
				w.emitChainFindingLocked(src, b, want, err)
				w.source = (w.source + 1) % len(w.servers)
				return nil
			}
			w.acceptBlockLocked(b)
		}
		if w.base+uint64(len(w.blocks)) >= br.Tip {
			return nil
		}
	}
}

// acceptBlockLocked appends a verified block and replays it, converting
// replay findings.
func (w *Watchtower) acceptBlockLocked(b *ledger.Block) {
	w.blocks = append(w.blocks, b)
	w.poll = append(w.poll, w.curPoll())
	w.prevHash = b.Hash()
	for srv := range b.Roots {
		w.rootHeights[srv] = append(w.rootHeights[srv], b.Height)
	}
	w.blocksVerifiedC.Inc()
	for _, af := range w.rp.Step(b) {
		h := uint64(0)
		if af.Height >= 0 {
			h = uint64(af.Height)
		}
		f := Finding{
			Type:    FindingType(af.Type),
			Servers: af.Servers,
			Height:  h,
			TxnID:   af.TxnID,
			Item:    af.Item,
			Detail:  af.Detail,
		}
		f.Bundle = w.replayBundleLocked(f)
		w.emitLocked(f, w.curPoll())
	}
}

// --- header probes ---

// probeHeadersLocked fetches the newest header from every server and
// cross-checks it against the block already verified at that height.
func (w *Watchtower) probeHeadersLocked(ctx context.Context) error {
	if len(w.blocks) == 0 {
		return nil
	}
	last := w.blocks[len(w.blocks)-1]
	var firstErr error
	for _, srv := range w.servers {
		req := &wire.FetchHeadersReq{From: last.Height, Max: 1}
		msg, err := transport.NewMessage(wire.MsgFetchHeaders, req)
		if err != nil {
			return err
		}
		resp, err := w.tr.Call(ctx, srv, msg)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("watch: probe headers at %s: %w", srv, err)
			}
			continue
		}
		var hr wire.FetchHeadersResp
		if err := resp.Decode(&hr); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if len(hr.Headers) == 0 || hr.Headers[0] == nil {
			continue // the server is simply behind; the lag SLO covers it
		}
		served := hr.Headers[0]
		anchor := last.Header()
		if served.Height == anchor.Height && bytes.Equal(served.Hash(), anchor.Hash()) {
			continue
		}
		w.emitLocked(Finding{
			Type:    FindingTamperedHeader,
			Servers: []identity.NodeID{srv},
			Height:  anchor.Height,
			Detail: fmt.Sprintf("header served by %s at height %d does not match the co-signed block the watchtower verified",
				srv, anchor.Height),
			Bundle: &wire.EvidenceBundle{
				Kind:      string(FindingTamperedHeader),
				Accused:   []identity.NodeID{srv},
				Height:    anchor.Height,
				Anchor:    anchor,
				BadHeader: served,
			},
		}, w.poll[len(w.poll)-1])
	}
	return firstErr
}

// --- sampled verified reads ---

// sampleReadsLocked issues a proof-carrying read against each server with
// probability sampleRate and verifies the response against the verified
// chain, classifying failures with a follow-up VO fetch.
func (w *Watchtower) sampleReadsLocked(ctx context.Context) error {
	if w.sampleRate <= 0 || len(w.blocks) == 0 {
		return nil
	}
	var firstErr error
	for _, srv := range w.servers {
		if w.rng.Float64() >= w.sampleRate {
			continue
		}
		if len(w.rootHeights[srv]) == 0 {
			continue // nothing committed for this shard yet
		}
		id, ok := w.sampleItemLocked(srv)
		if !ok {
			continue
		}
		if err := w.sampleOneLocked(ctx, srv, id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sampleItemLocked picks a random item of srv's shard, preferring items
// whose authoritative value the replay shadow state knows (those are the
// ones a lying server has something to lie about).
func (w *Watchtower) sampleItemLocked(srv identity.NodeID) (txn.ItemID, bool) {
	var pool []txn.ItemID
	for _, id := range w.rp.KnownItems() {
		if owner, ok := w.layout.Owner(id); ok && owner == srv {
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		pool = w.layout.ShardItems(srv)
	}
	if len(pool) == 0 {
		return "", false
	}
	return pool[w.rng.Intn(len(pool))], true
}

func (w *Watchtower) sampleOneLocked(ctx context.Context, srv identity.NodeID, id txn.ItemID) error {
	w.sampled++
	ids := []txn.ItemID{id}
	req := &wire.VerifiedReadReq{IDs: ids}
	msg, err := transport.NewMessage(wire.MsgVerifiedRead, req)
	if err != nil {
		return err
	}
	resp, err := w.tr.Call(ctx, srv, msg)
	if err != nil {
		w.sampleOutcomes["error"].Inc()
		return fmt.Errorf("watch: sampled read at %s: %w", srv, err)
	}
	var vr wire.VerifiedReadResp
	if err := resp.Decode(&vr); err != nil {
		w.sampleOutcomes["error"].Inc()
		return err
	}

	// Freshness against the verified chain. A response above the verified
	// tip is re-tailed once (the server may legitimately be ahead by a
	// block it applied moments ago).
	if vr.Height >= w.base+uint64(len(w.blocks)) {
		if err := w.tailLocked(ctx); err != nil {
			w.sampleOutcomes["error"].Inc()
			return err
		}
	}
	hs := w.rootHeights[srv]
	if len(hs) == 0 {
		w.sampleOutcomes["unverifiable"].Inc()
		return nil
	}
	latest := hs[len(hs)-1]
	if vr.Height != latest {
		// Superseded root: benign under write load (the sample raced a
		// commit); a persistent liar is caught by the log replay instead.
		w.sampleOutcomes["stale"].Inc()
		return nil
	}
	anchor := w.blocks[latest-w.base].Header()
	root, ok := anchor.Roots[srv]
	if !ok {
		w.sampleOutcomes["unverifiable"].Inc()
		return nil
	}

	verr := lightclient.CheckReadProof(w.layout, srv, ids, &vr, root)
	if verr == nil {
		w.sampleOutcomes["ok"].Inc()
		return nil
	}
	w.sampleOutcomes["finding"].Inc()

	f := Finding{
		Servers: []identity.NodeID{srv},
		Height:  latest,
		Item:    id,
	}
	bundle := &wire.EvidenceBundle{
		Accused: []identity.NodeID{srv},
		Height:  latest,
		Item:    id,
		Anchor:  anchor,
		ReadIDs: ids,
		Read:    &vr,
	}
	if errors.Is(verr, lightclient.ErrBadProof) {
		f.Type = FindingBadProof
		f.Detail = fmt.Sprintf("sampled read of %s at %s: %v", id, srv, verr)
	} else {
		// The values do not reproduce the committed root. Classify with a
		// follow-up VO: a VO that no longer folds to the co-signed root
		// convicts the datastore (Lemma 2); a VO that still folds proves
		// correct state exists, so the read itself lied (Lemma 1).
		f.Type = FindingIncorrectRead
		f.Detail = fmt.Sprintf("sampled read of %s at %s: %v", id, srv, verr)
		if pr, perr := w.fetchProofLocked(ctx, srv, id); perr == nil {
			bundle.Proof = pr
			folded := merkle.RootFromProof(merkle.LeafHash(pr.LeafContent), pr.Proof)
			if !bytes.Equal(folded, root) {
				f.Type = FindingDatastoreCorruption
				f.Detail = fmt.Sprintf("VO for %s at %s folds to a root that is not the co-signed root at height %d",
					id, srv, latest)
			}
		}
	}
	bundle.Kind = string(f.Type)
	bundle.Detail = f.Detail
	f.Bundle = bundle
	w.emitLocked(f, w.poll[latest-w.base])
	return nil
}

func (w *Watchtower) fetchProofLocked(ctx context.Context, srv identity.NodeID, id txn.ItemID) (*wire.FetchProofResp, error) {
	msg, err := transport.NewMessage(wire.MsgFetchProof, &wire.FetchProofReq{ID: id})
	if err != nil {
		return nil, err
	}
	resp, err := w.tr.Call(ctx, srv, msg)
	if err != nil {
		return nil, err
	}
	pr := new(wire.FetchProofResp)
	if err := resp.Decode(pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// --- findings, bundles, alerts ---

// replayBundleLocked builds the evidence bundle for a replay finding: the
// contiguous co-signed block range from the watchtower's start through the
// offending height. Replaying it reproduces the finding (the range
// baselines the item state before exhibiting the violation). A watchtower
// resumed from a checkpoint bundles only blocks since the checkpoint.
func (w *Watchtower) replayBundleLocked(f Finding) *wire.EvidenceBundle {
	if f.Height < w.base || f.Height >= w.base+uint64(len(w.blocks)) {
		return nil
	}
	return &wire.EvidenceBundle{
		Kind:    string(f.Type),
		Accused: f.Servers,
		Height:  f.Height,
		Item:    f.Item,
		TxnID:   f.TxnID,
		Detail:  f.Detail,
		Blocks:  append([]*ledger.Block(nil), w.blocks[:f.Height-w.base+1]...),
	}
}

// emitChainFindingLocked records a bad block on the tail stream.
func (w *Watchtower) emitChainFindingLocked(src identity.NodeID, b *ledger.Block, want uint64, verr error) {
	f := Finding{
		Type:    FindingTamperedChain,
		Servers: []identity.NodeID{src},
		Height:  want,
		Detail:  fmt.Sprintf("block served by %s failed re-verification: %v", src, verr),
	}
	bundle := &wire.EvidenceBundle{
		Kind:    string(FindingTamperedChain),
		Accused: []identity.NodeID{src},
		Height:  want,
		Detail:  f.Detail,
	}
	if b != nil {
		bundle.BadHeader = b.Header()
	}
	if len(w.blocks) > 0 {
		bundle.Anchor = w.blocks[len(w.blocks)-1].Header()
	}
	f.Bundle = bundle
	w.emitLocked(f, w.curPoll())
}

// emitLocked records a finding. Serving-path findings are deduplicated by
// (type, servers, item) — a server that keeps serving the same forgery is
// one ongoing violation, not one per poll. evPoll is the poll at which the
// evidence first became observable; the gap to the current poll is the
// detection latency.
func (w *Watchtower) emitLocked(f Finding, evPoll uint64) {
	switch f.Type {
	case FindingTamperedChain, FindingTamperedHeader, FindingBadProof, FindingIncorrectRead, FindingDatastoreCorruption:
		key := fmt.Sprintf("%s|%v|%s|%s", f.Type, f.Servers, f.Item, f.TxnID)
		if _, dup := w.seen[key]; dup {
			return
		}
		w.seen[key] = struct{}{}
	}
	f.Poll = w.curPoll()
	if evPoll <= f.Poll {
		f.DetectPolls = f.Poll - evPoll
	}
	w.findings = append(w.findings, f)
	if int(evPoll) < len(w.pollStarts) {
		w.detectionH.Observe(w.now().Sub(w.pollStarts[evPoll]).Seconds())
	}
	for _, srv := range f.Servers {
		w.o.Counter("fides_watch_findings_total", "Integrity findings by type and accused server.",
			obs.L("type", string(f.Type)), obs.L("server", string(srv))).Inc()
	}
	w.o.Log().Error("watch: integrity finding",
		"type", string(f.Type), "height", f.Height, "servers", fmt.Sprintf("%v", f.Servers), "detail", f.Detail)
}

// alertsLocked evaluates the in-process alert rules.
func (w *Watchtower) alertsLocked() []wire.IntegrityAlert {
	var out []wire.IntegrityAlert
	verified := w.base + uint64(len(w.blocks))
	if w.tip > verified && w.tip-verified > w.maxLag {
		out = append(out, wire.IntegrityAlert{
			Rule:     "verified_lag",
			Severity: "warning",
			Message:  fmt.Sprintf("verified height %d lags tip %d by more than %d blocks", verified, w.tip, w.maxLag),
		})
	}
	if n := len(w.findings); n > 0 {
		out = append(out, wire.IntegrityAlert{
			Rule:     "findings",
			Severity: "critical",
			Message:  fmt.Sprintf("%d integrity finding(s); newest: %s", n, w.findings[n-1].String()),
		})
	}
	return out
}

// updateSLOLocked refreshes the gauges after a poll.
func (w *Watchtower) updateSLOLocked() {
	verified := w.base + uint64(len(w.blocks))
	w.verifiedHeightG.Set(int64(verified))
	w.tipHeightG.Set(int64(w.tip))
	lag := uint64(0)
	if w.tip > verified {
		lag = w.tip - verified
	}
	w.lagG.Set(int64(lag))
	w.alertsFiringG.Set(int64(len(w.alertsLocked())))
}

// Status assembles the integrity SLO document served on /integrity.
func (w *Watchtower) Status() wire.IntegrityStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	verified := w.base + uint64(len(w.blocks))
	lag := uint64(0)
	if w.tip > verified {
		lag = w.tip - verified
	}
	alerts := w.alertsLocked()
	return wire.IntegrityStatus{
		Watcher:        w.tr.Self(),
		Tip:            w.tip,
		Verified:       verified,
		Lag:            lag,
		BlocksVerified: uint64(len(w.blocks)),
		SampledReads:   w.sampled,
		Findings:       uint64(len(w.findings)),
		Alerts:         alerts,
		Healthy:        len(alerts) == 0,
	}
}

// Handler serves Status as JSON (mounted on /integrity).
func (w *Watchtower) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		st := w.Status()
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}
