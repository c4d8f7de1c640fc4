// Package lightclient implements a client-side verifier that makes read
// integrity an *online* property of Fides instead of an audit-time one.
//
// The paper's trust model (§3.3, Lemma 1) detects an incorrect read only
// when an auditor later replays the logs; a client serving live traffic
// gets no integrity guarantee at read time, even though every shard root
// is already committed in a co-signed block. The light client closes that
// gap with two pieces:
//
//  1. Header sync. Every block's collectively signed portion is its
//     header (ledger.Header): constant-size, hash-chained, and carrying
//     the Merkle roots of all involved shards. The light client pages
//     headers from any server (wire.FetchHeadersReq), verifies the CoSi
//     signature of the full server set and the hash chain on each, and
//     caches them. Sync is resumable from any trusted height, so a
//     restarting client needs only a checkpoint ⟨height, hash⟩, not the
//     transaction history.
//
//  2. Proof-carrying reads. A verified read (wire.VerifiedReadReq)
//     returns value + timestamps + a batched Merkle proof + the block
//     height whose committed shard root authenticates them. The client
//     recomputes the leaf from the returned value and folds the proof up
//     to the root recorded in its header cache. A stale value, a forged
//     proof, or a forged header each fail a distinct check — the
//     StaleReads fault of paper §5 Scenario 1 is caught at read time,
//     not at the next audit.
//
// Because verification needs only headers and the static shard layout,
// untrusting readers scale independently of the commit path: any number
// of light clients can verify reads against any server without adding a
// byte to TFCommit's critical path.
package lightclient

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// Layout resolves the static shard layout: which server stores an item and
// which items a server stores (in unspecified order; the light client
// derives the canonical Merkle leaf order itself). core.Directory and
// deploy descriptors implement it.
type Layout interface {
	Owner(id txn.ItemID) (identity.NodeID, bool)
	ShardItems(srv identity.NodeID) []txn.ItemID
}

// Config assembles a light client. The shared peer wiring — registry,
// transport, server set, header-sync source, page size (default 512) and
// the collective-signature verification plane — is the embedded
// peer.PeerConfig.
type Config struct {
	peer.PeerConfig

	// Layout is the item→server directory and shard layout.
	Layout Layout

	// CheckpointHeight/CheckpointHash resume the header chain from a
	// trusted checkpoint: the hash of the block at CheckpointHeight,
	// obtained out of band (e.g. from a previous run of this client).
	// Headers are then synced from CheckpointHeight+1 and roots committed
	// at or below the checkpoint are unknown to the client. A nil hash
	// means a cold sync from height 0.
	CheckpointHeight uint64
	CheckpointHash   []byte
}

// Verification errors. Each names the check that failed, so a caller (or
// test) can tell a stale value from a forged proof from a forged header.
var (
	// ErrBadHeader: a synced header failed verification — broken hash
	// chain, wrong or incomplete signer set, or an invalid collective
	// signature. The header source is lying or corrupted.
	ErrBadHeader = errors.New("lightclient: header failed verification")
	// ErrStaleRead: the response authenticates against a superseded shard
	// root — the server served old state as if it were current.
	ErrStaleRead = errors.New("lightclient: read served against a superseded shard root")
	// ErrBadProof: the proof does not fit the shard layout — wrong leaf
	// indices, wrong tree depth, wrong item set, or a height that carries
	// no root for the shard's owner.
	ErrBadProof = errors.New("lightclient: proof does not match the shard layout")
	// ErrIncorrectRead: the returned values fail to reproduce the
	// committed root — the online form of the auditor's
	// FindingIncorrectRead (Lemma 1).
	ErrIncorrectRead = errors.New("lightclient: value and proof do not reproduce the committed shard root")
	// ErrUnverifiable: the client's header cache holds no committed root
	// for the shard (nothing committed yet, or the root predates the
	// checkpoint).
	ErrUnverifiable = errors.New("lightclient: no committed root known for shard")
)

// shardLayout is the derived per-shard verification context: the canonical
// leaf index of every item and the Merkle tree depth, both computable from
// the static layout alone.
type shardLayout struct {
	idx   map[txn.ItemID]int
	depth int
}

// Client is a light client: a header-chain cache plus read verification.
// It is safe for concurrent use; many sessions may share one Client (and
// should, to share the header cache).
type Client struct {
	reg      *identity.Registry
	tr       transport.Transport
	layout   Layout
	servers  []identity.NodeID
	source   identity.NodeID
	pageSize uint32
	chain    *ledger.ChainVerifier

	mu          sync.RWMutex
	base        uint64 // height of headers[0]
	headers     []*ledger.Header
	prevHash    []byte                       // hash of the last cached header (checkpoint hash before first sync)
	rootHeights map[identity.NodeID][]uint64 // ascending heights carrying a root, per server
	shards      map[identity.NodeID]*shardLayout

	// Registry-backed counters; Stats() is a thin view over these.
	headersVerified *obs.Counter
	syncPages       *obs.Counter
	readsVerified   *obs.Counter
	staleRetries    *obs.Counter
	proofBytes      *obs.Histogram
}

// Stats counts the light client's work (read by fides-client -verify and
// the bench harness).
type Stats struct {
	// HeadersVerified counts headers accepted into the cache.
	HeadersVerified int
	// SyncPages counts FetchHeaders round trips.
	SyncPages int
	// ReadsVerified counts successfully verified items.
	ReadsVerified int
	// StaleRetries counts reads re-issued because the first response was
	// superseded while the client synced (a benign race under write load).
	StaleRetries int
}

// New creates a light client. With a checkpoint configured, the chain
// resumes from it; otherwise the first Sync cold-starts at height 0.
func New(cfg Config) (*Client, error) {
	if cfg.Layout == nil {
		return nil, errors.New("lightclient: config requires registry, transport and layout")
	}
	if err := cfg.Validate("lightclient"); err != nil {
		return nil, err
	}
	cfg.ApplyDefaults(512)
	o := cfg.Obs
	c := &Client{
		reg:         cfg.Registry,
		tr:          cfg.Transport,
		layout:      cfg.Layout,
		servers:     append([]identity.NodeID(nil), cfg.Servers...),
		source:      cfg.Source,
		pageSize:    cfg.PageSize,
		chain:       ledger.NewChainVerifier(cfg.Servers, cfg.Verifier),
		rootHeights: make(map[identity.NodeID][]uint64),
		shards:      make(map[identity.NodeID]*shardLayout),

		headersVerified: o.Counter("fides_lightclient_headers_verified_total", "Headers accepted into the light-client cache after co-sign and chain checks."),
		syncPages:       o.Counter("fides_lightclient_sync_pages_total", "FetchHeaders round trips."),
		readsVerified:   o.Counter("fides_lightclient_reads_verified_total", "Items whose values reproduced a committed shard root."),
		staleRetries:    o.Counter("fides_lightclient_stale_retries_total", "Verified reads re-issued because the first response was superseded mid-sync."),
		proofBytes:      o.Histogram("fides_lightclient_proof_bytes", "Verified-read Merkle proof size in bytes.", obs.SizeBuckets),
	}
	if cfg.CheckpointHash != nil {
		c.base = cfg.CheckpointHeight + 1
		c.prevHash = append([]byte(nil), cfg.CheckpointHash...)
	}
	return c, nil
}

// Stats returns a snapshot of the client's counters. It is a thin view
// over the registry-backed instruments that also feed /metrics
// (fides_lightclient_*).
func (c *Client) Stats() Stats {
	return Stats{
		HeadersVerified: int(c.headersVerified.Value()),
		SyncPages:       int(c.syncPages.Value()),
		ReadsVerified:   int(c.readsVerified.Value()),
		StaleRetries:    int(c.staleRetries.Value()),
	}
}

// SyncedHeight returns the exclusive upper bound of the cached chain (the
// height the next header would have); 0 before any sync on a cold start.
func (c *Client) SyncedHeight() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base + uint64(len(c.headers))
}

// Checkpoint returns the trusted resume point of the current cache: the
// height and hash of the newest verified header. A future client
// constructed with this checkpoint continues the chain without re-syncing
// history. ok is false before anything was verified.
func (c *Client) Checkpoint() (height uint64, hash []byte, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.headers) == 0 {
		return 0, nil, false
	}
	last := c.headers[len(c.headers)-1]
	return last.Height, append([]byte(nil), c.prevHash...), true
}

// Header returns the cached header at a height (nil when outside the
// cache).
func (c *Client) Header(height uint64) *ledger.Header {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headerLocked(height)
}

func (c *Client) headerLocked(height uint64) *ledger.Header {
	if height < c.base || height >= c.base+uint64(len(c.headers)) {
		return nil
	}
	return c.headers[height-c.base]
}

// LatestRootHeight returns the newest cached height at which srv committed
// a shard root (ok false when none is known).
func (c *Client) LatestRootHeight(srv identity.NodeID) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.latestRootLocked(srv, ^uint64(0))
}

// latestRootLocked returns the newest root height for srv at or below max.
func (c *Client) latestRootLocked(srv identity.NodeID, max uint64) (uint64, bool) {
	hs := c.rootHeights[srv]
	i := sort.Search(len(hs), func(i int) bool { return hs[i] > max })
	if i == 0 {
		return 0, false
	}
	return hs[i-1], true
}

// Sync pages headers from the configured source until the cache reaches
// the source's tip, verifying each header's chain position, signer set and
// collective signature before accepting it. It returns the synced height.
// Sync never partially accepts a page: the first bad header aborts with
// ErrBadHeader and leaves the cache at the last verified height, so a
// retry against an honest source resumes exactly there.
func (c *Client) Sync(ctx context.Context) (uint64, error) {
	return c.SyncFrom(ctx, c.source)
}

// SyncFrom is Sync against an explicit header source.
func (c *Client) SyncFrom(ctx context.Context, src identity.NodeID) (uint64, error) {
	for {
		c.mu.RLock()
		from := c.base + uint64(len(c.headers))
		c.mu.RUnlock()

		req := &wire.FetchHeadersReq{From: from, Max: c.pageSize}
		msg, err := transport.NewMessage(wire.MsgFetchHeaders, req)
		if err != nil {
			return 0, err
		}
		resp, err := c.tr.Call(ctx, src, msg)
		if err != nil {
			return 0, fmt.Errorf("lightclient: fetch headers from %s: %w", src, err)
		}
		var hr wire.FetchHeadersResp
		if err := resp.Decode(&hr); err != nil {
			return 0, err
		}
		if len(hr.Headers) > 0 {
			if err := c.appendVerified(hr.Headers, from); err != nil {
				return 0, err
			}
		}
		synced := c.SyncedHeight()
		if len(hr.Headers) == 0 || synced >= hr.Tip {
			return synced, nil
		}
	}
}

// appendVerified verifies a page of headers starting at height from and
// appends them to the cache.
func (c *Client) appendVerified(page []*ledger.Header, from uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.base + uint64(len(c.headers)); got != from {
		// A concurrent sync advanced the cache; only the overlap needs
		// verification.
		if from > got {
			return fmt.Errorf("%w: page starts at %d, cache at %d", ErrBadHeader, from, got)
		}
		skip := got - from
		if skip >= uint64(len(page)) {
			return nil
		}
		page = page[skip:]
		from = got
	}
	for i, h := range page {
		if err := c.chain.Entry(from+uint64(i), c.prevHash, h, nil); err != nil {
			return fmt.Errorf("%w: %v", ErrBadHeader, err)
		}
		c.headers = append(c.headers, h)
		c.prevHash = h.Hash()
		for srv := range h.Roots {
			c.rootHeights[srv] = append(c.rootHeights[srv], h.Height)
		}
		c.headersVerified.Inc()
	}
	c.syncPages.Inc()
	return nil
}

// shardFor returns (building on first use) the verification context of a
// server's shard.
func (c *Client) shardFor(srv identity.NodeID) (*shardLayout, error) {
	c.mu.RLock()
	sl := c.shards[srv]
	c.mu.RUnlock()
	if sl != nil {
		return sl, nil
	}
	sl, err := buildShardLayout(c.layout, srv)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.shards[srv] = sl
	c.mu.Unlock()
	return sl, nil
}
