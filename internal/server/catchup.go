package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements decision recovery and cohort catch-up: the server
// side of the non-blocking phase 5 (see docs/protocol.md "Decision
// delivery, catch-up, and coordinator failover").
//
// The trust argument mirrors verified recovery (internal/durable): a block
// carrying a collective signature of the full server set is
// self-authenticating, so a server that missed a decision — a dropped
// phase-5 message, a coordinator that died mid-broadcast, or a crash that
// lost the WAL tail — can take the block from *any* peer, re-verify it
// through the ledger chain verifier (chain position, full signer set,
// co-sign over the txns-hash), and apply it through the normal commit
// path. No peer is trusted; the co-signed block is the decision.

// Paging bound for block transfer, in the spirit of the header-sync caps
// (readserve.go): one request must not pin a frame arbitrarily long.
const (
	// MaxBlocksPerFetch caps one block page; FetchBlocksReq.Max above it
	// is clamped, zero selects DefaultBlocksPerFetch.
	MaxBlocksPerFetch = 256
	// DefaultBlocksPerFetch is the page size when the request leaves Max
	// unset.
	DefaultBlocksPerFetch = 64
)

// Catch-up timing defaults.
const (
	// DefaultCatchupGrace is how long a stalled vote waits for the
	// in-flight decision to arrive on its own before asking peers. Under
	// pipelining a retried decision normally lands within milliseconds, so
	// the grace keeps the ask path off the wire unless delivery really
	// failed.
	DefaultCatchupGrace = 250 * time.Millisecond
	// DefaultCatchupBudget bounds one vote-path catch-up wait when the
	// server has no VoteLookahead configured (the serial commit path).
	DefaultCatchupBudget = 2 * time.Second
)

// CatchupConfig wires a server into the cluster's catch-up mesh. It is
// installed after construction (EnableCatchup) because the server's own
// transport endpoint — through which it reaches its peers — is created
// around the server itself.
type CatchupConfig struct {
	// Transport reaches the peer servers.
	Transport transport.Transport
	// Servers lists the cluster's servers, this one included; catch-up
	// asks the others.
	Servers []identity.NodeID
	// Grace overrides DefaultCatchupGrace when positive.
	Grace time.Duration
	// Budget overrides DefaultCatchupBudget when positive.
	Budget time.Duration
}

// catchupState is the installed form of CatchupConfig.
type catchupState struct {
	tr     transport.Transport
	peers  []identity.NodeID // sorted, self excluded
	grace  time.Duration
	budget time.Duration
}

// EnableCatchup installs the catch-up configuration. Until it is called
// the server behaves as before this subsystem existed: a vote announcement
// beyond the log either waits out the lookahead or is rejected.
func (s *Server) EnableCatchup(cfg CatchupConfig) error {
	if cfg.Transport == nil || len(cfg.Servers) == 0 {
		return errors.New("server: catch-up requires a transport and the server set")
	}
	servers := append([]identity.NodeID(nil), cfg.Servers...)
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	peers := make([]identity.NodeID, 0, len(servers)-1)
	for _, id := range servers {
		if id != s.ident.ID {
			peers = append(peers, id)
		}
	}
	cu := &catchupState{
		tr:     cfg.Transport,
		peers:  peers,
		grace:  cfg.Grace,
		budget: cfg.Budget,
	}
	if cu.grace <= 0 {
		cu.grace = DefaultCatchupGrace
	}
	if cu.budget <= 0 {
		cu.budget = DefaultCatchupBudget
	}
	s.mu.Lock()
	s.cu = cu
	s.mu.Unlock()
	return nil
}

// catchupCfg returns the installed catch-up state, nil if disabled.
func (s *Server) catchupCfg() *catchupState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cu
}

// StartResolver launches a background goroutine that periodically runs
// ResolvePending, so a server that fell behind heals itself without
// waiting for the next vote announcement to stall. It returns a stop
// function. Real deployments run it; the deterministic simulator instead
// drives ResolvePending explicitly so traces stay reproducible.
func (s *Server) StartResolver(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				// Best-effort: peers may be down; the next tick retries.
				_, _ = s.ResolvePending(ctx)
				cancel()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// --- serving side (any server answers; the block authenticates itself) ---

// handleAskDecision serves the co-signed block at one height, plus this
// server's log length so the asker learns how far behind it is.
func (s *Server) handleAskDecision(req *wire.AskDecisionReq) (*wire.AskDecisionResp, error) {
	resp := &wire.AskDecisionResp{Tip: uint64(s.log.Len())}
	// Logged blocks are immutable once appended; serving them shared is
	// safe because the transport encodes the response before returning.
	if b, err := s.log.Get(req.Height); err == nil {
		resp.Block = b
	}
	return resp, nil
}

// handleFetchBlocks serves a page of full committed blocks for cohort
// state transfer.
func (s *Server) handleFetchBlocks(req *wire.FetchBlocksReq) (*wire.FetchBlocksResp, error) {
	max := int(req.Max)
	if max <= 0 {
		max = DefaultBlocksPerFetch
	}
	if max > MaxBlocksPerFetch {
		max = MaxBlocksPerFetch
	}
	tip := uint64(s.log.Len())
	resp := &wire.FetchBlocksResp{Tip: tip}
	for h := req.From; h < tip && len(resp.Blocks) < max; h++ {
		b, err := s.log.Get(h)
		if err != nil {
			break
		}
		resp.Blocks = append(resp.Blocks, b)
	}
	return resp, nil
}

// --- asking side ---

// awaitHeight parks a vote announcement for height h until the log has
// grown to it. It first waits passively (the retried decision usually
// arrives on its own); once a grace slice times out it actively pulls the
// missing blocks from peers — ErrWaitTimeout triggers catch-up instead of
// bubbling a spurious out-of-sequence error to the client.
func (s *Server) awaitHeight(ctx context.Context, h uint64) error {
	cu := s.catchupCfg()
	if cu == nil {
		// Catch-up disabled: the original pipelined lookahead behavior.
		return s.log.WaitLen(ctx, h, s.lookahead)
	}
	budget := s.lookahead
	if budget <= 0 {
		budget = cu.budget
	}
	deadline := time.Now().Add(budget)
	recovered := false
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("%w: waited for height %d, log at %d", ledger.ErrWaitTimeout, h, s.log.Len())
		}
		slice := cu.grace
		if slice > remain {
			slice = remain
		}
		err := s.log.WaitLen(ctx, h, slice)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ledger.ErrWaitTimeout) {
			return err
		}
		// The decisions below h are overdue: lost in delivery, or their
		// coordinator died after co-sign. Any peer that holds them can
		// supply them — the blocks authenticate themselves.
		n, _ := s.catchUpTo(ctx, h)
		if n > 0 && !recovered {
			recovered = true
			s.mu.Lock()
			s.wedgeRecoveries.Inc()
			s.mu.Unlock()
		}
		// On no progress keep waiting: peers may be equally behind (the
		// round may still resolve as an abort, or the decision may simply
		// be slow) until the budget runs out.
	}
}

// catchUpTo pulls verified blocks from peers until the log reaches target.
// It returns the number of blocks applied.
func (s *Server) catchUpTo(ctx context.Context, target uint64) (int, error) {
	cu := s.catchupCfg()
	if cu == nil {
		return 0, errors.New("server: catch-up not configured")
	}
	applied := 0
	var lastErr error
	for _, peer := range cu.peers {
		if uint64(s.log.Len()) >= target {
			break
		}
		n, err := s.pullFromPeer(ctx, cu, peer, target)
		applied += n
		if err != nil {
			lastErr = err
		}
	}
	if uint64(s.log.Len()) >= target {
		return applied, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("server %s: no peer supplied blocks up to height %d", s.ident.ID, target)
	}
	return applied, lastErr
}

// ResolvePending makes one synchronous pass at resolving stalled state: it
// asks each peer for the block at this server's next height, applies
// whatever verified blocks come back, and pages the rest of the suffix
// from any peer whose tip is ahead. A stale inflight round below the new
// tip resolves as a side effect — the co-signed block at its height *is*
// the decision; a round that never reached co-sign left nothing to fetch
// and is superseded by the next announcement at that height (abort
// resolution). It returns the number of blocks applied.
func (s *Server) ResolvePending(ctx context.Context) (int, error) {
	cu := s.catchupCfg()
	if cu == nil {
		return 0, nil
	}
	applied := 0
	var lastErr error
	for _, peer := range cu.peers {
		resp, err := s.askDecision(ctx, cu, peer, uint64(s.log.Len()))
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Block != nil {
			fresh, err := s.applyFetched(resp.Block)
			if err != nil {
				lastErr = err
				continue
			}
			if fresh {
				applied++
			}
		}
		if tip := resp.Tip; tip > uint64(s.log.Len()) {
			n, err := s.pullFromPeer(ctx, cu, peer, tip)
			applied += n
			if err != nil {
				lastErr = err
			}
		}
	}
	return applied, lastErr
}

// pullFromPeer pages blocks [log.Len(), target) from one peer, verifying
// and applying each. The single-height gap — the common wedge after a lost
// decision — goes through ask_decision; larger gaps (a server that
// recovered behind the cluster tip) page through fetch_blocks.
func (s *Server) pullFromPeer(ctx context.Context, cu *catchupState, peer identity.NodeID, target uint64) (int, error) {
	applied := 0
	for {
		from := uint64(s.log.Len())
		if from >= target {
			return applied, nil
		}
		if target-from == 1 {
			resp, err := s.askDecision(ctx, cu, peer, from)
			if err != nil {
				return applied, err
			}
			if resp.Block == nil {
				return applied, nil // this peer is behind too
			}
			fresh, err := s.applyFetched(resp.Block)
			if err != nil {
				return applied, err
			}
			if fresh {
				applied++
			}
			continue
		}
		max := target - from
		if max > MaxBlocksPerFetch {
			max = MaxBlocksPerFetch
		}
		resp, err := s.fetchBlocks(ctx, cu, peer, from, uint32(max))
		if err != nil {
			return applied, err
		}
		if len(resp.Blocks) == 0 {
			return applied, nil // this peer has nothing for us
		}
		progressed := false
		for _, b := range resp.Blocks {
			fresh, err := s.applyFetched(b)
			if err != nil {
				return applied, err
			}
			if fresh {
				applied++
				progressed = true
			}
		}
		if !progressed && uint64(s.log.Len()) <= from {
			return applied, nil
		}
	}
}

func (s *Server) askDecision(ctx context.Context, cu *catchupState, peer identity.NodeID, height uint64) (*wire.AskDecisionResp, error) {
	msg, err := transport.NewMessage(wire.MsgAskDecision, &wire.AskDecisionReq{Height: height})
	if err != nil {
		return nil, err
	}
	raw, err := cu.tr.Call(ctx, peer, msg)
	if err != nil {
		return nil, err
	}
	var resp wire.AskDecisionResp
	if err := raw.Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (s *Server) fetchBlocks(ctx context.Context, cu *catchupState, peer identity.NodeID, from uint64, max uint32) (*wire.FetchBlocksResp, error) {
	msg, err := transport.NewMessage(wire.MsgFetchBlocks, &wire.FetchBlocksReq{From: from, Max: max})
	if err != nil {
		return nil, err
	}
	raw, err := cu.tr.Call(ctx, peer, msg)
	if err != nil {
		return nil, err
	}
	var resp wire.FetchBlocksResp
	if err := raw.Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// applyFetched verifies a block obtained from an untrusted peer and, if it
// extends the log, applies it through the normal commit path: datastore
// update, root cross-check, log append (which persists to the WAL),
// verified-read caches, watermark, snapshot and buffer cleanup — the same
// effects a direct phase-5 decision has, so catch-up and live commits
// converge on identical state. fresh is false when the block was already
// applied (a concurrent answer for the same height won the race).
func (s *Server) applyFetched(b *ledger.Block) (fresh bool, err error) {
	if b == nil {
		return false, errors.New("server: catch-up: nil block")
	}
	if s.catchupCfg() == nil {
		return false, errors.New("server: catch-up not configured")
	}
	// Only commit decisions are ever logged; an "abort block" from a peer
	// is a fabrication however it is signed.
	if b.Decision != ledger.DecisionCommit {
		return false, fmt.Errorf("server %s: catch-up block %d is not a commit", s.ident.ID, b.Height)
	}
	// The block must chain onto this log at its height. The log only grows
	// and logged blocks never change, so a position checked here still
	// holds under the lock below. The chain check runs outside the server
	// lock, keeping the expensive co-sign verification off the commit
	// critical section.
	var prevHash []byte
	if b.Height > 0 {
		below, err := s.log.Get(b.Height - 1)
		if err != nil {
			return false, fmt.Errorf("%w: catch-up block %d, log length %d", ErrOutOfSequence, b.Height, s.log.Len())
		}
		prevHash = below.Hash()
	}
	if err := s.chain.Entry(b.Height, prevHash, b, nil); err != nil {
		return false, fmt.Errorf("%w: catch-up block %d: %v", ErrBadCoSig, b.Height, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Height < uint64(s.log.Len()) {
		logged, err := s.log.Get(b.Height)
		if err != nil {
			return false, err
		}
		if !bytes.Equal(logged.Hash(), b.Hash()) {
			return false, fmt.Errorf("server %s: catch-up block %d conflicts with the logged block", s.ident.ID, b.Height)
		}
		return false, nil
	}

	if accesses := durable.ShardAccesses(b, s.shard); len(accesses) > 0 {
		// Remember overwritten values for StaleReads parity with the live
		// apply path.
		for _, a := range accesses {
			for _, w := range a.Writes {
				if cur, err := s.shard.Get(w.ID); err == nil {
					s.prevValues[w.ID] = cur.Value
				}
			}
		}
		if err := s.shard.Apply(accesses); err != nil {
			return false, fmt.Errorf("server %s: catch-up apply block %d: %w", s.ident.ID, b.Height, err)
		}
		// The root cross-check verified recovery performs on the WAL:
		// after applying, the shard must hash to the root this server
		// co-signed into the block.
		if want, ok := b.Roots[s.ident.ID]; ok {
			if got := s.shard.Root(); !bytes.Equal(got, want) {
				return false, fmt.Errorf("server %s: catch-up block %d: shard root diverges from the co-signed root", s.ident.ID, b.Height)
			}
		}
	}
	if err := s.log.Append(b.Clone()); err != nil {
		return false, fmt.Errorf("server %s: catch-up append block %d: %w", s.ident.ID, b.Height, err)
	}
	s.cacheBlockLocked(b)
	if s.snap != nil {
		if err := s.snap.MaybeSnapshot(s.shard, b.Height, b.Hash()); err != nil {
			return false, fmt.Errorf("server %s: snapshot at block %d: %w", s.ident.ID, b.Height, err)
		}
	}
	s.lastCommitted = s.lastCommitted.Max(b.MaxTS())
	for i := range b.Txns {
		delete(s.buffers, b.Txns[i].TxnID)
	}
	if s.inflight != nil && s.inflight.height <= b.Height {
		// The fetched block resolves (or supersedes) the stalled round.
		s.inflight = nil
	}
	s.catchupBlocks.Inc()
	return true, nil
}
