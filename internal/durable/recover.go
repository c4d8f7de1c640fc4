package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/store"
	"repro/internal/txn"
)

// ErrTampered marks a WAL whose records are structurally intact (CRC
// passes, so this is not a crash artifact) but fail cryptographic
// verification: an undecodable payload, a broken hash chain, a signer set
// other than the full server set, an invalid collective signature, or a
// replayed Merkle root that contradicts the signed one. Startup must
// refuse such a disk rather than serve from it.
var ErrTampered = errors.New("durable: WAL failed verification — refusing tampered disk state")

// RecoveryConfig supplies everything recovery needs to re-verify the disk
// as an auditor would and to rebuild this server's shard.
type RecoveryConfig struct {
	// Verifier is the chain verifier every recovered block must pass:
	// built from the full server set and the co-sign verification backend.
	Verifier *ledger.ChainVerifier
	// Self is this server's node id (selects which Merkle roots to check).
	Self identity.NodeID
	// ShardIDs is the full item set of this server's shard.
	ShardIDs []txn.ItemID
	// InitialValue supplies each item's genesis value (nil → empty), and
	// must match the value the shard was originally created with: replay
	// starts from the genesis state.
	InitialValue func(txn.ItemID) []byte
	// MultiVersion mirrors the shard's store.Config. Multi-versioned
	// shards are always rebuilt by full replay (their history is exactly
	// the block log), so snapshots are neither written nor consumed.
	MultiVersion bool
}

// Recovered is the verified outcome of crash recovery.
type Recovered struct {
	// Blocks is the verified block log, ready for ledger.NewLogFromBlocks.
	Blocks []*ledger.Block
	// Shard is the rebuilt datastore, its root checked against the last
	// signed root in the log.
	Shard *store.Shard
	// SnapshotHeight is the block height of the snapshot recovery started
	// from (SnapshotUsed reports whether one was used at all).
	SnapshotHeight uint64
	SnapshotUsed   bool
	// Scan reports what the WAL scan found (torn tails, segment count).
	Scan ScanReport
	// Warnings lists non-fatal anomalies (ignored snapshots etc.).
	Warnings []string
}

// Store is a server's durable ledger + datastore: the WAL the tamper-proof
// log appends flow through (ledger.Persister) and the snapshotter the
// server triggers after commits (server.Snapshotter).
type Store struct {
	opts Options
	wal  *WAL
	lock *os.File // exclusive flock on the data directory

	mu              sync.Mutex
	payloads        [][]byte // raw records scanned at Open, consumed by Recover
	scan            ScanReport
	recovered       bool
	lastSnapHeight  uint64
	haveSnapshotted bool
	snapErr         error // sticky failure of the async snapshot writer

	snapWG sync.WaitGroup
}

// Open locks and scans the data directory, truncates any torn WAL tail,
// and prepares the store for Recover (mandatory before the first Persist)
// and appends. The directory is held under an exclusive flock for the
// store's lifetime: two processes appending to one WAL would interleave
// records and destroy acknowledged blocks, so the second opener fails
// fast instead.
func Open(opts Options) (*Store, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	wal, payloads, scan, err := openWAL(opts)
	if err != nil {
		_ = lock.Close()
		return nil, err
	}
	return &Store{opts: opts, wal: wal, lock: lock, payloads: payloads, scan: scan}, nil
}

// lockDir takes an exclusive, non-blocking flock on <dir>/LOCK.
func lockDir(dir string) (*os.File, error) {
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("durable: %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// Recover verifies the scanned WAL exactly as an auditor verifies a
// fetched log — contiguous heights, hash chain, full signer set and
// collective signature per block — rebuilds the shard (from the newest
// usable snapshot plus the WAL tail, or by full replay), and cross-checks
// every recomputed Merkle root against the root this server co-signed
// into the corresponding block.
func (s *Store) Recover(rc RecoveryConfig) (*Recovered, error) {
	s.mu.Lock()
	payloads := s.payloads
	s.payloads = nil
	s.recovered = true
	s.mu.Unlock()

	res := &Recovered{Scan: s.scan}

	// Decode. A CRC-valid but undecodable record cannot be a torn write;
	// someone rewrote the record and recomputed the CRC.
	blocks := make([]*ledger.Block, len(payloads))
	for i, p := range payloads {
		b := new(ledger.Block)
		if err := b.UnmarshalBinary(p); err != nil {
			return nil, fmt.Errorf("%w: record %d undecodable: %v", ErrTampered, i, err)
		}
		blocks[i] = b
	}

	// Verify the chain: heights from 0, prev-hash links, full-set co-signs.
	if at, err := rc.Verifier.Chain(blocks); err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrTampered, at, err)
	}
	res.Blocks = blocks

	// Choose the starting state: a snapshot is usable only if it is not
	// multi-versioned, parses, points into this chain (its recorded tip
	// hash matches the block at its height), and its recomputed Merkle
	// root equals a root recorded in a signed block. Anything less falls
	// back to full replay — the snapshot carries no authority of its own.
	start := 0
	var shard *store.Shard
	if !rc.MultiVersion {
		snap, warns := loadLatestSnapshot(s.opts.Dir)
		res.Warnings = append(res.Warnings, warns...)
		if snap != nil {
			cand := store.NewShardFromItems(snap.Items, store.Config{MultiVersion: false})
			if why := s.vetSnapshot(snap, cand, blocks, rc.Self); why != "" {
				res.Warnings = append(res.Warnings, fmt.Sprintf("snapshot at height %d ignored: %s", snap.Height, why))
			} else {
				shard = cand
				start = int(snap.Height) + 1
				res.SnapshotUsed = true
				res.SnapshotHeight = snap.Height
				s.mu.Lock()
				s.lastSnapHeight, s.haveSnapshotted = snap.Height, true
				s.mu.Unlock()
			}
		}
	}
	if shard == nil {
		shard = store.NewShard(rc.ShardIDs, rc.InitialValue, store.Config{MultiVersion: rc.MultiVersion})
	}

	// Replay the tail, verifying each recomputed root against the signed
	// one. The roots inside blocks are covered by the collective
	// signature, so a mismatch means the replayed state — not the log — is
	// wrong: tampered snapshot contents would have been caught above, a
	// wrong InitialValue or item set is a configuration error; both must
	// stop recovery.
	for _, b := range blocks[start:] {
		if b.Decision != ledger.DecisionCommit {
			continue // aborted blocks are never logged, but stay safe
		}
		accesses := ShardAccesses(b, shard)
		if len(accesses) > 0 {
			if err := shard.Apply(accesses); err != nil {
				return nil, fmt.Errorf("durable: replay block %d: %w", b.Height, err)
			}
		}
		if want, ok := b.Roots[rc.Self]; ok {
			if got := shard.Root(); !bytes.Equal(got, want) {
				return nil, fmt.Errorf("%w: replayed shard root at height %d diverges from the co-signed root (initial state mismatch or tampered datastore inputs)",
					ErrTampered, b.Height)
			}
		}
	}
	res.Shard = shard
	return res, nil
}

// vetSnapshot explains why a snapshot cannot be used ("" = usable).
func (s *Store) vetSnapshot(snap *snapshot, cand *store.Shard, blocks []*ledger.Block, self identity.NodeID) string {
	if snap.Height >= uint64(len(blocks)) {
		return fmt.Sprintf("claims height %d beyond the recovered WAL tip %d", snap.Height, len(blocks)-1)
	}
	if !bytes.Equal(snap.TipHash, blocks[snap.Height].Hash()) {
		return "recorded tip hash does not match the chain"
	}
	root := cand.Root()
	if !bytes.Equal(root, snap.Root) {
		return "item states do not hash to the recorded root"
	}
	// Authenticate the root against the chain: the last block at or below
	// the snapshot height in which this server was involved carries the
	// co-signed root the shard must have had ever since.
	for h := int(snap.Height); h >= 0; h-- {
		if want, ok := blocks[h].Roots[self]; ok {
			if !bytes.Equal(root, want) {
				return fmt.Sprintf("root contradicts the co-signed root at height %d", h)
			}
			return ""
		}
	}
	// No signed root to authenticate against (the server was never
	// involved up to this height): replay from genesis is just as cheap.
	return "no co-signed root at or below its height to authenticate against"
}

// ShardAccesses reconstructs the datastore accesses a committed block
// implies for one shard — the same per-transaction split the live commit
// path uses, derived from the block's read/write sets. Recovery uses it to
// replay the verified WAL; the server catch-up path uses it to apply a
// verified log suffix fetched from untrusted peers, so both paths converge
// on identical shard state for identical blocks.
func ShardAccesses(b *ledger.Block, shard *store.Shard) []store.Access {
	var accesses []store.Access
	for i := range b.Txns {
		rec := &b.Txns[i]
		a := store.Access{TS: rec.TS}
		for _, r := range rec.Reads {
			if shard.Has(r.ID) {
				a.ReadIDs = append(a.ReadIDs, r.ID)
			}
		}
		for _, w := range rec.Writes {
			if shard.Has(w.ID) {
				a.Writes = append(a.Writes, w)
			}
		}
		if len(a.ReadIDs) > 0 || len(a.Writes) > 0 {
			accesses = append(accesses, a)
		}
	}
	return accesses
}

// Persist implements ledger.Persister: the WAL write (and, under
// fsync=always, the flush) a block must survive before the in-memory log
// accepts it.
func (s *Store) Persist(b *ledger.Block) error {
	s.mu.Lock()
	recovered := s.recovered
	s.mu.Unlock()
	if !recovered {
		return errors.New("durable: Persist before Recover")
	}
	return s.wal.Append(b)
}

// MaybeSnapshot implements server.Snapshotter: called after every committed
// block, it captures a snapshot every SnapshotEvery blocks. Multi-versioned
// shards never snapshot (recovery replays their full history anyway).
//
// Only the state capture runs on the caller's (the server commit path's)
// clock — it must, to pin the shard exactly at height. The fsyncs, file
// write, and rename happen on a background goroutine; a writer failure is
// sticky and surfaces on the next call, so the disk going bad still fails
// commits loudly rather than degrading silently.
func (s *Store) MaybeSnapshot(shard *store.Shard, height uint64, tipHash []byte) error {
	if s.opts.SnapshotEvery <= 0 || shard.MultiVersion() {
		return nil
	}
	s.mu.Lock()
	if s.snapErr != nil {
		err := s.snapErr
		s.mu.Unlock()
		return fmt.Errorf("durable: snapshot writer failed: %w", err)
	}
	due := !s.haveSnapshotted && height+1 >= uint64(s.opts.SnapshotEvery) ||
		s.haveSnapshotted && height >= s.lastSnapHeight+uint64(s.opts.SnapshotEvery)
	if due {
		s.lastSnapHeight, s.haveSnapshotted = height, true
	}
	s.mu.Unlock()
	if !due {
		return nil
	}
	snap := &snapshot{
		Height:  height,
		TipHash: append([]byte(nil), tipHash...),
		Root:    shard.Root(),
		Items:   shard.Snapshot(),
	}
	s.snapWG.Add(1)
	go func() {
		defer s.snapWG.Done()
		// The WAL record for this block must be durable before a snapshot
		// claims its height: otherwise a crash could leave a snapshot
		// pointing past the recovered chain (it would be ignored, but
		// never write an artifact that is stale the moment it lands).
		err := s.wal.Sync()
		if err == nil {
			err = writeSnapshot(s.opts.Dir, snap, s.opts.SnapshotKeep)
		}
		if err != nil {
			s.mu.Lock()
			if s.snapErr == nil {
				s.snapErr = err
			}
			s.mu.Unlock()
		}
	}()
	return nil
}

// Sync forces the WAL to stable storage.
func (s *Store) Sync() error { return s.wal.Sync() }

// Fail freezes the store as a simulated crash would: every subsequent WAL
// append, fsync, or snapshot attempt returns err (sticky), while the bytes
// already on disk stay exactly as the crash left them for recovery to
// judge. The simulation harness (internal/sim) calls this from its
// server-layer crash hooks; it must NOT be called from inside the
// PreFsyncHook, which already holds the WAL lock (that hook freezes by
// returning an error instead).
func (s *Store) Fail(err error) {
	s.wal.Fail(err)
	s.mu.Lock()
	if s.snapErr == nil {
		s.snapErr = err
	}
	s.mu.Unlock()
}

// NextHeight returns the height the next persisted block must carry.
func (s *Store) NextHeight() uint64 { return s.wal.NextHeight() }

// Close drains in-flight snapshot writes, flushes and closes the WAL, and
// releases the directory lock.
func (s *Store) Close() error {
	s.snapWG.Wait()
	err := s.wal.Close()
	if s.lock != nil {
		if cerr := s.lock.Close(); err == nil {
			err = cerr
		}
		s.lock = nil
	}
	return err
}
