// Package store implements the datastore layer of a Fides database server
// (paper §3.1, §4.2): a shard of data items, each carrying a value and the
// read/write timestamps rts and wts of the last transactions that accessed
// it, backed by a Merkle hash tree whose root authenticates the shard's
// entire state.
//
// The shard supports the paper's two data models (§4.2.1): single-versioned
// (only the latest state is authenticated) and multi-versioned (each commit
// creates a new version of the accessed items while older versions are
// retained, enabling audits of any historical version and recoverability).
//
// The Merkle leaf for an item commits to the item's id, value, rts and wts,
// so the auditor can reconstruct the expected leaf for any item from the
// information stored in a log block alone (paper §4.2.2).
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/merkle"
	"repro/internal/txn"
)

// Item is one data item: a unique identifier, a value, and the associated
// read and write timestamps (paper §3.1).
type Item struct {
	ID    txn.ItemID
	Value []byte
	RTS   txn.Timestamp
	WTS   txn.Timestamp
}

// LeafContent returns the canonical byte string a Merkle leaf commits to
// for an item. Both servers and auditors derive leaves through this
// function, so an auditor can recompute a leaf from a block's read/write
// sets without talking to the server.
func LeafContent(id txn.ItemID, value []byte, rts, wts txn.Timestamp) []byte {
	buf := make([]byte, 0, len(id)+len(value)+1+2*12)
	buf = appendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	buf = appendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)
	buf = appendTimestamp(buf, rts)
	buf = appendTimestamp(buf, wts)
	return buf
}

func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

func appendTimestamp(buf []byte, ts txn.Timestamp) []byte {
	buf = appendUvarint(buf, ts.Time)
	return appendUvarint(buf, uint64(ts.ClientID))
}

// Version is one historical version of an item in a multi-versioned shard:
// the state of the item immediately after the transaction that committed at
// CommitTS touched it.
type Version struct {
	CommitTS txn.Timestamp
	Value    []byte
	RTS      txn.Timestamp
	WTS      txn.Timestamp
}

// Errors returned by shard operations.
var (
	ErrNoItem        = errors.New("store: no such item")
	ErrSingleVersion = errors.New("store: shard is single-versioned")
)

// Shard is one data partition held by a database server. All exported
// methods are safe for concurrent use.
type Shard struct {
	mu           sync.RWMutex
	multiVersion bool
	ids          []txn.ItemID
	idx          map[txn.ItemID]int
	items        []Item
	history      [][]Version // per item; nil unless multiVersion
	tree         *merkle.Tree
	hasher       Hasher
}

// Config configures a shard.
type Config struct {
	// MultiVersion retains every version of every item (paper §4.2.1).
	MultiVersion bool
	// Hasher optionally parallelizes independent Merkle leaf-hash
	// computations across a worker pool (crypto.Pool satisfies it). Nil
	// hashes serially. Only the leaf hashes fan out; the incremental tree
	// updates stay sequential under the shard lock.
	Hasher Hasher
}

// Hasher runs n independent computations, possibly concurrently, and
// returns when all are done.
type Hasher interface {
	Map(n int, f func(i int))
}

// parallelLeafHashing is the touched-leaf count below which dispatching to
// the worker pool costs more than hashing inline.
const parallelLeafHashing = 8

// hashLeaves runs f(0..n-1) through the configured hasher when the batch
// is large enough to amortize dispatch, inline otherwise.
func (s *Shard) hashLeaves(n int, f func(i int)) {
	if s.hasher != nil && n >= parallelLeafHashing {
		s.hasher.Map(n, f)
		return
	}
	for i := 0; i < n; i++ {
		f(i)
	}
}

// NewShard creates a shard holding the given items (ids are deduplicated
// and sorted to fix the Merkle leaf order). initial supplies each item's
// starting value; nil values are stored as empty.
func NewShard(ids []txn.ItemID, initial func(txn.ItemID) []byte, cfg Config) *Shard {
	uniq := make(map[txn.ItemID]struct{}, len(ids))
	sorted := make([]txn.ItemID, 0, len(ids))
	for _, id := range ids {
		if _, dup := uniq[id]; !dup {
			uniq[id] = struct{}{}
			sorted = append(sorted, id)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	s := &Shard{
		multiVersion: cfg.MultiVersion,
		ids:          sorted,
		idx:          make(map[txn.ItemID]int, len(sorted)),
		items:        make([]Item, len(sorted)),
		hasher:       cfg.Hasher,
	}
	for i, id := range sorted {
		s.idx[id] = i
		var val []byte
		if initial != nil {
			val = append([]byte(nil), initial(id)...)
		}
		s.items[i] = Item{ID: id, Value: val}
	}
	leaves := make([][]byte, len(sorted))
	s.hashLeaves(len(sorted), func(i int) {
		it := s.items[i]
		leaves[i] = merkle.LeafHash(LeafContent(it.ID, it.Value, txn.Timestamp{}, txn.Timestamp{}))
	})
	s.tree = merkle.New(leaves)
	if cfg.MultiVersion {
		s.history = make([][]Version, len(sorted))
		for i := range s.history {
			s.history[i] = []Version{{Value: append([]byte(nil), s.items[i].Value...)}}
		}
	}
	return s
}

// NewShardFromItems rebuilds a shard from previously snapshotted item
// states (id, value, rts, wts) — the recovery path of internal/durable.
// Items are deduplicated and sorted exactly as NewShard sorts fresh ids, so
// the Merkle leaf order (and therefore the root) is reproducible. For a
// multi-versioned shard the history restarts at the snapshot: older
// versions live only in the block log, which recovery replays instead of
// using snapshots (see internal/durable).
func NewShardFromItems(items []Item, cfg Config) *Shard {
	sorted := make([]Item, 0, len(items))
	uniq := make(map[txn.ItemID]struct{}, len(items))
	for _, it := range items {
		if _, dup := uniq[it.ID]; !dup {
			uniq[it.ID] = struct{}{}
			sorted = append(sorted, it)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	s := &Shard{
		multiVersion: cfg.MultiVersion,
		ids:          make([]txn.ItemID, len(sorted)),
		idx:          make(map[txn.ItemID]int, len(sorted)),
		items:        make([]Item, len(sorted)),
		hasher:       cfg.Hasher,
	}
	for i, it := range sorted {
		s.ids[i] = it.ID
		s.idx[it.ID] = i
		it.Value = append([]byte(nil), it.Value...)
		s.items[i] = it
	}
	leaves := make([][]byte, len(sorted))
	s.hashLeaves(len(sorted), func(i int) {
		it := s.items[i]
		leaves[i] = merkle.LeafHash(LeafContent(it.ID, it.Value, it.RTS, it.WTS))
	})
	s.tree = merkle.New(leaves)
	if cfg.MultiVersion {
		s.history = make([][]Version, len(sorted))
		for i := range s.history {
			it := s.items[i]
			s.history[i] = []Version{{
				CommitTS: it.WTS,
				Value:    append([]byte(nil), it.Value...),
				RTS:      it.RTS,
				WTS:      it.WTS,
			}}
		}
	}
	return s
}

// Snapshot returns a deep copy of every item's current state in Merkle leaf
// order — the payload internal/durable writes to snapshot files.
func (s *Shard) Snapshot() []Item {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Item, len(s.items))
	for i, it := range s.items {
		it.Value = append([]byte(nil), it.Value...)
		out[i] = it
	}
	return out
}

// Len returns the number of items in the shard.
func (s *Shard) Len() int { return len(s.ids) }

// IDs returns the shard's item ids in Merkle leaf order.
func (s *Shard) IDs() []txn.ItemID {
	return append([]txn.ItemID(nil), s.ids...)
}

// Has reports whether the shard stores the item.
func (s *Shard) Has(id txn.ItemID) bool {
	_, ok := s.idx[id]
	return ok
}

// MultiVersion reports whether the shard retains historical versions.
func (s *Shard) MultiVersion() bool { return s.multiVersion }

// Get returns a copy of the item's current state.
func (s *Shard) Get(id txn.ItemID) (Item, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.idx[id]
	if !ok {
		return Item{}, fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	it := s.items[i]
	it.Value = append([]byte(nil), it.Value...)
	return it, nil
}

// Access describes how a committing transaction touched the shard's items:
// which items it read and what it wrote. Apply and OverlayRoot use it to
// update values and timestamps per paper §4.1 step 7: written items get the
// new value and wts = commit ts; read items get rts = commit ts.
type Access struct {
	// ReadIDs are the items the block's transactions read from this shard.
	ReadIDs []txn.ItemID
	// Writes are the write entries targeting this shard.
	Writes []txn.WriteEntry
	// TS is the commit timestamp to stamp onto the accessed items.
	TS txn.Timestamp
}

// Apply updates the datastore for a committed transaction (or batch of
// non-conflicting transactions sharing a block): its writes are
// installed and the rts/wts of accessed items advance to the commit
// timestamp. For multi-versioned shards a new version of every touched item
// is recorded.
func (s *Shard) Apply(accesses []Access) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range accesses {
		if err := s.applyLocked(a); err != nil {
			return err
		}
	}
	return nil
}

func (s *Shard) applyLocked(a Access) error {
	touched := make(map[int]struct{}, len(a.ReadIDs)+len(a.Writes))
	for _, id := range a.ReadIDs {
		i, ok := s.idx[id]
		if !ok {
			return fmt.Errorf("%w: read %s", ErrNoItem, id)
		}
		if s.items[i].RTS.Less(a.TS) {
			s.items[i].RTS = a.TS
		}
		touched[i] = struct{}{}
	}
	for _, w := range a.Writes {
		i, ok := s.idx[w.ID]
		if !ok {
			return fmt.Errorf("%w: write %s", ErrNoItem, w.ID)
		}
		s.items[i].Value = append([]byte(nil), w.NewVal...)
		if s.items[i].WTS.Less(a.TS) {
			s.items[i].WTS = a.TS
		}
		touched[i] = struct{}{}
	}
	// Leaf hashes are independent of one another, so they fan out across
	// the hasher; only the incremental tree updates are ordered.
	idxs := make([]int, 0, len(touched))
	for i := range touched {
		idxs = append(idxs, i)
	}
	leaves := make([][]byte, len(idxs))
	s.hashLeaves(len(idxs), func(k int) {
		it := s.items[idxs[k]]
		leaves[k] = merkle.LeafHash(LeafContent(it.ID, it.Value, it.RTS, it.WTS))
	})
	for k, i := range idxs {
		if _, err := s.tree.Update(i, leaves[k]); err != nil {
			return fmt.Errorf("store: update leaf %d: %w", i, err)
		}
		if s.multiVersion {
			it := s.items[i]
			s.history[i] = append(s.history[i], Version{
				CommitTS: a.TS,
				Value:    append([]byte(nil), it.Value...),
				RTS:      it.RTS,
				WTS:      it.WTS,
			})
		}
	}
	return nil
}

// Root returns the current Merkle root of the shard.
func (s *Shard) Root() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Root()
}

// OverlayRoot computes the Merkle root the shard would have after applying
// the given accesses, without mutating the datastore. Cohorts call this in
// the Vote phase of TFCommit: "the MHT reflects all the updates in Ti
// assuming that Ti be committed; since MHT computation is done in memory,
// the datastore is unaffected if Ti eventually aborts" (paper §4.3.1).
//
// The computation performs O(k log n) incremental updates for k touched
// items and then reverts them, which is the "MHT update" cost measured in
// Figure 14.
func (s *Shard) OverlayRoot(accesses []Access) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Compute the would-be item states in a scratch map.
	type pending struct {
		value []byte
		rts   txn.Timestamp
		wts   txn.Timestamp
	}
	scratch := make(map[int]pending)
	load := func(i int) pending {
		if p, ok := scratch[i]; ok {
			return p
		}
		it := s.items[i]
		return pending{value: it.Value, rts: it.RTS, wts: it.WTS}
	}
	for _, a := range accesses {
		for _, id := range a.ReadIDs {
			i, ok := s.idx[id]
			if !ok {
				return nil, fmt.Errorf("%w: read %s", ErrNoItem, id)
			}
			p := load(i)
			if p.rts.Less(a.TS) {
				p.rts = a.TS
			}
			scratch[i] = p
		}
		for _, w := range a.Writes {
			i, ok := s.idx[w.ID]
			if !ok {
				return nil, fmt.Errorf("%w: write %s", ErrNoItem, w.ID)
			}
			p := load(i)
			p.value = w.NewVal
			if p.wts.Less(a.TS) {
				p.wts = a.TS
			}
			scratch[i] = p
		}
	}

	// Apply the scratch leaves, capture the root, then revert. The leaf
	// hashes fan out across the hasher first; the tree updates stay
	// sequential.
	idxs := make([]int, 0, len(scratch))
	for i := range scratch {
		idxs = append(idxs, i)
	}
	leaves := make([][]byte, len(idxs))
	s.hashLeaves(len(idxs), func(k int) {
		p := scratch[idxs[k]]
		leaves[k] = merkle.LeafHash(LeafContent(s.ids[idxs[k]], p.value, p.rts, p.wts))
	})
	reverts := make(map[int][]byte, len(scratch))
	for k, i := range idxs {
		old, err := s.tree.Update(i, leaves[k])
		if err != nil {
			return nil, fmt.Errorf("store: overlay leaf %d: %w", i, err)
		}
		if _, seen := reverts[i]; !seen {
			reverts[i] = old
		}
	}
	root := s.tree.Root()
	for i, old := range reverts {
		if _, err := s.tree.Update(i, old); err != nil {
			return nil, fmt.Errorf("store: revert leaf %d: %w", i, err)
		}
	}
	return root, nil
}

// Proof returns the item's current leaf content and the Verification Object
// (VO) authenticating it against the shard's current root. This serves
// single-versioned audits (paper §4.2.2: "the auditor fetches the VO based
// on the latest state").
func (s *Shard) Proof(id txn.ItemID) ([]byte, merkle.Proof, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.idx[id]
	if !ok {
		return nil, merkle.Proof{}, fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	p, err := s.tree.Proof(i)
	if err != nil {
		return nil, merkle.Proof{}, err
	}
	it := s.items[i]
	return LeafContent(it.ID, it.Value, it.RTS, it.WTS), p, nil
}

// VersionAt returns the item's state at version ts in a multi-versioned
// shard: the latest version with CommitTS ≤ ts.
func (s *Shard) VersionAt(id txn.ItemID, ts txn.Timestamp) (Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.multiVersion {
		return Version{}, ErrSingleVersion
	}
	i, ok := s.idx[id]
	if !ok {
		return Version{}, fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	return versionAt(s.history[i], ts), nil
}

// ProofAt reconstructs the shard's Merkle tree at version ts and returns
// the VO for the item at that version. This serves multi-versioned audits
// (paper §4.2.2: "the server constructs the Merkle Hash Tree with the data
// at version ts as the leaves; it then shares the Verification Object").
func (s *Shard) ProofAt(id txn.ItemID, ts txn.Timestamp) ([]byte, merkle.Proof, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.multiVersion {
		return nil, merkle.Proof{}, ErrSingleVersion
	}
	i, ok := s.idx[id]
	if !ok {
		return nil, merkle.Proof{}, fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	tree, err := s.treeAtLocked(ts)
	if err != nil {
		return nil, merkle.Proof{}, err
	}
	p, err := tree.Proof(i)
	if err != nil {
		return nil, merkle.Proof{}, err
	}
	v := versionAt(s.history[i], ts)
	return LeafContent(id, v.Value, v.RTS, v.WTS), p, nil
}

// RootAt returns the shard's Merkle root at version ts (multi-versioned
// shards only).
func (s *Shard) RootAt(ts txn.Timestamp) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.multiVersion {
		return nil, ErrSingleVersion
	}
	tree, err := s.treeAtLocked(ts)
	if err != nil {
		return nil, err
	}
	return tree.Root(), nil
}

func (s *Shard) treeAtLocked(ts txn.Timestamp) (*merkle.Tree, error) {
	leaves := make([][]byte, len(s.ids))
	for i, id := range s.ids {
		v := versionAt(s.history[i], ts)
		leaves[i] = merkle.LeafHash(LeafContent(id, v.Value, v.RTS, v.WTS))
	}
	return merkle.New(leaves), nil
}

func versionAt(versions []Version, ts txn.Timestamp) Version {
	// Versions are appended in commit order, so scan from the tail for the
	// newest version at or before ts.
	for i := len(versions) - 1; i >= 0; i-- {
		v := versions[i]
		if !ts.Less(v.CommitTS) { // v.CommitTS <= ts
			return v
		}
	}
	return versions[0]
}

// Corrupt force-overwrites an item's stored value without touching the
// Merkle tree, timestamps, or history — simulating a malicious or buggy
// datastore whose contents silently diverge from the authenticated state
// (paper §5 Scenario 3). It is exercised only by fault injection.
func (s *Shard) Corrupt(id txn.ItemID, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoItem, id)
	}
	s.items[i].Value = append([]byte(nil), value...)
	// Rebuild the tree from the corrupted state so the VOs the server later
	// serves reflect what it actually stores (and therefore fail to match
	// the roots recorded in the log).
	leaf := merkle.LeafHash(LeafContent(s.items[i].ID, s.items[i].Value, s.items[i].RTS, s.items[i].WTS))
	if _, err := s.tree.Update(i, leaf); err != nil {
		return err
	}
	if s.multiVersion && len(s.history[i]) > 0 {
		last := &s.history[i][len(s.history[i])-1]
		last.Value = append([]byte(nil), value...)
	}
	return nil
}
