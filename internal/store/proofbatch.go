package store

import (
	"fmt"

	"repro/internal/merkle"
	"repro/internal/txn"
)

// This file holds the batched proof-serving surface of the shard: the
// verified-read path (internal/lightclient, server.handleVerifiedRead)
// fetches several items and one merkle.MultiProof per request, amortizing
// sibling hashes across the batch instead of paying k·log₂(n) hashes for
// k items.

// MultiProof returns the current state of the requested items together
// with one batched Verification Object authenticating all of them against
// the shard's current root. Items are returned in Merkle leaf order
// (matching the proof's Indices), regardless of request order.
func (s *Shard) MultiProof(ids []txn.ItemID) ([]Item, merkle.MultiProof, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	indices, err := s.leafIndices(ids)
	if err != nil {
		return nil, merkle.MultiProof{}, err
	}
	mp, err := s.tree.MultiProof(indices)
	if err != nil {
		return nil, merkle.MultiProof{}, err
	}
	items := make([]Item, len(mp.Indices))
	for i, idx := range mp.Indices {
		it := s.items[idx]
		it.Value = append([]byte(nil), it.Value...)
		items[i] = it
	}
	return items, mp, nil
}

// MultiProofAt is MultiProof against the shard state at version ts
// (multi-versioned shards only): the tree is reconstructed with every
// item's latest version at or before ts as the leaves, serving snapshot
// reads pinned at a historical block height.
func (s *Shard) MultiProofAt(ids []txn.ItemID, ts txn.Timestamp) ([]Item, merkle.MultiProof, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.multiVersion {
		return nil, merkle.MultiProof{}, ErrSingleVersion
	}
	indices, err := s.leafIndices(ids)
	if err != nil {
		return nil, merkle.MultiProof{}, err
	}
	tree, err := s.treeAtLocked(ts)
	if err != nil {
		return nil, merkle.MultiProof{}, err
	}
	mp, err := tree.MultiProof(indices)
	if err != nil {
		return nil, merkle.MultiProof{}, err
	}
	items := make([]Item, len(mp.Indices))
	for i, idx := range mp.Indices {
		v := versionAt(s.history[idx], ts)
		items[i] = Item{
			ID:    s.ids[idx],
			Value: append([]byte(nil), v.Value...),
			RTS:   v.RTS,
			WTS:   v.WTS,
		}
	}
	return items, mp, nil
}

// leafIndices resolves ids to leaf indices (caller holds the lock).
func (s *Shard) leafIndices(ids []txn.ItemID) ([]int, error) {
	indices := make([]int, len(ids))
	for i, id := range ids {
		idx, ok := s.idx[id]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoItem, id)
		}
		indices[i] = idx
	}
	return indices, nil
}
