package audit

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/store"
	"repro/internal/txn"
)

// CheckpointItem is the serialized form of one item's authoritative shadow
// state at a checkpoint.
type CheckpointItem struct {
	Known   bool          `json:"known"`
	TSKnown bool          `json:"ts_known"`
	Value   []byte        `json:"value,omitempty"`
	RTS     txn.Timestamp `json:"rts"`
	WTS     txn.Timestamp `json:"wts"`
}

// Checkpoint is a portable snapshot of a replay position: everything a
// replayer derived from blocks [0, Height) and needs to continue at Height
// without rescanning. The watchtower persists these between polls (and
// across restarts via fides-watch -checkpoint), and a full audit can resume
// from one instead of replaying from genesis (Options.Resume), because the
// replay checks are Markovian in (Items, PrevMax): every Lemma 1/3 check on
// a block depends on history only through the latest committed state.
type Checkpoint struct {
	// Height is the number of blocks replayed; the next block expected by a
	// resumed replayer has this height.
	Height uint64 `json:"height"`
	// Hash is the hash of the last replayed block (nil before any block).
	// Resuming validates it against the authoritative log so a checkpoint
	// from a forked or tampered history can never silently vouch for it.
	Hash []byte `json:"hash,omitempty"`
	// PrevMax is the maximum committed timestamp seen so far.
	PrevMax txn.Timestamp `json:"prev_max"`
	// Items is the authoritative shadow state derived from the log.
	Items map[txn.ItemID]CheckpointItem `json:"items"`
}

// Replayer is the streaming core of the log replay: it consumes committed,
// already co-sign-verified blocks one at a time in height order and emits
// the Lemma 1 (incorrect reads) and Lemma 3 (conflict rule) findings for
// each, maintaining the authoritative per-item shadow state the checks
// validate against. The offline Auditor drives it over the full
// authoritative log; the continuous watchtower (internal/watch) drives it
// block-by-block as the chain grows, checkpointing between polls.
//
// The global serialization-graph cycle check (graph.go) is not part of the
// stream: it needs the whole history and stays with the full audit.
type Replayer struct {
	dir      Directory
	coord    identity.NodeID
	state    map[txn.ItemID]*itemState
	prevMax  txn.Timestamp
	height   uint64
	lastHash []byte
	out      []Finding // findings of the Step in progress
}

// NewReplayer starts a replayer at genesis.
func NewReplayer(dir Directory, coord identity.NodeID) *Replayer {
	return &Replayer{
		dir:   dir,
		coord: coord,
		state: make(map[txn.ItemID]*itemState),
	}
}

// ResumeReplayer restores a replayer from a checkpoint. The caller is
// responsible for having validated Checkpoint.Hash against the log it is
// about to feed (the Auditor does; see replayLog).
func ResumeReplayer(dir Directory, coord identity.NodeID, cp *Checkpoint) *Replayer {
	rp := NewReplayer(dir, coord)
	rp.height = cp.Height
	rp.lastHash = append([]byte(nil), cp.Hash...)
	rp.prevMax = cp.PrevMax
	for id, it := range cp.Items {
		rp.state[id] = &itemState{
			known:   it.Known,
			tsKnown: it.TSKnown,
			value:   append([]byte(nil), it.Value...),
			rts:     it.RTS,
			wts:     it.WTS,
		}
	}
	return rp
}

// Height is the number of blocks replayed so far.
func (rp *Replayer) Height() uint64 { return rp.height }

// Checkpoint snapshots the replayer's position. The snapshot shares no
// mutable state with the replayer and is JSON- and gob-friendly.
func (rp *Replayer) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Height:  rp.height,
		Hash:    append([]byte(nil), rp.lastHash...),
		PrevMax: rp.prevMax,
		Items:   make(map[txn.ItemID]CheckpointItem, len(rp.state)),
	}
	for id, st := range rp.state {
		cp.Items[id] = CheckpointItem{
			Known:   st.known,
			TSKnown: st.tsKnown,
			Value:   append([]byte(nil), st.value...),
			RTS:     st.rts,
			WTS:     st.wts,
		}
	}
	return cp
}

// Lookup returns the shadow state of one item.
func (rp *Replayer) Lookup(id txn.ItemID) (CheckpointItem, bool) {
	st, ok := rp.state[id]
	if !ok {
		return CheckpointItem{}, false
	}
	return CheckpointItem{Known: st.known, TSKnown: st.tsKnown, Value: st.value, RTS: st.rts, WTS: st.wts}, true
}

// KnownItems lists, sorted, the items whose committed value the replay has
// established — the population the watchtower samples verified reads from.
func (rp *Replayer) KnownItems() []txn.ItemID {
	out := make([]txn.ItemID, 0, len(rp.state))
	for id, st := range rp.state {
		if st.known {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Step replays one committed block against the shadow state and returns the
// findings it produced. Blocks must arrive in height order; Step trusts the
// caller to have verified the chain position and collective signature (the
// Auditor's log selection or the watchtower's header verification).
func (rp *Replayer) Step(b *ledger.Block) []Finding {
	rp.out = nil
	if b.Decision != ledger.DecisionCommit {
		rp.emit(Finding{
			Type:    FindingTamperedLog,
			Servers: rp.implicated(nil, true),
			Height:  int64(b.Height),
			Detail:  fmt.Sprintf("logged block %d has decision %s; only committed blocks are logged", b.Height, b.Decision),
		})
	}
	rp.checkIntraBlockConflicts(b)

	// Validate every transaction against the pre-block state, then apply
	// all updates at once: within a block, cohorts validated against the
	// state before the block (paper §4.6: the batch is non-conflicting).
	pending := make(map[txn.ItemID]*itemState)
	for i := range b.Txns {
		rec := &b.Txns[i]
		rp.checkTimestampOrder(b, rec)
		rp.checkReads(b, rec)
		rp.checkWrites(b, rec)
		rp.applyTxn(pending, rec)
	}
	for id, p := range pending {
		rp.state[id] = p
	}
	rp.prevMax = rp.prevMax.Max(b.MaxTS())
	rp.height = b.Height + 1
	rp.lastHash = b.Hash()
	return rp.out
}

func (rp *Replayer) emit(f Finding) { rp.out = append(rp.out, f) }

// checkTimestampOrder enforces the commit-order/timestamp-order agreement:
// servers ignore end_transaction requests with a timestamp lower than the
// latest committed timestamp (paper §4.3.1), so every logged transaction
// must carry a timestamp above everything before it.
func (rp *Replayer) checkTimestampOrder(b *ledger.Block, rec *ledger.TxnRecord) {
	if !rp.prevMax.Less(rec.TS) {
		rp.emit(Finding{
			Type:    FindingSerializability,
			Servers: rp.implicated(rp.ownersOfRecord(rec), true),
			Height:  int64(b.Height),
			TxnID:   rec.TxnID,
			Detail: fmt.Sprintf("txn %s committed at %s, not after the latest committed timestamp %s",
				rec.TxnID, rec.TS, rp.prevMax),
		})
	}
}

// checkReads performs the Lemma 1 verification: the read value of an item
// must reflect the latest value written in the log, and the recorded
// timestamps must match the authoritative ones.
func (rp *Replayer) checkReads(b *ledger.Block, rec *ledger.TxnRecord) {
	for _, r := range rec.Reads {
		st, ok := rp.state[r.ID]
		if !ok {
			// First appearance in the log: the recorded observation is the
			// baseline (the replayer cannot know pre-history).
			rp.state[r.ID] = &itemState{
				known: true, tsKnown: true,
				value: r.Value, rts: r.RTS, wts: r.WTS,
			}
			continue
		}
		if st.known && !bytes.Equal(st.value, r.Value) {
			rp.emit(Finding{
				Type:    FindingIncorrectRead,
				Servers: rp.ownersOf(r.ID),
				Height:  int64(b.Height),
				TxnID:   rec.TxnID,
				Item:    r.ID,
				Detail: fmt.Sprintf("txn %s read %q for item %s; the latest committed value is %q",
					rec.TxnID, r.Value, r.ID, st.value),
			})
		}
		if st.tsKnown && st.wts != r.WTS {
			rp.emit(Finding{
				Type:    FindingStaleTimestamp,
				Servers: rp.ownersOf(r.ID),
				Height:  int64(b.Height),
				TxnID:   rec.TxnID,
				Item:    r.ID,
				Detail: fmt.Sprintf("txn %s observed wts %s for item %s; authoritative wts is %s",
					rec.TxnID, r.WTS, r.ID, st.wts),
			})
		}
		// RW conflict (Lemma 3): a transaction with a smaller timestamp
		// read a data item already written at a larger timestamp.
		if st.tsKnown && rec.TS.Less(st.wts) {
			rp.emit(Finding{
				Type:    FindingSerializability,
				Servers: rp.implicated(rp.ownersOf(r.ID), true),
				Height:  int64(b.Height),
				TxnID:   rec.TxnID,
				Item:    r.ID,
				Detail: fmt.Sprintf("RW conflict: txn %s (ts %s) read item %s already written at %s",
					rec.TxnID, rec.TS, r.ID, st.wts),
			})
		}
	}
}

// checkWrites performs the Lemma 3 WW and WR conflict checks and validates
// blind-write baselines.
func (rp *Replayer) checkWrites(b *ledger.Block, rec *ledger.TxnRecord) {
	for _, w := range rec.Writes {
		st, ok := rp.state[w.ID]
		if !ok {
			st = &itemState{}
			if w.Blind {
				// Table 1: old_val (with rts/wts) is recorded for blind
				// writes; it baselines the item's pre-state.
				st.known = true
				st.tsKnown = true
				st.value = w.OldVal
				st.rts = w.RTS
				st.wts = w.WTS
			}
			rp.state[w.ID] = st
			continue
		}
		if st.tsKnown && st.wts != w.WTS {
			rp.emit(Finding{
				Type:    FindingStaleTimestamp,
				Servers: rp.ownersOf(w.ID),
				Height:  int64(b.Height),
				TxnID:   rec.TxnID,
				Item:    w.ID,
				Detail: fmt.Sprintf("txn %s observed wts %s when writing item %s; authoritative wts is %s",
					rec.TxnID, w.WTS, w.ID, st.wts),
			})
		}
		if st.tsKnown && rec.TS.Less(st.wts) {
			// WW conflict: writing below an existing write timestamp.
			rp.emit(Finding{
				Type:    FindingSerializability,
				Servers: rp.implicated(rp.ownersOf(w.ID), true),
				Height:  int64(b.Height),
				TxnID:   rec.TxnID,
				Item:    w.ID,
				Detail: fmt.Sprintf("WW conflict: txn %s (ts %s) wrote item %s already written at %s",
					rec.TxnID, rec.TS, w.ID, st.wts),
			})
		}
		if st.tsKnown && rec.TS.Less(st.rts) {
			// WR conflict: writing below an existing read timestamp.
			rp.emit(Finding{
				Type:    FindingSerializability,
				Servers: rp.implicated(rp.ownersOf(w.ID), true),
				Height:  int64(b.Height),
				TxnID:   rec.TxnID,
				Item:    w.ID,
				Detail: fmt.Sprintf("WR conflict: txn %s (ts %s) wrote item %s already read at %s",
					rec.TxnID, rec.TS, w.ID, st.rts),
			})
		}
	}
}

// applyTxn folds a transaction's effects into the pending post-block state:
// reads advance rts, writes install the value and advance wts (paper §4.1
// step 7).
func (rp *Replayer) applyTxn(pending map[txn.ItemID]*itemState, rec *ledger.TxnRecord) {
	load := func(id txn.ItemID) *itemState {
		if p, ok := pending[id]; ok {
			return p
		}
		p := &itemState{}
		if st, ok := rp.state[id]; ok {
			*p = *st
		}
		pending[id] = p
		return p
	}
	for _, r := range rec.Reads {
		p := load(r.ID)
		if p.rts.Less(rec.TS) {
			p.rts = rec.TS
		}
		p.tsKnown = true
	}
	for _, w := range rec.Writes {
		p := load(w.ID)
		p.value = w.NewVal
		p.known = true
		p.tsKnown = true
		if p.wts.Less(rec.TS) {
			p.wts = rec.TS
		}
	}
}

// checkIntraBlockConflicts flags blocks whose transactions conflict with
// each other: the coordinator must pack only non-conflicting transactions
// into a block (paper §4.6), and cohorts validate against pre-block state,
// so a conflicting batch would commit unserializable effects.
func (rp *Replayer) checkIntraBlockConflicts(b *ledger.Block) {
	readers := make(map[txn.ItemID]string)
	writers := make(map[txn.ItemID]string)
	for i := range b.Txns {
		rec := &b.Txns[i]
		for _, r := range rec.Reads {
			if other, ok := writers[r.ID]; ok && other != rec.TxnID {
				rp.reportIntraBlock(b, rec.TxnID, other, r.ID)
			}
		}
		for _, w := range rec.Writes {
			if other, ok := writers[w.ID]; ok && other != rec.TxnID {
				rp.reportIntraBlock(b, rec.TxnID, other, w.ID)
			}
			if other, ok := readers[w.ID]; ok && other != rec.TxnID {
				rp.reportIntraBlock(b, rec.TxnID, other, w.ID)
			}
		}
		for _, r := range rec.Reads {
			readers[r.ID] = rec.TxnID
		}
		for _, w := range rec.Writes {
			writers[w.ID] = rec.TxnID
		}
	}
}

func (rp *Replayer) reportIntraBlock(b *ledger.Block, txnID, other string, item txn.ItemID) {
	rp.emit(Finding{
		Type:    FindingSerializability,
		Servers: rp.implicated(rp.ownersOf(item), true),
		Height:  int64(b.Height),
		TxnID:   txnID,
		Item:    item,
		Detail: fmt.Sprintf("block %d packs conflicting transactions %s and %s on item %s",
			b.Height, txnID, other, item),
	})
}

// datastoreTargets derives, for each server whose root the block records,
// one item whose post-block leaf the replay can reconstruct from the log,
// to be checked against the served VO (Lemma 2). Call after Step(b).
func (rp *Replayer) datastoreTargets(b *ledger.Block) []dsTarget {
	chosen := make(map[identity.NodeID]txn.ItemID, len(b.Roots))
	consider := func(id txn.ItemID, written bool) {
		owner, ok := rp.dir.Owner(id)
		if !ok {
			return
		}
		if _, hasRoot := b.Roots[owner]; !hasRoot {
			return
		}
		if _, already := chosen[owner]; already && !written {
			return // prefer written items: their value is in the block
		}
		chosen[owner] = id
	}
	for i := range b.Txns {
		for _, r := range b.Txns[i].Reads {
			consider(r.ID, false)
		}
		for _, w := range b.Txns[i].Writes {
			consider(w.ID, true)
		}
	}
	targets := make([]dsTarget, 0, len(chosen))
	for server, item := range chosen {
		st := rp.state[item]
		if st == nil || !st.known {
			continue
		}
		targets = append(targets, dsTarget{
			height:    b.Height,
			server:    server,
			item:      item,
			leaf:      store.LeafContent(item, st.value, st.rts, st.wts),
			root:      b.Roots[server],
			versionTS: b.MaxTS(),
		})
	}
	return targets
}

// implicated builds the server list for a finding, appending the designated
// coordinator when block production itself is suspect.
func (rp *Replayer) implicated(ids []identity.NodeID, withCoordinator bool) []identity.NodeID {
	out := append([]identity.NodeID(nil), ids...)
	if withCoordinator && rp.coord != "" {
		seen := false
		for _, id := range out {
			if id == rp.coord {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, rp.coord)
		}
	}
	return out
}

// ownersOf resolves the owner of an item into a finding's server list.
func (rp *Replayer) ownersOf(id txn.ItemID) []identity.NodeID {
	if owner, ok := rp.dir.Owner(id); ok {
		return []identity.NodeID{owner}
	}
	return nil
}

// ownersOfRecord resolves the owners of every item a transaction touched.
func (rp *Replayer) ownersOfRecord(rec *ledger.TxnRecord) []identity.NodeID {
	set := make(map[identity.NodeID]struct{})
	for _, r := range rec.Reads {
		if owner, ok := rp.dir.Owner(r.ID); ok {
			set[owner] = struct{}{}
		}
	}
	for _, w := range rec.Writes {
		if owner, ok := rp.dir.Owner(w.ID); ok {
			set[owner] = struct{}{}
		}
	}
	out := make([]identity.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	return out
}
