package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cosi"
	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/schnorr"
	"repro/internal/store"
	"repro/internal/txn"
)

// harness drives a miniature single-shard Fides history: persistent server
// identities, a live shard mirroring what the commits do, and a block
// builder that produces genuinely co-signed blocks whose recorded Merkle
// root matches the shard state — exactly what recovery re-verifies.
type harness struct {
	t      *testing.T
	self   identity.NodeID
	ids    []identity.NodeID
	privs  []*schnorr.PrivateKey
	reg    *identity.Registry
	itemID []txn.ItemID
	shard  *store.Shard
	chain  []*ledger.Block
}

func newHarness(t *testing.T, servers, items int) *harness {
	t.Helper()
	h := &harness{t: t, self: "s00"}
	h.reg = identity.NewRegistry()
	for i := 0; i < servers; i++ {
		id := identity.NodeID(fmt.Sprintf("s%02d", i))
		ident, err := identity.New(id, identity.RoleServer, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.reg.Register(ident.Public())
		h.ids = append(h.ids, id)
		h.privs = append(h.privs, ident.Schnorr)
	}
	for j := 0; j < items; j++ {
		h.itemID = append(h.itemID, txn.ItemID(fmt.Sprintf("x%03d", j)))
	}
	h.shard = store.NewShard(h.itemID, h.initial, store.Config{})
	return h
}

func (h *harness) initial(txn.ItemID) []byte { return []byte("0") }

func (h *harness) recoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		Verifier:     ledger.NewChainVerifier(h.ids, crypto.NewSerial(h.reg)),
		Self:         h.self,
		ShardIDs:     h.itemID,
		InitialValue: h.initial,
	}
}

// nextBlock commits one write to item j, producing a co-signed block
// chained onto the harness history and applying it to the live shard.
func (h *harness) nextBlock(j int) *ledger.Block {
	h.t.Helper()
	height := uint64(len(h.chain))
	ts := txn.Timestamp{Time: 10 + height, ClientID: 1}
	cur, err := h.shard.Get(h.itemID[j])
	if err != nil {
		h.t.Fatal(err)
	}
	rec := ledger.TxnRecord{
		TxnID: fmt.Sprintf("t%d", height),
		TS:    ts,
		Writes: []txn.WriteEntry{{
			ID:     h.itemID[j],
			NewVal: []byte(fmt.Sprintf("v%d", height)),
			OldVal: cur.Value,
			Blind:  true,
			RTS:    cur.RTS,
			WTS:    cur.WTS,
		}},
	}
	access := store.Access{Writes: rec.Writes, TS: ts}
	root, err := h.shard.OverlayRoot([]store.Access{access})
	if err != nil {
		h.t.Fatal(err)
	}
	b := &ledger.Block{
		Height:   height,
		Txns:     []ledger.TxnRecord{rec},
		Roots:    map[identity.NodeID][]byte{h.self: root},
		Decision: ledger.DecisionCommit,
	}
	if height > 0 {
		b.PrevHash = h.chain[height-1].Hash()
	}
	h.coSign(b, len(h.ids))
	if err := h.shard.Apply([]store.Access{access}); err != nil {
		h.t.Fatal(err)
	}
	if !bytes.Equal(h.shard.Root(), root) {
		h.t.Fatal("harness shard root diverged from overlay root")
	}
	h.chain = append(h.chain, b)
	return b
}

// coSign collectively signs the block with the first n harness identities.
func (h *harness) coSign(b *ledger.Block, n int) {
	h.t.Helper()
	b.Signers = append([]identity.NodeID(nil), h.ids[:n]...)
	commitments := make([]cosi.Commitment, n)
	secrets := make([]cosi.Secret, n)
	pubs := make([]schnorr.PublicKey, n)
	for i := 0; i < n; i++ {
		c, s, err := cosi.Commit(nil)
		if err != nil {
			h.t.Fatal(err)
		}
		commitments[i], secrets[i] = c, s
		pubs[i] = h.privs[i].Public
	}
	aggV, err := cosi.AggregateCommitments(commitments)
	if err != nil {
		h.t.Fatal(err)
	}
	aggPub, err := cosi.AggregatePublicKeys(pubs)
	if err != nil {
		h.t.Fatal(err)
	}
	ch := cosi.Challenge(aggV, aggPub, b.SigningBytes())
	responses := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		r, err := cosi.Respond(h.privs[i], &secrets[i], ch)
		if err != nil {
			h.t.Fatal(err)
		}
		responses[i] = r
	}
	aggR, err := cosi.AggregateResponses(responses)
	if err != nil {
		h.t.Fatal(err)
	}
	b.SetCoSig(cosi.Finalize(ch, aggR))
}

// persistChain writes n harness blocks through a fresh store at dir.
func (h *harness) persistChain(dir string, n int, opts Options) {
	h.t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := s.Recover(h.recoveryConfig()); err != nil {
		h.t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		b := h.nextBlock(i % len(h.itemID))
		if err := s.Persist(b); err != nil {
			h.t.Fatal(err)
		}
		if err := s.MaybeSnapshot(h.shard, b.Height, b.Hash()); err != nil {
			h.t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		h.t.Fatal(err)
	}
}

func reopen(t *testing.T, dir string, rc RecoveryConfig, opts Options) (*Recovered, error) {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	return s.Recover(rc)
}

// lastSegment returns the path of the newest WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	return names[len(names)-1]
}

// recordOffsets parses a segment's record boundaries: offs[i] is the byte
// offset of record i's header.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	off := segHeaderLen
	for off+recHeaderLen <= len(data) {
		offs = append(offs, off)
		l := binary.BigEndian.Uint32(data[off:])
		off += recHeaderLen + int(l)
	}
	return offs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 5, Options{})

	rec, err := reopen(t, dir, h.recoveryConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) != 5 {
		t.Fatalf("recovered %d blocks, want 5", len(rec.Blocks))
	}
	if rec.Scan.TornTail {
		t.Fatal("clean WAL reported a torn tail")
	}
	for i, b := range rec.Blocks {
		if !bytes.Equal(b.Hash(), h.chain[i].Hash()) {
			t.Fatalf("block %d hash mismatch after recovery", i)
		}
	}
	if !bytes.Equal(rec.Shard.Root(), h.shard.Root()) {
		t.Fatal("recovered shard root differs from live shard root")
	}
	if rec.SnapshotUsed {
		t.Fatal("snapshot used though snapshots were disabled")
	}
}

func TestWALSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	// Tiny segments: every block rolls to a new segment.
	h.persistChain(dir, 6, Options{SegmentBytes: 1})

	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(names) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(names))
	}
	rec, err := reopen(t, dir, h.recoveryConfig(), Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) != 6 {
		t.Fatalf("recovered %d blocks, want 6", len(rec.Blocks))
	}
	if !bytes.Equal(rec.Shard.Root(), h.shard.Root()) {
		t.Fatal("recovered shard root differs after segment rolling")
	}
}

func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 3, Options{})

	// Simulate a torn write: a record header + partial body at the tail.
	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	partial := make([]byte, recHeaderLen+10)
	binary.BigEndian.PutUint32(partial, 512) // claims 512 bytes, has 10
	if _, err := f.Write(partial); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	rec, err := reopen(t, dir, h.recoveryConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Scan.TornTail || rec.Scan.TornBytes != int64(len(partial)) {
		t.Fatalf("scan = %+v, want torn tail of %d bytes", rec.Scan, len(partial))
	}
	if len(rec.Blocks) != 3 {
		t.Fatalf("recovered %d blocks, want 3 (torn record dropped)", len(rec.Blocks))
	}
	// The truncation must be physical: a second reopen sees a clean WAL.
	rec2, err := reopen(t, dir, h.recoveryConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Scan.TornTail {
		t.Fatal("torn tail reported again after truncation")
	}
}

func TestRecoverBitFlippedFinalRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 3, Options{})

	// Flip one byte inside the FINAL record's body: CRC fails, nothing
	// valid follows → indistinguishable from a torn write → truncated.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	last := offs[len(offs)-1]
	data[last+recHeaderLen+5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := reopen(t, dir, h.recoveryConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) != 2 {
		t.Fatalf("recovered %d blocks, want 2 (bit-flipped tail truncated)", len(rec.Blocks))
	}
	if !rec.Scan.TornTail {
		t.Fatal("truncation not reported")
	}
	// The recovered state must match the shorter chain.
	if !bytes.Equal(rec.Shard.Root(), rec.Blocks[1].Roots[h.self]) {
		t.Fatal("recovered shard root does not match the surviving tip's co-signed root")
	}
}

func TestRecoverBitFlippedInteriorRecordRejected(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 3, Options{})

	// Flip a byte in the FIRST record: valid records follow, so this is
	// interior corruption, not a torn suffix — recovery must refuse.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	data[offs[0]+recHeaderLen+5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = reopen(t, dir, h.recoveryConfig(), Options{})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}
}

func TestRecoverCorruptedLengthFieldRejected(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 3, Options{})

	// Corrupt the FIRST record's length field. The bad length makes the
	// following records unreachable by sequential scan, but they are still
	// intact on disk — truncating here would roll back committed blocks,
	// so recovery must refuse instead.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	binary.BigEndian.PutUint32(data[offs[0]:], 1<<30)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = reopen(t, dir, h.recoveryConfig(), Options{})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt for corrupted length with intact records after", err)
	}
}

func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open on a locked data dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	_ = s2.Close()
}

func TestRecoverTamperedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 3, Options{})

	// An adversary with disk access rewrites a committed value AND fixes
	// the CRC. The record is structurally perfect; only the collective
	// signature can expose it — recovery must refuse, not truncate.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	last := offs[len(offs)-1]
	l := binary.BigEndian.Uint32(data[last:])
	payload := data[last+recHeaderLen : last+recHeaderLen+int(l)]
	// Flip a byte well inside the encoded transaction contents.
	payload[len(payload)/2] ^= 0x01
	binary.BigEndian.PutUint32(data[last+4:], crc32.Checksum(payload, crcTable))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = reopen(t, dir, h.recoveryConfig(), Options{})
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

// A block whose collective signature is valid but comes from a strict
// subset of the servers was never agreed by the full server set (§4.3.1):
// recovery must refuse it like any other tampered record.
func TestRecoverSubsetSignedBlockRejected(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 2, Options{})

	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(h.recoveryConfig()); err != nil {
		t.Fatal(err)
	}
	b := h.nextBlock(0)
	h.coSign(b, 2)
	if err := s.Persist(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = reopen(t, dir, h.recoveryConfig(), Options{})
	if !errors.Is(err, ErrTampered) || !strings.Contains(err.Error(), "signed by 2 of 3 servers") {
		t.Fatalf("err = %v, want ErrTampered for the subset-signed block", err)
	}
}

func TestRecoverEmptyDirAndEmptySegment(t *testing.T) {
	// Fresh directory: no blocks, usable store.
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	rec, err := reopen(t, dir, h.recoveryConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) != 0 {
		t.Fatalf("fresh dir recovered %d blocks", len(rec.Blocks))
	}

	// A zero-length final segment (crash during creation) is rewritten,
	// not fatal.
	h2 := newHarness(t, 3, 4)
	dir2 := t.TempDir()
	h2.persistChain(dir2, 2, Options{})
	empty := filepath.Join(dir2, segmentName(2))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec2, err := reopen(t, dir2, h2.recoveryConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Blocks) != 2 {
		t.Fatalf("recovered %d blocks, want 2", len(rec2.Blocks))
	}
}

func TestRecoverMissingSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 4, Options{SegmentBytes: 1}) // one block per segment

	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(names) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(names))
	}
	if err := os.Remove(names[1]); err != nil {
		t.Fatal(err)
	}
	_, err := reopen(t, dir, h.recoveryConfig(), Options{SegmentBytes: 1})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt for a missing segment", err)
	}
}

func TestSnapshotFastPathAndWALTailReplay(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	// Snapshots every 2 blocks; 5 blocks → last snapshot at height 3,
	// leaving a WAL tail (block 4) newer than the snapshot to replay.
	h.persistChain(dir, 5, Options{SnapshotEvery: 2})

	rec, err := reopen(t, dir, h.recoveryConfig(), Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.SnapshotUsed {
		t.Fatalf("snapshot not used (warnings: %v)", rec.Warnings)
	}
	if rec.SnapshotHeight != 3 {
		t.Fatalf("snapshot height = %d, want 3", rec.SnapshotHeight)
	}
	if len(rec.Blocks) != 5 {
		t.Fatalf("recovered %d blocks, want 5", len(rec.Blocks))
	}
	if !bytes.Equal(rec.Shard.Root(), h.shard.Root()) {
		t.Fatal("snapshot + tail replay does not reproduce the live root")
	}
}

func TestTamperedSnapshotFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 4, Options{SnapshotEvery: 2})

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshots written")
	}
	// Tamper an item value inside the newest snapshot and fix the CRC so
	// only the Merkle-root check can catch it.
	name := snaps[len(snaps)-1]
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndex(data, []byte("v"))
	if idx < 0 {
		t.Fatal("no value byte found in snapshot")
	}
	data[idx] ^= 0x01
	body := data[:len(data)-4]
	binary.BigEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crcTable))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := reopen(t, dir, h.recoveryConfig(), Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotUsed {
		t.Fatal("tampered snapshot was accepted")
	}
	found := false
	for _, w := range rec.Warnings {
		if strings.Contains(w, "ignored") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no warning about the ignored snapshot: %v", rec.Warnings)
	}
	if !bytes.Equal(rec.Shard.Root(), h.shard.Root()) {
		t.Fatal("fallback replay does not reproduce the live root")
	}
}

func TestSnapshotNewerThanWALIgnored(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	h.persistChain(dir, 4, Options{SnapshotEvery: 4}) // snapshot at height 3

	// Chop the WAL back below the snapshot height: the snapshot now claims
	// a state the signed chain cannot vouch for.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	if err := os.WriteFile(seg, data[:offs[2]], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := reopen(t, dir, h.recoveryConfig(), Options{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotUsed {
		t.Fatal("snapshot beyond the WAL tip was accepted")
	}
	if len(rec.Blocks) != 2 {
		t.Fatalf("recovered %d blocks, want 2", len(rec.Blocks))
	}
	if !bytes.Equal(rec.Shard.Root(), rec.Blocks[1].Roots[h.self]) {
		t.Fatal("replayed root does not match the surviving tip's co-signed root")
	}
}

func TestFsyncModesAppendAndRecover(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncGroup, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			h := newHarness(t, 3, 4)
			h.persistChain(dir, 3, Options{Fsync: mode})
			rec, err := reopen(t, dir, h.recoveryConfig(), Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Blocks) != 3 {
				t.Fatalf("recovered %d blocks, want 3", len(rec.Blocks))
			}
		})
	}
}

func TestPersistEnforcesOrder(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, 3, 4)
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	b := h.nextBlock(0)
	if err := s.Persist(b); err == nil {
		t.Fatal("Persist before Recover accepted")
	}
	if _, err := s.Recover(h.recoveryConfig()); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist(b); err != nil {
		t.Fatal(err)
	}
	wrong := h.nextBlock(1)
	wrong = wrong.Clone()
	wrong.Height = 7
	if err := s.Persist(wrong); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
}

func TestParseFsyncMode(t *testing.T) {
	cases := map[string]FsyncMode{"always": FsyncAlways, "group": FsyncGroup, "": FsyncGroup, "off": FsyncOff}
	for in, want := range cases {
		got, err := ParseFsyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncMode("nope"); err == nil {
		t.Error("bad mode accepted")
	}
}
