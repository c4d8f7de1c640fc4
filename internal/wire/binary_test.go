package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/txn"
)

// sampleBlock builds a fully populated block: several transactions with
// reads, writes and blind writes, roots, a decision, chain hash and
// co-sign material.
func sampleBlock(t *testing.T) *ledger.Block {
	t.Helper()
	big := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB value
	b := &ledger.Block{
		Height: 42,
		Txns: []ledger.TxnRecord{
			{
				TxnID: "c01-t7",
				TS:    txn.Timestamp{Time: 99, ClientID: 3},
				Reads: []txn.ReadEntry{
					{ID: "s00-i0004", Value: []byte("v1"), RTS: txn.Timestamp{Time: 5, ClientID: 1}, WTS: txn.Timestamp{Time: 6, ClientID: 2}},
					{ID: "s01-i0000", Value: big},
				},
				Writes: []txn.WriteEntry{
					{ID: "s00-i0004", NewVal: []byte("v2"), RTS: txn.Timestamp{Time: 5, ClientID: 1}, WTS: txn.Timestamp{Time: 6, ClientID: 2}},
					{ID: "s02-i0009", NewVal: big, OldVal: []byte("old"), Blind: true, WTS: txn.Timestamp{Time: 1, ClientID: 9}},
				},
			},
			{TxnID: "c02-t1", TS: txn.Timestamp{Time: 100, ClientID: 4}},
		},
		Roots: map[identity.NodeID][]byte{
			"s00": bytes.Repeat([]byte{0xaa}, 32),
			"s01": bytes.Repeat([]byte{0xbb}, 32),
		},
		Decision: ledger.DecisionCommit,
		PrevHash: bytes.Repeat([]byte{0x11}, 32),
		Signers:  []identity.NodeID{"s00", "s01", "s02"},
		CoSigC:   bytes.Repeat([]byte{0x22}, 32),
		CoSigS:   bytes.Repeat([]byte{0x33}, 32),
	}
	return b
}

func sampleEnvelope() identity.Envelope {
	return identity.Envelope{
		From:    "c01",
		Payload: []byte("signed transaction bytes"),
		Sig:     bytes.Repeat([]byte{0x44}, 64),
	}
}

// roundTrip encodes msg, decodes into a zero value of the same type, and
// compares.
func roundTrip(t *testing.T, msg binaryMessage) {
	t.Helper()
	data := msg.AppendBinary(nil)
	out := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(binaryMessage)
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatalf("%T: decode: %v", msg, err)
	}
	if !reflect.DeepEqual(msg, out) {
		t.Fatalf("%T round trip mismatch:\n in: %#v\nout: %#v", msg, msg, out)
	}
	// The self-describing header must route the same bytes to the same
	// concrete type.
	decoded, err := Decode(data)
	if err != nil {
		t.Fatalf("%T: Decode: %v", msg, err)
	}
	if !reflect.DeepEqual(msg, decoded) {
		t.Fatalf("%T: Decode produced %#v", msg, decoded)
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 8<<10)
	block := sampleBlock(t)
	env := sampleEnvelope()
	msgs := []binaryMessage{
		&ReadReq{ID: "s00-i0001"},
		&ReadResp{Value: big, RTS: txn.Timestamp{Time: 1, ClientID: 2}, WTS: txn.Timestamp{Time: 3, ClientID: 4}},
		&EndTxnReq{TxnEnvelope: env},
		&EndTxnResp{Committed: true, Block: block},
		&EndTxnResp{Rejected: true, LatestTS: txn.Timestamp{Time: 9, ClientID: 1}},
		&GetVoteReq{Block: block, ClientReqs: []identity.Envelope{env, env}},
		&GetVoteReq{Block: block, ClientReqs: []identity.Envelope{{}}}, // degenerate empty envelope

		&VoteResp{Vote: ledger.DecisionCommit, Involved: true, Root: bytes.Repeat([]byte{1}, 32), Commitment: bytes.Repeat([]byte{2}, 65), TxnAborts: []int{0, 3}},
		&ChallengeReq{Challenge: []byte{9, 9}, AggCommitment: []byte{8}, Block: block},
		&ChallengeResp{Response: []byte{7, 7, 7}},
		&DecisionReq{Block: block},
		&DecisionResp{OK: true},
		&PrepareReq{Block: block, ClientReqs: []identity.Envelope{env}},
		&PrepareResp{Vote: ledger.DecisionAbort},
		&TwoPCDecisionReq{Block: block},
		&TwoPCDecisionResp{OK: true},
		&FetchLogReq{},
		&FetchLogResp{Blocks: []*ledger.Block{block, block}},
		&FetchProofReq{ID: "s00-i0001", AtVersion: true, TS: txn.Timestamp{Time: 4, ClientID: 2}},
		&FetchProofResp{LeafContent: []byte("leaf"), Proof: merkle.Proof{Index: 3, Siblings: [][]byte{bytes.Repeat([]byte{5}, 32), bytes.Repeat([]byte{6}, 32)}}},
		&FetchHeadersReq{From: 7, Max: 512},
		&FetchHeadersResp{Tip: 42, Headers: []*ledger.Header{block.Header(), block.Header()}},
		&VerifiedReadReq{IDs: []txn.ItemID{"s00-i0001", "s00-i0007"}, Pinned: true, AtHeight: 12},
		&VerifiedReadResp{
			Height: 12,
			Items: []VerifiedItem{
				{ID: "s00-i0001", Value: []byte("v"), RTS: txn.Timestamp{Time: 1, ClientID: 2}, WTS: txn.Timestamp{Time: 3, ClientID: 4}},
				{ID: "s00-i0007", Value: big},
			},
			Proof: merkle.MultiProof{Indices: []int{1, 7}, Depth: 4, Siblings: [][]byte{bytes.Repeat([]byte{7}, 32), bytes.Repeat([]byte{8}, 32)}},
		},
		&FetchBlocksReq{From: 9, Max: 64},
		&FetchBlocksResp{Blocks: []*ledger.Block{block, block}, Tip: 44},
		&FetchBlocksResp{Tip: 3}, // page beyond the responder's log
		&EvidenceBundle{
			Kind:    "incorrect-read",
			Accused: []identity.NodeID{"s01"},
			Height:  42,
			Item:    "s01-i0003",
			TxnID:   "c01-t7",
			Detail:  "sampled read served a value the proof does not authenticate",
			Blocks:  []*ledger.Block{block, block},
			Anchor:  block.Header(),
			ReadIDs: []txn.ItemID{"s01-i0003"},
			Read: &VerifiedReadResp{
				Height: 42,
				Items:  []VerifiedItem{{ID: "s01-i0003", Value: []byte("lie")}},
				Proof:  merkle.MultiProof{Indices: []int{3}, Depth: 2, Siblings: [][]byte{bytes.Repeat([]byte{9}, 32)}},
			},
			Proof: &FetchProofResp{LeafContent: []byte("leaf"), Proof: merkle.Proof{Index: 3, Siblings: [][]byte{bytes.Repeat([]byte{5}, 32)}}},
		},
		&EvidenceBundle{Kind: "tampered-header", Accused: []identity.NodeID{"s00"}, Height: 7, Detail: "forged header page", Anchor: block.Header(), BadHeader: block.Header()},
		&IntegrityStatus{
			Watcher: "wt0001", Tip: 50, Verified: 48, Lag: 2,
			BlocksVerified: 48, SampledReads: 12, Findings: 1,
			Alerts:  []IntegrityAlert{{Rule: "findings", Severity: "critical", Message: "1 integrity finding"}},
			Healthy: false,
		},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

func TestRoundTripZeroValues(t *testing.T) {
	msgs := []binaryMessage{
		&ReadReq{}, &ReadResp{}, &EndTxnReq{}, &EndTxnResp{},
		&GetVoteReq{}, &VoteResp{}, &ChallengeReq{}, &ChallengeResp{},
		&DecisionReq{}, &DecisionResp{}, &PrepareReq{}, &PrepareResp{},
		&TwoPCDecisionReq{}, &TwoPCDecisionResp{}, &FetchLogReq{},
		&FetchLogResp{}, &FetchProofReq{}, &FetchProofResp{},
		&FetchHeadersReq{}, &FetchHeadersResp{}, &VerifiedReadReq{},
		&VerifiedReadResp{}, &FetchBlocksReq{}, &FetchBlocksResp{},
		&EvidenceBundle{}, &IntegrityStatus{},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

func TestEmptyByteSliceDecodesAsNil(t *testing.T) {
	// The codec does not distinguish empty from nil byte slices: a
	// zero-length field always decodes as nil (canonical form).
	in := &ReadResp{Value: []byte{}}
	data := in.AppendBinary(nil)
	var out ReadResp
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.Value != nil {
		t.Fatalf("empty slice decoded as %#v, want nil", out.Value)
	}
}

func TestDecodeRejectsHeaderMismatch(t *testing.T) {
	data := (&ReadReq{ID: "t"}).AppendBinary(nil)

	var wrong FetchProofReq
	if err := wrong.UnmarshalBinary(data); err == nil {
		t.Fatal("decoded into the wrong message type")
	}

	bad := append([]byte(nil), data...)
	bad[0] = 99 // unsupported version
	var req ReadReq
	if err := req.UnmarshalBinary(bad); err == nil {
		t.Fatal("accepted unsupported codec version")
	}

	if _, err := Decode([]byte{BinaryVersion, 200}); err == nil {
		t.Fatal("accepted unknown message id")
	}
	if _, err := Decode([]byte{BinaryVersion}); err == nil {
		t.Fatal("accepted truncated header")
	}
}

// TestWireIDsStable pins the id byte of every message. Evidence bundles
// are stored on disk with this byte in their header, so an id must never
// be renumbered; the ids of deleted messages stay reserved and decode to
// nothing.
func TestWireIDsStable(t *testing.T) {
	ids := []struct {
		msg binaryMessage
		id  byte
	}{
		{&ReadReq{}, 3}, {&ReadResp{}, 4},
		{&EndTxnReq{}, 7}, {&EndTxnResp{}, 8},
		{&GetVoteReq{}, 9}, {&VoteResp{}, 10},
		{&ChallengeReq{}, 11}, {&ChallengeResp{}, 12},
		{&DecisionReq{}, 13}, {&DecisionResp{}, 14},
		{&PrepareReq{}, 15}, {&PrepareResp{}, 16},
		{&TwoPCDecisionReq{}, 17}, {&TwoPCDecisionResp{}, 18},
		{&FetchLogReq{}, 19}, {&FetchLogResp{}, 20},
		{&FetchProofReq{}, 21}, {&FetchProofResp{}, 22},
		{&FetchHeadersReq{}, 23}, {&FetchHeadersResp{}, 24},
		{&VerifiedReadReq{}, 25}, {&VerifiedReadResp{}, 26},
		{&FetchBlocksReq{}, 29}, {&FetchBlocksResp{}, 30},
		{&EvidenceBundle{}, 31}, {&IntegrityStatus{}, 32},
	}
	for _, c := range ids {
		if got := c.msg.AppendBinary(nil)[1]; got != c.id {
			t.Errorf("%T: id byte %d, want %d", c.msg, got, c.id)
		}
	}
	// Reserved: begin_txn, write and tfc_ask_decision requests/responses.
	for _, id := range []byte{0, 1, 2, 5, 6, 27, 28, 33} {
		if _, err := Decode([]byte{BinaryVersion, id}); err == nil {
			t.Errorf("id %d decoded, want an unknown-id error", id)
		}
	}
}

func TestFetchLogRespRejectsNilBlocks(t *testing.T) {
	// A byzantine server must not be able to smuggle a nil block into the
	// auditor's chain verification.
	data := (&FetchLogResp{Blocks: []*ledger.Block{nil}}).AppendBinary(nil)
	var out FetchLogResp
	if err := out.UnmarshalBinary(data); err == nil {
		t.Fatal("accepted a log transfer containing a nil block")
	}
}

func TestFetchBlocksRespRejectsNilBlocks(t *testing.T) {
	// Same property for catch-up suffixes: a byzantine peer must not be
	// able to wedge a recovering server with a hole in the range.
	data := (&FetchBlocksResp{Blocks: []*ledger.Block{nil}, Tip: 1}).AppendBinary(nil)
	var out FetchBlocksResp
	if err := out.UnmarshalBinary(data); err == nil {
		t.Fatal("accepted a block transfer containing a nil block")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	block := sampleBlock(t)
	data := (&GetVoteReq{Block: block, ClientReqs: []identity.Envelope{sampleEnvelope()}}).AppendBinary(nil)
	// Every strict prefix must fail cleanly, never panic.
	for i := 2; i < len(data); i += 7 {
		var out GetVoteReq
		if err := out.UnmarshalBinary(data[:i]); err == nil {
			t.Fatalf("accepted truncation at %d/%d bytes", i, len(data))
		}
	}
	// Trailing garbage is rejected too.
	var out GetVoteReq
	if err := out.UnmarshalBinary(append(append([]byte(nil), data...), 0x01)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

func TestDecodedBlockSigningBytesMatchSender(t *testing.T) {
	// The property TFCommit depends on: a decoded block re-encodes to the
	// identical canonical signing bytes, so challenges computed by the
	// coordinator verify at every cohort.
	block := sampleBlock(t)
	data := (&DecisionReq{Block: block}).AppendBinary(nil)
	var out DecisionReq
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(block.SigningBytes(), out.Block.SigningBytes()) {
		t.Fatal("signing bytes changed across encode/decode")
	}
	if !bytes.Equal(block.StrippedBytes(), out.Block.StrippedBytes()) {
		t.Fatal("stripped bytes changed across encode/decode")
	}
	if !bytes.Equal(block.Hash(), out.Block.Hash()) {
		t.Fatal("block hash changed across encode/decode")
	}
}

func FuzzWireDecode(f *testing.F) {
	block := &ledger.Block{Height: 1, Txns: []ledger.TxnRecord{{TxnID: "t", TS: txn.Timestamp{Time: 1, ClientID: 1}}}}
	f.Add((&ReadReq{ID: "a"}).AppendBinary(nil))
	f.Add((&GetVoteReq{Block: block, ClientReqs: []identity.Envelope{{From: "c", Payload: []byte("p"), Sig: []byte("s")}}}).AppendBinary(nil))
	f.Add((&EndTxnResp{Committed: true, Block: block}).AppendBinary(nil))
	f.Add((&VoteResp{Vote: ledger.DecisionAbort, TxnAborts: []int{1}}).AppendBinary(nil))
	f.Add((&FetchLogResp{Blocks: []*ledger.Block{block}}).AppendBinary(nil))
	f.Add((&FetchProofResp{LeafContent: []byte("l"), Proof: merkle.Proof{Index: 1, Siblings: [][]byte{{1}}}}).AppendBinary(nil))
	f.Add((&FetchHeadersReq{From: 3, Max: 128}).AppendBinary(nil))
	f.Add((&FetchHeadersResp{Tip: 9, Headers: []*ledger.Header{block.Header()}}).AppendBinary(nil))
	f.Add((&VerifiedReadReq{IDs: []txn.ItemID{"a", "b"}, Pinned: true, AtHeight: 4}).AppendBinary(nil))
	f.Add((&VerifiedReadResp{Height: 4, Items: []VerifiedItem{{ID: "a", Value: []byte("v")}},
		Proof: merkle.MultiProof{Indices: []int{0}, Depth: 1, Siblings: [][]byte{{2}}}}).AppendBinary(nil))
	f.Add((&ReadResp{Value: []byte("v"), RTS: txn.Timestamp{Time: 2, ClientID: 1}}).AppendBinary(nil))
	f.Add([]byte{BinaryVersion, 1}) // a reserved id of a deleted message
	f.Add((&FetchBlocksReq{From: 2, Max: 16}).AppendBinary(nil))
	f.Add((&FetchBlocksResp{Blocks: []*ledger.Block{block}, Tip: 2}).AppendBinary(nil))
	f.Add((&EvidenceBundle{Kind: "bad-proof", Accused: []identity.NodeID{"s1"}, Height: 3,
		Blocks: []*ledger.Block{block}, Anchor: block.Header(), BadHeader: block.Header(),
		ReadIDs: []txn.ItemID{"a"},
		Read:    &VerifiedReadResp{Height: 3, Items: []VerifiedItem{{ID: "a"}}, Proof: merkle.MultiProof{Indices: []int{0}, Depth: 1, Siblings: [][]byte{{2}}}},
		Proof:   &FetchProofResp{LeafContent: []byte("l"), Proof: merkle.Proof{Index: 1, Siblings: [][]byte{{1}}}}}).AppendBinary(nil))
	f.Add((&IntegrityStatus{Watcher: "wt", Tip: 5, Verified: 5, BlocksVerified: 5, SampledReads: 2,
		Alerts: []IntegrityAlert{{Rule: "verified_lag", Severity: "warning", Message: "m"}}, Healthy: true}).AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{BinaryVersion})
	f.Add([]byte{BinaryVersion, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic and never allocate absurdly; on success
		// the result must re-encode and decode to the same value.
		msg, err := Decode(data)
		if err != nil {
			return
		}
		re := msg.(binaryMessage).AppendBinary(nil)
		again, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		reAgain := again.(binaryMessage).AppendBinary(nil)
		if !bytes.Equal(re, reAgain) {
			t.Fatalf("re-encoding not stable:\n first: %x\nsecond: %x", re, reAgain)
		}
	})
}
