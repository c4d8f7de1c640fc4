package ledger

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/identity"
	"repro/internal/schnorr"
	"repro/internal/txn"
)

func sampleBlock(height uint64, prev []byte) *Block {
	return &Block{
		Height: height,
		Txns: []TxnRecord{{
			TxnID: "t1",
			TS:    txn.Timestamp{Time: 10, ClientID: 1},
			Reads: []txn.ReadEntry{{
				ID: "x", Value: []byte("1000"),
				RTS: txn.Timestamp{Time: 92, ClientID: 1},
				WTS: txn.Timestamp{Time: 88, ClientID: 1},
			}},
			Writes: []txn.WriteEntry{{
				ID: "x", NewVal: []byte("900"),
				RTS: txn.Timestamp{Time: 92, ClientID: 1},
				WTS: txn.Timestamp{Time: 88, ClientID: 1},
			}},
		}},
		Roots:    map[identity.NodeID][]byte{"s1": []byte("root-1"), "s0": []byte("root-0")},
		Decision: DecisionCommit,
		PrevHash: prev,
		Signers:  []identity.NodeID{"s0", "s1"},
	}
}

func TestSigningBytesDeterministic(t *testing.T) {
	b1 := sampleBlock(1, []byte("prev"))
	b2 := sampleBlock(1, []byte("prev"))
	if !bytes.Equal(b1.SigningBytes(), b2.SigningBytes()) {
		t.Fatal("identical blocks encode differently")
	}
	// Map iteration order must not leak into the encoding: build the roots
	// in reverse insertion order.
	b3 := sampleBlock(1, []byte("prev"))
	b3.Roots = map[identity.NodeID][]byte{}
	b3.Roots["s0"] = []byte("root-0")
	b3.Roots["s1"] = []byte("root-1")
	if !bytes.Equal(b1.SigningBytes(), b3.SigningBytes()) {
		t.Fatal("roots map order changes encoding")
	}
}

func TestSigningBytesSensitivity(t *testing.T) {
	base := sampleBlock(1, []byte("prev")).SigningBytes()
	mutations := map[string]func(*Block){
		"height":     func(b *Block) { b.Height = 2 },
		"txn id":     func(b *Block) { b.Txns[0].TxnID = "t2" },
		"ts":         func(b *Block) { b.Txns[0].TS.Time = 11 },
		"read value": func(b *Block) { b.Txns[0].Reads[0].Value = []byte("1001") },
		"read rts":   func(b *Block) { b.Txns[0].Reads[0].RTS.Time = 93 },
		"write val":  func(b *Block) { b.Txns[0].Writes[0].NewVal = []byte("901") },
		"blind flag": func(b *Block) { b.Txns[0].Writes[0].Blind = true },
		"roots":      func(b *Block) { b.Roots["s1"] = []byte("forged") },
		"root set":   func(b *Block) { delete(b.Roots, "s0") },
		"decision":   func(b *Block) { b.Decision = DecisionAbort },
		"prev hash":  func(b *Block) { b.PrevHash = []byte("other") },
		"signers":    func(b *Block) { b.Signers = b.Signers[:1] },
	}
	for name, mutate := range mutations {
		b := sampleBlock(1, []byte("prev"))
		mutate(b)
		if bytes.Equal(b.SigningBytes(), base) {
			t.Errorf("mutation %q does not change signing bytes", name)
		}
	}
}

func TestHashCoversCoSig(t *testing.T) {
	b := sampleBlock(0, nil)
	h1 := b.Hash()
	b.SetCoSig(schnorr.Signature{C: big.NewInt(1), S: big.NewInt(2)})
	if bytes.Equal(b.Hash(), h1) {
		t.Error("hash ignores the collective signature")
	}
}

func TestStrippedBytesIgnoresLateFields(t *testing.T) {
	b := sampleBlock(3, []byte("p"))
	partial := b.Clone()
	partial.Roots = nil
	partial.Decision = 0
	if !bytes.Equal(b.StrippedBytes(), partial.SigningBytes()) {
		t.Error("stripped bytes disagree with cleared block")
	}
	// But transaction mutations must still show.
	mutated := b.Clone()
	mutated.Txns[0].Writes[0].NewVal = []byte("evil")
	if bytes.Equal(b.StrippedBytes(), mutated.StrippedBytes()) {
		t.Error("stripped bytes ignore txn mutation")
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := sampleBlock(0, []byte("p"))
	b.SetCoSig(schnorr.Signature{C: big.NewInt(7), S: big.NewInt(8)})
	c := b.Clone()
	c.Txns[0].Writes[0].NewVal[0] = 'X'
	c.Roots["s1"][0] = 'X'
	c.PrevHash[0] = 'X'
	c.Signers[0] = "evil"
	c.CoSigC[0] ^= 0xff
	if !bytes.Equal(b.Txns[0].Writes[0].NewVal, []byte("900")) {
		t.Error("clone shares write values")
	}
	if !bytes.Equal(b.Roots["s1"], []byte("root-1")) {
		t.Error("clone shares roots")
	}
	if !bytes.Equal(b.PrevHash, []byte("p")) {
		t.Error("clone shares prev hash")
	}
	if b.Signers[0] != "s0" {
		t.Error("clone shares signers")
	}
}

func TestLogAppendChecksChain(t *testing.T) {
	l := NewLog()
	genesis := sampleBlock(0, nil)
	if err := l.Append(genesis); err != nil {
		t.Fatalf("genesis append: %v", err)
	}
	// Wrong height.
	if err := l.Append(sampleBlock(0, genesis.Hash())); err == nil {
		t.Error("duplicate height accepted")
	}
	// Wrong prev hash.
	bad := sampleBlock(1, []byte("bogus"))
	if err := l.Append(bad); err == nil {
		t.Error("broken prev hash accepted")
	}
	// Correct extension.
	b1 := sampleBlock(1, genesis.Hash())
	if err := l.Append(b1); err != nil {
		t.Fatalf("append: %v", err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := l.Tip(); got.Height != 1 {
		t.Fatalf("Tip height = %d", got.Height)
	}
	if !bytes.Equal(l.TipHash(), b1.Hash()) {
		t.Fatal("TipHash mismatch")
	}
	if _, err := l.Get(5); err == nil {
		t.Error("Get past end accepted")
	}
	// Genesis with non-empty prev hash.
	l2 := NewLog()
	if err := l2.Append(sampleBlock(0, []byte("x"))); err == nil {
		t.Error("genesis with prev hash accepted")
	}
}

func TestMaxTS(t *testing.T) {
	b := sampleBlock(0, nil)
	b.Txns = append(b.Txns, TxnRecord{TxnID: "t2", TS: txn.Timestamp{Time: 99, ClientID: 2}})
	if got := b.MaxTS(); got != (txn.Timestamp{Time: 99, ClientID: 2}) {
		t.Errorf("MaxTS = %v", got)
	}
}

func TestCanonicalBytesMatchesRecord(t *testing.T) {
	tr := &txn.Transaction{
		ID: "t9", TS: txn.Timestamp{Time: 4, ClientID: 2},
		Reads:  []txn.ReadEntry{{ID: "a", Value: []byte("v")}},
		Writes: []txn.WriteEntry{{ID: "b", NewVal: []byte("w"), Blind: true, OldVal: []byte("o")}},
	}
	recBytes := RecordFromTransaction(tr).CanonicalBytes()
	if !bytes.Equal(recBytes, RecordFromTransaction(tr).CanonicalBytes()) {
		t.Fatal("canonical bytes not deterministic")
	}
	tr.Writes[0].NewVal = []byte("W")
	if bytes.Equal(recBytes, RecordFromTransaction(tr).CanonicalBytes()) {
		t.Fatal("canonical bytes ignore write value")
	}
}

func TestDecisionString(t *testing.T) {
	if DecisionCommit.String() != "commit" || DecisionAbort.String() != "abort" {
		t.Error("decision strings wrong")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision string empty")
	}
}
