package durable

import (
	"fmt"
	"testing"

	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/txn"
)

// benchBlock builds a realistic unsigned block (~100 single-write txns,
// like the paper's evaluation blocks). WAL appends do not verify
// signatures — recovery does — so signing would only add noise here.
func benchBlock(height uint64, prev []byte) *ledger.Block {
	b := &ledger.Block{
		Height:   height,
		Decision: ledger.DecisionCommit,
		PrevHash: prev,
		Signers:  []identity.NodeID{"s00", "s01", "s02", "s03", "s04"},
		Roots:    map[identity.NodeID][]byte{"s00": make([]byte, 32)},
		CoSigC:   make([]byte, 32),
		CoSigS:   make([]byte, 32),
	}
	for i := 0; i < 100; i++ {
		b.Txns = append(b.Txns, ledger.TxnRecord{
			TxnID: fmt.Sprintf("t%d-%d", height, i),
			TS:    txn.Timestamp{Time: height*100 + uint64(i), ClientID: 1},
			Writes: []txn.WriteEntry{{
				ID:     txn.ItemID(fmt.Sprintf("server0-item%04d", i)),
				NewVal: []byte("benchmark-value-00000000"),
			}},
		})
	}
	return b
}

// BenchmarkWALAppend measures the per-block WAL append cost under each
// fsync discipline (the TFCommit hot path pays exactly this inside
// applyCommitLocked). Run with -benchtime to taste; group and off are
// dominated by the write, always by the fsync.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []FsyncMode{FsyncOff, FsyncGroup, FsyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			s, err := Open(Options{Dir: b.TempDir(), Fsync: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			if _, err := s.Recover(RecoveryConfig{Verifier: ledger.NewChainVerifier(nil, nil), Self: "s00"}); err != nil {
				b.Fatal(err)
			}
			blk := benchBlock(0, nil)
			enc, _ := blk.MarshalBinary()
			b.SetBytes(int64(len(enc) + recHeaderLen))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Height = uint64(i)
				if err := s.Persist(blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
