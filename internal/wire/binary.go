package wire

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/txn"
)

// Binary wire codec. Every RPC message encodes to a self-describing frame:
// a two-byte header ⟨BinaryVersion, numeric message id⟩ followed by the
// message fields in the binenc conventions (uvarint length prefixes,
// big-endian integers). The header makes any captured byte string
// decodable without out-of-band context (see Decode) and lets a receiver
// reject version or type mismatches before touching the payload.

// BinaryVersion is the wire codec version byte leading every message.
const BinaryVersion = 1

// Numeric message ids, one per concrete message type (requests and
// responses separately — the header must identify the exact struct).
const (
	idInvalid byte = iota
	idBeginTxnReq
	idBeginTxnResp
	idReadReq
	idReadResp
	idWriteReq
	idWriteResp
	idEndTxnReq
	idEndTxnResp
	idGetVoteReq
	idVoteResp
	idChallengeReq
	idChallengeResp
	idDecisionReq
	idDecisionResp
	idPrepareReq
	idPrepareResp
	idTwoPCDecisionReq
	idTwoPCDecisionResp
	idFetchLogReq
	idFetchLogResp
	idFetchProofReq
	idFetchProofResp
	idFetchHeadersReq
	idFetchHeadersResp
	idVerifiedReadReq
	idVerifiedReadResp
	idAskDecisionReq
	idAskDecisionResp
	idFetchBlocksReq
	idFetchBlocksResp
	idEvidenceBundle
	idIntegrityStatus
	idMax // one past the last valid id
)

func appendHeader(buf []byte, id byte) []byte {
	return append(buf, BinaryVersion, id)
}

// openHeader validates the two-byte header and returns a reader positioned
// at the first field.
func openHeader(data []byte, id byte) (binenc.Reader, error) {
	if len(data) < 2 {
		return binenc.Reader{}, fmt.Errorf("wire: message shorter than header (%d bytes)", len(data))
	}
	if data[0] != BinaryVersion {
		return binenc.Reader{}, fmt.Errorf("wire: unsupported codec version %d", data[0])
	}
	if data[1] != id {
		return binenc.Reader{}, fmt.Errorf("wire: message id %d, want %d", data[1], id)
	}
	return binenc.NewReader(data[2:]), nil
}

func finish(r *binenc.Reader, what string) error {
	if err := r.Done(); err != nil {
		return fmt.Errorf("wire: decode %s: %w", what, err)
	}
	return nil
}

// --- shared field helpers ---

func appendBlockPtr(buf []byte, b *ledger.Block) []byte {
	if b == nil {
		return binenc.AppendBool(buf, false)
	}
	buf = binenc.AppendBool(buf, true)
	return b.AppendBinary(buf)
}

func decodeBlockPtr(r *binenc.Reader) (*ledger.Block, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	b := new(ledger.Block)
	if err := ledger.DecodeBlock(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func appendEnvelopes(buf []byte, envs []identity.Envelope) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(envs)))
	for i := range envs {
		buf = identity.AppendEnvelope(buf, &envs[i])
	}
	return buf
}

func decodeEnvelopes(r *binenc.Reader) ([]identity.Envelope, error) {
	// Minimum envelope encoding: version byte + three empty length
	// prefixes.
	n := r.Count(4)
	if n == 0 {
		return nil, r.Err()
	}
	envs := make([]identity.Envelope, n)
	for i := range envs {
		if err := identity.DecodeEnvelope(r, &envs[i]); err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// --- execution layer ---

// AppendBinary implements the binary wire codec.
func (m *BeginTxnReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idBeginTxnReq)
	return binenc.AppendString(buf, m.TxnID)
}

// UnmarshalBinary implements the binary wire codec.
func (m *BeginTxnReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idBeginTxnReq)
	if err != nil {
		return err
	}
	m.TxnID = r.String()
	return finish(&r, MsgBeginTxn)
}

// AppendBinary implements the binary wire codec.
func (m *BeginTxnResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idBeginTxnResp)
	return binenc.AppendBool(buf, m.OK)
}

// UnmarshalBinary implements the binary wire codec.
func (m *BeginTxnResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idBeginTxnResp)
	if err != nil {
		return err
	}
	m.OK = r.Bool()
	return finish(&r, MsgBeginTxn+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *ReadReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idReadReq)
	buf = binenc.AppendString(buf, m.TxnID)
	return binenc.AppendString(buf, string(m.ID))
}

// UnmarshalBinary implements the binary wire codec.
func (m *ReadReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idReadReq)
	if err != nil {
		return err
	}
	m.TxnID = r.String()
	m.ID = txn.ItemID(r.String())
	return finish(&r, MsgRead)
}

// AppendBinary implements the binary wire codec.
func (m *ReadResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idReadResp)
	buf = binenc.AppendBytes(buf, m.Value)
	buf = m.RTS.AppendBinary(buf)
	return m.WTS.AppendBinary(buf)
}

// UnmarshalBinary implements the binary wire codec.
func (m *ReadResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idReadResp)
	if err != nil {
		return err
	}
	m.Value = r.Bytes()
	m.RTS = txn.DecodeTimestamp(&r)
	m.WTS = txn.DecodeTimestamp(&r)
	return finish(&r, MsgRead+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *WriteReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idWriteReq)
	buf = binenc.AppendString(buf, m.TxnID)
	buf = binenc.AppendString(buf, string(m.ID))
	return binenc.AppendBytes(buf, m.Value)
}

// UnmarshalBinary implements the binary wire codec.
func (m *WriteReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idWriteReq)
	if err != nil {
		return err
	}
	m.TxnID = r.String()
	m.ID = txn.ItemID(r.String())
	m.Value = r.Bytes()
	return finish(&r, MsgWrite)
}

// AppendBinary implements the binary wire codec.
func (m *WriteResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idWriteResp)
	buf = binenc.AppendBytes(buf, m.OldVal)
	buf = m.RTS.AppendBinary(buf)
	return m.WTS.AppendBinary(buf)
}

// UnmarshalBinary implements the binary wire codec.
func (m *WriteResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idWriteResp)
	if err != nil {
		return err
	}
	m.OldVal = r.Bytes()
	m.RTS = txn.DecodeTimestamp(&r)
	m.WTS = txn.DecodeTimestamp(&r)
	return finish(&r, MsgWrite+" resp")
}

// --- termination ---

// AppendBinary implements the binary wire codec.
func (m *EndTxnReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idEndTxnReq)
	return identity.AppendEnvelope(buf, &m.TxnEnvelope)
}

// UnmarshalBinary implements the binary wire codec.
func (m *EndTxnReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idEndTxnReq)
	if err != nil {
		return err
	}
	if err := identity.DecodeEnvelope(&r, &m.TxnEnvelope); err != nil {
		return err
	}
	return finish(&r, MsgEndTxn)
}

// AppendBinary implements the binary wire codec.
func (m *EndTxnResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idEndTxnResp)
	buf = binenc.AppendBool(buf, m.Committed)
	buf = binenc.AppendBool(buf, m.Rejected)
	buf = m.LatestTS.AppendBinary(buf)
	return appendBlockPtr(buf, m.Block)
}

// UnmarshalBinary implements the binary wire codec.
func (m *EndTxnResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idEndTxnResp)
	if err != nil {
		return err
	}
	m.Committed = r.Bool()
	m.Rejected = r.Bool()
	m.LatestTS = txn.DecodeTimestamp(&r)
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	return finish(&r, MsgEndTxn+" resp")
}

// --- TFCommit phases ---

// AppendBinary implements the binary wire codec.
func (m *GetVoteReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idGetVoteReq)
	buf = appendBlockPtr(buf, m.Block)
	return appendEnvelopes(buf, m.ClientReqs)
}

// UnmarshalBinary implements the binary wire codec.
func (m *GetVoteReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idGetVoteReq)
	if err != nil {
		return err
	}
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	if m.ClientReqs, err = decodeEnvelopes(&r); err != nil {
		return err
	}
	return finish(&r, MsgGetVote)
}

// AppendBinary implements the binary wire codec.
func (m *VoteResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idVoteResp)
	buf = binenc.AppendByte(buf, byte(m.Vote))
	buf = binenc.AppendBool(buf, m.Involved)
	buf = binenc.AppendBytes(buf, m.Root)
	buf = binenc.AppendBytes(buf, m.Commitment)
	buf = binenc.AppendUvarint(buf, uint64(len(m.TxnAborts)))
	for _, idx := range m.TxnAborts {
		buf = binenc.AppendUvarint(buf, uint64(idx))
	}
	return buf
}

// UnmarshalBinary implements the binary wire codec.
func (m *VoteResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idVoteResp)
	if err != nil {
		return err
	}
	m.Vote = ledger.Decision(r.Byte())
	m.Involved = r.Bool()
	m.Root = r.Bytes()
	m.Commitment = r.Bytes()
	m.TxnAborts = nil
	if n := r.Count(1); n > 0 {
		m.TxnAborts = make([]int, n)
		for i := range m.TxnAborts {
			m.TxnAborts[i] = int(r.Uvarint())
		}
	}
	return finish(&r, MsgGetVote+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *ChallengeReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idChallengeReq)
	buf = binenc.AppendBytes(buf, m.Challenge)
	buf = binenc.AppendBytes(buf, m.AggCommitment)
	return appendBlockPtr(buf, m.Block)
}

// UnmarshalBinary implements the binary wire codec.
func (m *ChallengeReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idChallengeReq)
	if err != nil {
		return err
	}
	m.Challenge = r.Bytes()
	m.AggCommitment = r.Bytes()
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	return finish(&r, MsgChallenge)
}

// AppendBinary implements the binary wire codec.
func (m *ChallengeResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idChallengeResp)
	return binenc.AppendBytes(buf, m.Response)
}

// UnmarshalBinary implements the binary wire codec.
func (m *ChallengeResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idChallengeResp)
	if err != nil {
		return err
	}
	m.Response = r.Bytes()
	return finish(&r, MsgChallenge+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *DecisionReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idDecisionReq)
	return appendBlockPtr(buf, m.Block)
}

// UnmarshalBinary implements the binary wire codec.
func (m *DecisionReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idDecisionReq)
	if err != nil {
		return err
	}
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	return finish(&r, MsgDecision)
}

// AppendBinary implements the binary wire codec.
func (m *DecisionResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idDecisionResp)
	return binenc.AppendBool(buf, m.OK)
}

// UnmarshalBinary implements the binary wire codec.
func (m *DecisionResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idDecisionResp)
	if err != nil {
		return err
	}
	m.OK = r.Bool()
	return finish(&r, MsgDecision+" resp")
}

// --- 2PC baseline ---

// AppendBinary implements the binary wire codec.
func (m *PrepareReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idPrepareReq)
	buf = appendBlockPtr(buf, m.Block)
	return appendEnvelopes(buf, m.ClientReqs)
}

// UnmarshalBinary implements the binary wire codec.
func (m *PrepareReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idPrepareReq)
	if err != nil {
		return err
	}
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	if m.ClientReqs, err = decodeEnvelopes(&r); err != nil {
		return err
	}
	return finish(&r, MsgPrepare)
}

// AppendBinary implements the binary wire codec.
func (m *PrepareResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idPrepareResp)
	return binenc.AppendByte(buf, byte(m.Vote))
}

// UnmarshalBinary implements the binary wire codec.
func (m *PrepareResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idPrepareResp)
	if err != nil {
		return err
	}
	m.Vote = ledger.Decision(r.Byte())
	return finish(&r, MsgPrepare+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *TwoPCDecisionReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idTwoPCDecisionReq)
	return appendBlockPtr(buf, m.Block)
}

// UnmarshalBinary implements the binary wire codec.
func (m *TwoPCDecisionReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idTwoPCDecisionReq)
	if err != nil {
		return err
	}
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	return finish(&r, Msg2PCDecision)
}

// AppendBinary implements the binary wire codec.
func (m *TwoPCDecisionResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idTwoPCDecisionResp)
	return binenc.AppendBool(buf, m.OK)
}

// UnmarshalBinary implements the binary wire codec.
func (m *TwoPCDecisionResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idTwoPCDecisionResp)
	if err != nil {
		return err
	}
	m.OK = r.Bool()
	return finish(&r, Msg2PCDecision+" resp")
}

// --- audit ---

// AppendBinary implements the binary wire codec.
func (m *FetchLogReq) AppendBinary(buf []byte) []byte {
	return appendHeader(buf, idFetchLogReq)
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchLogReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchLogReq)
	if err != nil {
		return err
	}
	return finish(&r, MsgFetchLog)
}

// AppendBinary implements the binary wire codec.
func (m *FetchLogResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchLogResp)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		buf = appendBlockPtr(buf, b)
	}
	return buf
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchLogResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchLogResp)
	if err != nil {
		return err
	}
	m.Blocks = nil
	if n := r.Count(1); n > 0 {
		m.Blocks = make([]*ledger.Block, n)
		for i := range m.Blocks {
			if m.Blocks[i], err = decodeBlockPtr(&r); err != nil {
				return err
			}
			// A log never legitimately contains a hole; rejecting nil here
			// keeps a byzantine server from smuggling one into the auditor.
			if m.Blocks[i] == nil {
				return fmt.Errorf("wire: decode %s resp: nil block at index %d", MsgFetchLog, i)
			}
		}
	}
	return finish(&r, MsgFetchLog+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *FetchProofReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchProofReq)
	buf = binenc.AppendString(buf, string(m.ID))
	buf = binenc.AppendBool(buf, m.AtVersion)
	return m.TS.AppendBinary(buf)
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchProofReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchProofReq)
	if err != nil {
		return err
	}
	m.ID = txn.ItemID(r.String())
	m.AtVersion = r.Bool()
	m.TS = txn.DecodeTimestamp(&r)
	return finish(&r, MsgFetchProof)
}

// AppendBinary implements the binary wire codec.
func (m *FetchProofResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchProofResp)
	buf = binenc.AppendBytes(buf, m.LeafContent)
	return m.Proof.AppendBinary(buf)
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchProofResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchProofResp)
	if err != nil {
		return err
	}
	m.LeafContent = r.Bytes()
	if err := merkle.DecodeProof(&r, &m.Proof); err != nil {
		return err
	}
	return finish(&r, MsgFetchProof+" resp")
}

// --- light client ---

// AppendBinary implements the binary wire codec.
func (m *FetchHeadersReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchHeadersReq)
	buf = binenc.AppendUint64(buf, m.From)
	return binenc.AppendUint32(buf, m.Max)
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchHeadersReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchHeadersReq)
	if err != nil {
		return err
	}
	m.From = r.Uint64()
	m.Max = r.Uint32()
	return finish(&r, MsgFetchHeaders)
}

// AppendBinary implements the binary wire codec.
func (m *FetchHeadersResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchHeadersResp)
	buf = binenc.AppendUint64(buf, m.Tip)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Headers)))
	for _, h := range m.Headers {
		buf = h.AppendBinary(buf)
	}
	return buf
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchHeadersResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchHeadersResp)
	if err != nil {
		return err
	}
	m.Tip = r.Uint64()
	m.Headers = nil
	// Minimum header encoding: version byte + fixed height + six empty
	// length prefixes.
	if n := r.Count(9); n > 0 {
		m.Headers = make([]*ledger.Header, n)
		for i := range m.Headers {
			h := new(ledger.Header)
			if err := ledger.DecodeHeader(&r, h); err != nil {
				return err
			}
			m.Headers[i] = h
		}
	}
	return finish(&r, MsgFetchHeaders+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *VerifiedReadReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idVerifiedReadReq)
	buf = binenc.AppendUvarint(buf, uint64(len(m.IDs)))
	for _, id := range m.IDs {
		buf = binenc.AppendString(buf, string(id))
	}
	buf = binenc.AppendBool(buf, m.Pinned)
	return binenc.AppendUint64(buf, m.AtHeight)
}

// UnmarshalBinary implements the binary wire codec.
func (m *VerifiedReadReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idVerifiedReadReq)
	if err != nil {
		return err
	}
	m.IDs = nil
	if n := r.Count(1); n > 0 {
		m.IDs = make([]txn.ItemID, n)
		for i := range m.IDs {
			m.IDs[i] = txn.ItemID(r.String())
		}
	}
	m.Pinned = r.Bool()
	m.AtHeight = r.Uint64()
	return finish(&r, MsgVerifiedRead)
}

func appendVerifiedItem(buf []byte, it *VerifiedItem) []byte {
	buf = binenc.AppendString(buf, string(it.ID))
	buf = binenc.AppendBytes(buf, it.Value)
	buf = it.RTS.AppendBinary(buf)
	return it.WTS.AppendBinary(buf)
}

func decodeVerifiedItem(r *binenc.Reader, it *VerifiedItem) {
	it.ID = txn.ItemID(r.String())
	it.Value = r.Bytes()
	it.RTS = txn.DecodeTimestamp(r)
	it.WTS = txn.DecodeTimestamp(r)
}

// AppendBinary implements the binary wire codec.
func (m *VerifiedReadResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idVerifiedReadResp)
	buf = binenc.AppendUint64(buf, m.Height)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Items)))
	for i := range m.Items {
		buf = appendVerifiedItem(buf, &m.Items[i])
	}
	return m.Proof.AppendBinary(buf)
}

// UnmarshalBinary implements the binary wire codec.
func (m *VerifiedReadResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idVerifiedReadResp)
	if err != nil {
		return err
	}
	m.Height = r.Uint64()
	m.Items = nil
	// Minimum item encoding: two length prefixes + two timestamps.
	if n := r.Count(2 + 2*txn.TimestampEncSize); n > 0 {
		m.Items = make([]VerifiedItem, n)
		for i := range m.Items {
			decodeVerifiedItem(&r, &m.Items[i])
		}
	}
	if err := merkle.DecodeMultiProof(&r, &m.Proof); err != nil {
		return err
	}
	return finish(&r, MsgVerifiedRead+" resp")
}

// --- decision recovery & catch-up ---

// AppendBinary implements the binary wire codec.
func (m *AskDecisionReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idAskDecisionReq)
	return binenc.AppendUint64(buf, m.Height)
}

// UnmarshalBinary implements the binary wire codec.
func (m *AskDecisionReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idAskDecisionReq)
	if err != nil {
		return err
	}
	m.Height = r.Uint64()
	return finish(&r, MsgAskDecision)
}

// AppendBinary implements the binary wire codec.
func (m *AskDecisionResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idAskDecisionResp)
	buf = binenc.AppendUint64(buf, m.Tip)
	return appendBlockPtr(buf, m.Block)
}

// UnmarshalBinary implements the binary wire codec.
func (m *AskDecisionResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idAskDecisionResp)
	if err != nil {
		return err
	}
	m.Tip = r.Uint64()
	if m.Block, err = decodeBlockPtr(&r); err != nil {
		return err
	}
	return finish(&r, MsgAskDecision+" resp")
}

// AppendBinary implements the binary wire codec.
func (m *FetchBlocksReq) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchBlocksReq)
	buf = binenc.AppendUint64(buf, m.From)
	return binenc.AppendUint32(buf, m.Max)
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchBlocksReq) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchBlocksReq)
	if err != nil {
		return err
	}
	m.From = r.Uint64()
	m.Max = r.Uint32()
	return finish(&r, MsgFetchBlocks)
}

// AppendBinary implements the binary wire codec.
func (m *FetchBlocksResp) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idFetchBlocksResp)
	buf = binenc.AppendUint64(buf, m.Tip)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		buf = appendBlockPtr(buf, b)
	}
	return buf
}

// UnmarshalBinary implements the binary wire codec.
func (m *FetchBlocksResp) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idFetchBlocksResp)
	if err != nil {
		return err
	}
	m.Tip = r.Uint64()
	m.Blocks = nil
	if n := r.Count(1); n > 0 {
		m.Blocks = make([]*ledger.Block, n)
		for i := range m.Blocks {
			if m.Blocks[i], err = decodeBlockPtr(&r); err != nil {
				return err
			}
			// A log suffix never legitimately contains a hole; rejecting nil
			// keeps a byzantine peer from wedging the verifier downstream.
			if m.Blocks[i] == nil {
				return fmt.Errorf("wire: decode %s resp: nil block at index %d", MsgFetchBlocks, i)
			}
		}
	}
	return finish(&r, MsgFetchBlocks+" resp")
}

// --- watchtower ---

func appendHeaderPtr(buf []byte, h *ledger.Header) []byte {
	if h == nil {
		return binenc.AppendBool(buf, false)
	}
	buf = binenc.AppendBool(buf, true)
	return h.AppendBinary(buf)
}

func decodeHeaderPtr(r *binenc.Reader) (*ledger.Header, error) {
	if !r.Bool() {
		return nil, r.Err()
	}
	h := new(ledger.Header)
	if err := ledger.DecodeHeader(r, h); err != nil {
		return nil, err
	}
	return h, nil
}

func appendItemIDs(buf []byte, ids []txn.ItemID) []byte {
	buf = binenc.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binenc.AppendString(buf, string(id))
	}
	return buf
}

func decodeItemIDs(r *binenc.Reader) []txn.ItemID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ids := make([]txn.ItemID, n)
	for i := range ids {
		ids[i] = txn.ItemID(r.String())
	}
	return ids
}

// appendNested frames an inner message as a length-prefixed byte field, so
// optional embedded messages (a served VerifiedReadResp, a served VO) reuse
// their own codec verbatim, header included.
func appendNested(buf []byte, m binaryMessage) []byte {
	if m == nil {
		return binenc.AppendBool(buf, false)
	}
	buf = binenc.AppendBool(buf, true)
	return binenc.AppendBytes(buf, m.AppendBinary(nil))
}

func decodeNested(r *binenc.Reader, m binaryMessage) (bool, error) {
	if !r.Bool() {
		return false, r.Err()
	}
	raw := r.Bytes()
	if err := r.Err(); err != nil {
		return false, err
	}
	if err := m.UnmarshalBinary(raw); err != nil {
		return false, err
	}
	return true, nil
}

// AppendBinary implements the binary wire codec.
func (m *EvidenceBundle) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idEvidenceBundle)
	buf = binenc.AppendString(buf, m.Kind)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Accused)))
	for _, id := range m.Accused {
		buf = binenc.AppendString(buf, string(id))
	}
	buf = binenc.AppendUint64(buf, m.Height)
	buf = binenc.AppendString(buf, string(m.Item))
	buf = binenc.AppendString(buf, m.TxnID)
	buf = binenc.AppendString(buf, m.Detail)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		buf = appendBlockPtr(buf, b)
	}
	buf = appendHeaderPtr(buf, m.Anchor)
	buf = appendHeaderPtr(buf, m.BadHeader)
	buf = appendItemIDs(buf, m.ReadIDs)
	if m.Read == nil {
		buf = appendNested(buf, nil)
	} else {
		buf = appendNested(buf, m.Read)
	}
	if m.Proof == nil {
		buf = appendNested(buf, nil)
	} else {
		buf = appendNested(buf, m.Proof)
	}
	return buf
}

// UnmarshalBinary implements the binary wire codec.
func (m *EvidenceBundle) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idEvidenceBundle)
	if err != nil {
		return err
	}
	m.Kind = r.String()
	m.Accused = nil
	if n := r.Count(1); n > 0 {
		m.Accused = make([]identity.NodeID, n)
		for i := range m.Accused {
			m.Accused[i] = identity.NodeID(r.String())
		}
	}
	m.Height = r.Uint64()
	m.Item = txn.ItemID(r.String())
	m.TxnID = r.String()
	m.Detail = r.String()
	m.Blocks = nil
	if n := r.Count(1); n > 0 {
		m.Blocks = make([]*ledger.Block, n)
		for i := range m.Blocks {
			if m.Blocks[i], err = decodeBlockPtr(&r); err != nil {
				return err
			}
			// Replay evidence never legitimately contains a hole.
			if m.Blocks[i] == nil {
				return fmt.Errorf("wire: decode %s: nil block at index %d", MsgEvidenceBundle, i)
			}
		}
	}
	if m.Anchor, err = decodeHeaderPtr(&r); err != nil {
		return err
	}
	if m.BadHeader, err = decodeHeaderPtr(&r); err != nil {
		return err
	}
	m.ReadIDs = decodeItemIDs(&r)
	m.Read = nil
	read := new(VerifiedReadResp)
	if ok, err := decodeNested(&r, read); err != nil {
		return err
	} else if ok {
		m.Read = read
	}
	m.Proof = nil
	proof := new(FetchProofResp)
	if ok, err := decodeNested(&r, proof); err != nil {
		return err
	} else if ok {
		m.Proof = proof
	}
	return finish(&r, MsgEvidenceBundle)
}

// AppendBinary implements the binary wire codec.
func (m *IntegrityStatus) AppendBinary(buf []byte) []byte {
	buf = appendHeader(buf, idIntegrityStatus)
	buf = binenc.AppendString(buf, string(m.Watcher))
	buf = binenc.AppendUint64(buf, m.Tip)
	buf = binenc.AppendUint64(buf, m.Verified)
	buf = binenc.AppendUint64(buf, m.Lag)
	buf = binenc.AppendUint64(buf, m.BlocksVerified)
	buf = binenc.AppendUint64(buf, m.SampledReads)
	buf = binenc.AppendUint64(buf, m.Findings)
	buf = binenc.AppendUvarint(buf, uint64(len(m.Alerts)))
	for i := range m.Alerts {
		buf = binenc.AppendString(buf, m.Alerts[i].Rule)
		buf = binenc.AppendString(buf, m.Alerts[i].Severity)
		buf = binenc.AppendString(buf, m.Alerts[i].Message)
	}
	return binenc.AppendBool(buf, m.Healthy)
}

// UnmarshalBinary implements the binary wire codec.
func (m *IntegrityStatus) UnmarshalBinary(data []byte) error {
	r, err := openHeader(data, idIntegrityStatus)
	if err != nil {
		return err
	}
	m.Watcher = identity.NodeID(r.String())
	m.Tip = r.Uint64()
	m.Verified = r.Uint64()
	m.Lag = r.Uint64()
	m.BlocksVerified = r.Uint64()
	m.SampledReads = r.Uint64()
	m.Findings = r.Uint64()
	m.Alerts = nil
	// Minimum alert encoding: three empty length prefixes.
	if n := r.Count(3); n > 0 {
		m.Alerts = make([]IntegrityAlert, n)
		for i := range m.Alerts {
			m.Alerts[i].Rule = r.String()
			m.Alerts[i].Severity = r.String()
			m.Alerts[i].Message = r.String()
		}
	}
	m.Healthy = r.Bool()
	return finish(&r, MsgIntegrityStatus)
}

// Decode decodes an arbitrary binary wire message from its self-describing
// header, returning the concrete message struct. It is the debugging and
// fuzzing entry point: any byte string either decodes into exactly one
// message type or fails with an error — never a panic.
func Decode(data []byte) (any, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: message shorter than header (%d bytes)", len(data))
	}
	m := newMessage(data[1])
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message id %d", data[1])
	}
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return m, nil
}

// binaryMessage is implemented by every wire message struct.
type binaryMessage interface {
	AppendBinary(buf []byte) []byte
	UnmarshalBinary(data []byte) error
}

// newMessage instantiates the message struct for a numeric id.
func newMessage(id byte) binaryMessage {
	switch id {
	case idBeginTxnReq:
		return new(BeginTxnReq)
	case idBeginTxnResp:
		return new(BeginTxnResp)
	case idReadReq:
		return new(ReadReq)
	case idReadResp:
		return new(ReadResp)
	case idWriteReq:
		return new(WriteReq)
	case idWriteResp:
		return new(WriteResp)
	case idEndTxnReq:
		return new(EndTxnReq)
	case idEndTxnResp:
		return new(EndTxnResp)
	case idGetVoteReq:
		return new(GetVoteReq)
	case idVoteResp:
		return new(VoteResp)
	case idChallengeReq:
		return new(ChallengeReq)
	case idChallengeResp:
		return new(ChallengeResp)
	case idDecisionReq:
		return new(DecisionReq)
	case idDecisionResp:
		return new(DecisionResp)
	case idPrepareReq:
		return new(PrepareReq)
	case idPrepareResp:
		return new(PrepareResp)
	case idTwoPCDecisionReq:
		return new(TwoPCDecisionReq)
	case idTwoPCDecisionResp:
		return new(TwoPCDecisionResp)
	case idFetchLogReq:
		return new(FetchLogReq)
	case idFetchLogResp:
		return new(FetchLogResp)
	case idFetchProofReq:
		return new(FetchProofReq)
	case idFetchProofResp:
		return new(FetchProofResp)
	case idFetchHeadersReq:
		return new(FetchHeadersReq)
	case idFetchHeadersResp:
		return new(FetchHeadersResp)
	case idVerifiedReadReq:
		return new(VerifiedReadReq)
	case idVerifiedReadResp:
		return new(VerifiedReadResp)
	case idAskDecisionReq:
		return new(AskDecisionReq)
	case idAskDecisionResp:
		return new(AskDecisionResp)
	case idFetchBlocksReq:
		return new(FetchBlocksReq)
	case idFetchBlocksResp:
		return new(FetchBlocksResp)
	case idEvidenceBundle:
		return new(EvidenceBundle)
	case idIntegrityStatus:
		return new(IntegrityStatus)
	default:
		return nil
	}
}
