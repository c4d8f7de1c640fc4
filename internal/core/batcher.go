package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/txn"
	"repro/internal/wire"
)

// BlockCommitter terminates a batch of transactions in one protocol round;
// implemented by adapters over tfcommit.Coordinator and twopc.Coordinator.
// On an aborted block, failed itemizes the batch indices that cohorts
// vetoed (empty when unknown).
type BlockCommitter interface {
	CommitBlock(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope) (block *ledger.Block, committed bool, failed []int, err error)
}

// RetryCommitter is an optional BlockCommitter capability: the committer
// claims chain positions in EnqueueBlockRetry call order and runs the §4.6
// prune-and-retry policy itself, at the block's held position. The
// pipeline adapter implements it — re-enqueueing a pruned retry would land
// it behind later blocks whose timestamps have already advanced past its
// own, dooming the retry — so the batcher delegates pruning to the
// committer when it can.
//
// EnqueueBlockRetry must claim the chain position before returning: the
// batcher calls it from its dispatch loop so chain order equals dispatch
// order — and therefore timestamp-watermark order — even though the rounds
// themselves run concurrently. (Claiming inside a dispatched goroutine
// would let a later, higher-timestamped block race to an earlier height
// and spuriously abort the earlier block as wholly stale.) The returned
// wait blocks until the round completes. dropped is invoked for each
// pruned transaction index with the abort block that vetoed it, strictly
// before wait returns; the block wait returns applies to all remaining
// transactions.
type RetryCommitter interface {
	EnqueueBlockRetry(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope, maxPrunes int, dropped func(idx int, abortBlock *ledger.Block)) (wait func() (block *ledger.Block, committed bool, err error), err error)
}

// Batcher is the coordinator's termination service: it queues client
// end_transaction requests, packs them into blocks of non-conflicting
// transactions (paper §4.6: "the coordinator collects and inserts a set of
// non-conflicting client generated transactions and orders them within a
// single block"), runs the commit protocol block after block, and
// distributes the signed decisions back to the waiting clients.
//
// With depth 1 blocks are produced strictly sequentially. With depth K > 1
// the batcher feeds a commit pipeline (tfcommit.Pipeline): up to K blocks
// are dispatched concurrently, and block assembly for height h+1 overlaps
// the commit protocol of height h. Two admission rules keep the pipelined
// schedule equivalent to a serial one:
//
//   - No transaction conflicting with an in-flight block is admitted (its
//     OCC outcome would depend on whether the in-flight block has applied
//     yet); it is deferred until that block completes.
//   - The stale-timestamp watermark advances speculatively at dispatch
//     time, so a later block only carries timestamps above everything in
//     flight. If an in-flight block aborts the watermark stays advanced —
//     over-rejection is always legal (§4.3.1 lets servers reject any
//     stale-looking timestamp; the client simply retries with a fresh one).
type Batcher struct {
	committer BlockCommitter
	reg       *identity.Registry
	verifier  crypto.Verifier
	batchSize int
	maxWait   time.Duration
	depth     int
	o         *obs.Obs

	terminateHist *obs.Histogram
	batchTxns     *obs.Histogram

	queue chan *pendingTxn
	wake  chan struct{} // nudges gather when an in-flight block completes

	mu        sync.Mutex
	lastMax   txn.Timestamp
	inflight  []*blockFootprint // item sets of dispatched, unfinished blocks
	closed    bool
	closeOnce sync.Once
	stopped   chan struct{}
	drained   chan struct{} // closed once Close has failed every queued request
	wg        sync.WaitGroup
}

// blockFootprint is the item set of one dispatched block, held until its
// commit round completes so later admissions can avoid conflicting with it.
type blockFootprint struct {
	reads  map[txn.ItemID]struct{}
	writes map[txn.ItemID]struct{}
}

// conflictsWith reports whether t's OCC outcome could depend on the
// in-flight block: it reads an item the block writes, or writes an item the
// block reads or writes (mirrors txn.Transaction.Conflicts across blocks).
func (f *blockFootprint) conflictsWith(t *txn.Transaction) bool {
	for _, r := range t.Reads {
		if _, ok := f.writes[r.ID]; ok {
			return true
		}
	}
	for _, w := range t.Writes {
		if _, ok := f.writes[w.ID]; ok {
			return true
		}
		if _, ok := f.reads[w.ID]; ok {
			return true
		}
	}
	return false
}

func footprintOf(batch []*pendingTxn) *blockFootprint {
	f := &blockFootprint{
		reads:  make(map[txn.ItemID]struct{}),
		writes: make(map[txn.ItemID]struct{}),
	}
	for _, p := range batch {
		for _, r := range p.t.Reads {
			f.reads[r.ID] = struct{}{}
		}
		for _, w := range p.t.Writes {
			f.writes[w.ID] = struct{}{}
		}
	}
	return f
}

type pendingTxn struct {
	t    *txn.Transaction
	env  identity.Envelope
	resp chan termResult
	// sc is the client's commit-trace context (propagated in the
	// authenticated frame); the block's protocol round adopts the first
	// traced transaction's context so the round nests under its trace.
	sc obs.SpanContext
}

type termResult struct {
	resp *wire.EndTxnResp
	err  error
}

// ErrBatcherClosed is returned for requests submitted after Close.
var ErrBatcherClosed = errors.New("core: termination service closed")

// NewBatcher creates a sequential termination service producing blocks of
// up to batchSize transactions, waiting at most maxWait after the first
// queued transaction before sealing a partial block.
func NewBatcher(committer BlockCommitter, reg *identity.Registry, batchSize int, maxWait time.Duration) *Batcher {
	return NewPipelinedBatcher(committer, reg, batchSize, maxWait, 1)
}

// NewPipelinedBatcher creates a termination service that keeps up to depth
// blocks in flight through the committer at once (depth 1 is the strictly
// sequential service of NewBatcher). The committer must tolerate depth
// concurrent CommitBlock calls; tfcommit.Pipeline does.
func NewPipelinedBatcher(committer BlockCommitter, reg *identity.Registry, batchSize int, maxWait time.Duration, depth int) *Batcher {
	return NewPipelinedBatcherObs(committer, reg, batchSize, maxWait, depth, nil)
}

// NewPipelinedBatcherObs is NewPipelinedBatcher with an observability
// bundle: terminate latency and block-size instruments, plus trace
// propagation from client commit spans into the protocol rounds.
func NewPipelinedBatcherObs(committer BlockCommitter, reg *identity.Registry, batchSize int, maxWait time.Duration, depth int, o *obs.Obs) *Batcher {
	if batchSize < 1 {
		batchSize = 1
	}
	if maxWait <= 0 {
		maxWait = 2 * time.Millisecond
	}
	if depth < 1 {
		depth = 1
	}
	b := &Batcher{
		committer:     committer,
		reg:           reg,
		verifier:      crypto.NewSerial(reg),
		batchSize:     batchSize,
		maxWait:       maxWait,
		depth:         depth,
		o:             o,
		terminateHist: o.Histogram("fides_batcher_terminate_seconds", "Terminate latency at the coordinator's batching service: request admitted to decision distributed.", nil),
		batchTxns:     o.Histogram("fides_batcher_block_txns", "Transactions packed per dispatched block.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		queue:         make(chan *pendingTxn, 16*batchSize+64),
		wake:          make(chan struct{}, 1),
		stopped:       make(chan struct{}),
		drained:       make(chan struct{}),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

var _ server.Terminator = (*Batcher)(nil)

// SetVerifier replaces the batcher's verification plane (serial over the
// registry by default). Concurrent Terminate calls route their envelope
// checks through it — the batched backend coalesces them into worker-pool
// batches via Submit. Call before the batcher starts serving requests.
func (b *Batcher) SetVerifier(v crypto.Verifier) {
	if v != nil {
		b.verifier = v
	}
}

// Terminate implements server.Terminator: verify the client's signed
// request, enqueue it, and wait for its block's decision.
func (b *Batcher) Terminate(ctx context.Context, env identity.Envelope) (*wire.EndTxnResp, error) {
	start := time.Now()
	ctx, span := b.o.Start(ctx, "batcher.terminate")
	defer func() {
		span.End()
		b.terminateHist.ObserveSince(start)
	}()
	// Signature check through the verification plane: Submit lets the
	// batched backend coalesce the envelope with other in-flight Terminate
	// calls into one worker-pool batch; the payload then decodes against
	// the already-verified bytes.
	if _, err := b.verifier.Submit(env).Wait(ctx); err != nil {
		return nil, fmt.Errorf("core: client request: %w", err)
	}
	t, err := server.DecodeTxnEnvelopeTrusted(env)
	if err != nil {
		return nil, err
	}
	span.SetAttr("txn", t.ID)
	// "The servers ignore any end transaction request with a timestamp
	// lower than the latest committed timestamp" (§4.3.1). Rejecting here —
	// with a clock hint — spares the whole batch from a doomed block.
	b.mu.Lock()
	lastMax := b.lastMax
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return nil, ErrBatcherClosed
	}
	if !lastMax.Less(t.TS) {
		return &wire.EndTxnResp{Rejected: true, LatestTS: lastMax}, nil
	}

	p := &pendingTxn{t: t, env: env, resp: make(chan termResult, 1)}
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		p.sc = sc
	}
	select {
	case b.queue <- p:
	case <-b.stopped:
		return nil, ErrBatcherClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-p.resp:
		return r.resp, r.err
	case <-b.drained:
		// Every answer the batcher will ever give has been sent by now —
		// in-flight blocks finish before the drain — so an empty p.resp
		// means p reached the queue after it was drained.
		select {
		case r := <-p.resp:
			return r.resp, r.err
		default:
			return nil, ErrBatcherClosed
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Observe advances the service's last-committed watermark. Recovery seeds
// it so a restarted coordinator keeps enforcing §4.3.1's stale-timestamp
// rejection from where the recovered log left off.
func (b *Batcher) Observe(ts txn.Timestamp) {
	b.mu.Lock()
	b.lastMax = b.lastMax.Max(ts)
	b.mu.Unlock()
}

// Close stops the batching loop and fails queued requests. Blocks already
// in flight finish first, so their clients get the real decision.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.stopped)
		b.wg.Wait()
		for {
			select {
			case p := <-b.queue:
				p.resp <- termResult{err: ErrBatcherClosed}
			default:
				close(b.drained)
				return
			}
		}
	})
}

// run is the block-production loop: strictly sequential at depth 1, a
// bounded-concurrency dispatcher otherwise.
func (b *Batcher) run() {
	defer b.wg.Done()
	sem := make(chan struct{}, b.depth)
	var inflightWG sync.WaitGroup
	fail := func(ps []*pendingTxn) {
		for _, p := range ps {
			p.resp <- termResult{err: ErrBatcherClosed}
		}
	}
	var deferred []*pendingTxn
	for {
		// Reserve the dispatch slot BEFORE sealing a batch: while every
		// slot is busy, arrivals keep accumulating in the queue, so the
		// block sealed once a slot frees is as full as a serial round's
		// would have been (sealing first would chop the stream into
		// partial blocks and waste per-block protocol cost).
		if b.depth > 1 {
			select {
			case sem <- struct{}{}:
			case <-b.stopped:
				inflightWG.Wait()
				fail(deferred)
				return
			}
		}
		batch, rest, ok := b.gather(deferred)
		if !ok {
			// Let in-flight blocks finish normally (their clients get real
			// decisions), then fail everything still queued.
			inflightWG.Wait()
			fail(append(rest, batch...))
			return
		}
		deferred = rest
		if len(batch) == 0 {
			if b.depth > 1 {
				<-sem
			}
			continue
		}
		if b.depth == 1 {
			b.commitBatch(batch)
			continue
		}

		// Pipelined dispatch: publish the block's item footprint and
		// speculative watermark, claim the block's chain position — HERE,
		// in the dispatch loop, so commit order equals dispatch order and
		// therefore watermark order — then let the round run and its
		// results distribute in the background while this loop goes back
		// to assembling the next block.
		fp := footprintOf(batch)
		var maxTS txn.Timestamp
		for _, p := range batch {
			maxTS = maxTS.Max(p.t.TS)
		}
		b.mu.Lock()
		b.inflight = append(b.inflight, fp)
		b.lastMax = b.lastMax.Max(maxTS)
		b.mu.Unlock()
		finish := b.beginBatch(batch)
		inflightWG.Add(1)
		go func(batch []*pendingTxn, fp *blockFootprint, finish func()) {
			defer inflightWG.Done()
			defer func() { <-sem }()
			finish()
			b.mu.Lock()
			for i, g := range b.inflight {
				if g == fp {
					b.inflight = append(b.inflight[:i], b.inflight[i+1:]...)
					break
				}
			}
			b.mu.Unlock()
			// Nudge gather: transactions deferred for conflicting with
			// this block can be admitted now.
			select {
			case b.wake <- struct{}{}:
			default:
			}
		}(batch, fp, finish)
	}
}

// beginBatch starts one block's commit, claiming its chain position
// synchronously when the committer sequences positions (RetryCommitter),
// and returns the function that completes the round and answers the
// waiting clients.
func (b *Batcher) beginBatch(batch []*pendingTxn) func() {
	if rc, ok := b.committer.(RetryCommitter); ok {
		return b.enqueueBatchVia(rc, batch, maxPrunes)
	}
	return func() { b.commitBatch(batch) }
}

// gather assembles the next block's worth of mutually non-conflicting
// transactions: deferred transactions from earlier rounds first, then fresh
// arrivals until the block is full or maxWait has elapsed since the first
// arrival. Conflicting or stale-timestamp transactions are pushed to the
// next round / rejected respectively; in pipelined mode, transactions
// conflicting with an in-flight block are deferred the same way.
func (b *Batcher) gather(deferred []*pendingTxn) (batch, rest []*pendingTxn, ok bool) {
	b.mu.Lock()
	lastMax := b.lastMax
	inflight := append([]*blockFootprint(nil), b.inflight...)
	b.mu.Unlock()

	admit := func(p *pendingTxn, batch []*pendingTxn) ([]*pendingTxn, bool) {
		if !lastMax.Less(p.t.TS) {
			p.resp <- termResult{resp: &wire.EndTxnResp{Rejected: true, LatestTS: lastMax}}
			return batch, true
		}
		for _, f := range inflight {
			if f.conflictsWith(p.t) {
				return batch, false
			}
		}
		for _, q := range batch {
			if p.t.Conflicts(q.t) {
				return batch, false
			}
		}
		return append(batch, p), true
	}

	for i, p := range deferred {
		if len(batch) >= b.batchSize {
			// Re-queue what we cannot fit this round.
			return batch, append(rest, deferred[i:]...), true
		}
		var admitted bool
		if batch, admitted = admit(p, batch); !admitted {
			rest = append(rest, p)
		}
	}

	if len(batch) == 0 {
		// Block for the first transaction — or, with deferrals pending, for
		// an in-flight block to complete so the deferrals can be retried.
		select {
		case p := <-b.queue:
			var admitted bool
			if batch, admitted = admit(p, batch); !admitted {
				rest = append(rest, p)
			}
		case <-b.wakeC(len(rest) > 0):
			return batch, rest, true
		case <-b.stopped:
			return batch, rest, false
		}
	}

	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	for len(batch) < b.batchSize {
		select {
		case p := <-b.queue:
			var admitted bool
			if batch, admitted = admit(p, batch); !admitted {
				rest = append(rest, p)
			}
		case <-timer.C:
			return batch, rest, true
		case <-b.stopped:
			return batch, rest, false
		}
	}
	return batch, rest, true
}

// wakeC returns the completion-nudge channel when deferred transactions are
// waiting on it, or a never-ready channel otherwise (so an empty queue
// still blocks instead of spinning on stale wakes).
func (b *Batcher) wakeC(wantWake bool) <-chan struct{} {
	if wantWake {
		return b.wake
	}
	return nil
}

// commitBatch runs the commit protocol for one block and distributes the
// outcome to every waiting client. When cohorts veto individual
// transactions (stale reads discovered at validation), the vetoed ones are
// answered with the signed abort block and the block is retried with them
// pruned, so one stale transaction does not doom its batchmates — this is
// what sustains the ~100-transaction blocks of the paper's evaluation
// (§4.6, §6.2).
func (b *Batcher) commitBatch(batch []*pendingTxn) {
	if rc, ok := b.committer.(RetryCommitter); ok {
		b.enqueueBatchVia(rc, batch, maxPrunes)()
		return
	}
	remaining := batch
	bctx := b.batchCtx(batch)
	for round := 0; ; round++ {
		txns := make([]*txn.Transaction, len(remaining))
		envs := make([]identity.Envelope, len(remaining))
		for i, p := range remaining {
			txns[i] = p.t
			envs[i] = p.env
		}
		block, committed, failed, err := b.committer.CommitBlock(bctx, txns, envs)
		if err != nil {
			for _, p := range remaining {
				p.resp <- termResult{err: fmt.Errorf("core: block commit failed: %w", err)}
			}
			return
		}
		if committed {
			b.mu.Lock()
			b.lastMax = b.lastMax.Max(block.MaxTS())
			b.mu.Unlock()
			for _, p := range remaining {
				p.resp <- termResult{resp: &wire.EndTxnResp{Committed: true, Block: block}}
			}
			return
		}
		if len(failed) == 0 || len(failed) >= len(remaining) || round >= maxPrunes {
			for _, p := range remaining {
				p.resp <- termResult{resp: &wire.EndTxnResp{Committed: false, Block: block}}
			}
			return
		}
		failedSet := make(map[int]struct{}, len(failed))
		for _, idx := range failed {
			failedSet[idx] = struct{}{}
		}
		next := remaining[:0]
		for i, p := range remaining {
			if _, bad := failedSet[i]; bad {
				p.resp <- termResult{resp: &wire.EndTxnResp{Committed: false, Block: block}}
				continue
			}
			next = append(next, p)
		}
		remaining = next
	}
}

// maxPrunes bounds the §4.6 prune-and-retry rounds per block.
const maxPrunes = 4

// batchCtx is the context a block's protocol round runs under: detached
// from any single request's cancellation (the round must finish for every
// batchmate), but carrying the first traced transaction's span context so
// the round nests under that client's commit trace.
func (b *Batcher) batchCtx(batch []*pendingTxn) context.Context {
	b.batchTxns.Observe(float64(len(batch)))
	for _, p := range batch {
		if p.sc.Valid() {
			return obs.ContextWithSpanContext(context.Background(), p.sc)
		}
	}
	return context.Background()
}

// enqueueBatchVia claims one block's chain position through a
// position-sequencing committer — synchronously, so the caller controls
// commit order — and returns the function that completes the round and
// distributes the per-transaction outcomes: vetoed transactions get the
// abort block that dropped them, the rest share the final decision.
func (b *Batcher) enqueueBatchVia(rc RetryCommitter, batch []*pendingTxn, maxPrunes int) func() {
	txns := make([]*txn.Transaction, len(batch))
	envs := make([]identity.Envelope, len(batch))
	for i, p := range batch {
		txns[i] = p.t
		envs[i] = p.env
	}
	dropped := make([]bool, len(batch))
	// The callback runs in the committer's round goroutine strictly before
	// wait returns, so the dropped slice needs no locking.
	wait, err := rc.EnqueueBlockRetry(b.batchCtx(batch), txns, envs, maxPrunes, func(i int, abortBlock *ledger.Block) {
		dropped[i] = true
		batch[i].resp <- termResult{resp: &wire.EndTxnResp{Committed: false, Block: abortBlock}}
	})
	fail := func(err error) {
		for i, p := range batch {
			if !dropped[i] {
				p.resp <- termResult{err: fmt.Errorf("core: block commit failed: %w", err)}
			}
		}
	}
	if err != nil {
		return func() { fail(err) }
	}
	return func() {
		block, committed, err := wait()
		if err != nil {
			fail(err)
			return
		}
		if committed {
			b.mu.Lock()
			b.lastMax = b.lastMax.Max(block.MaxTS())
			b.mu.Unlock()
		}
		for i, p := range batch {
			if !dropped[i] {
				p.resp <- termResult{resp: &wire.EndTxnResp{Committed: committed, Block: block}}
			}
		}
	}
}
