package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/lightclient"
	"repro/internal/txn"
	"repro/internal/workload"
)

const (
	// Retry budget of one transaction plan, as in the figure harness:
	// re-executions after OCC aborts, and same-session re-commits after
	// stale-timestamp rejections.
	maxExecutions = 50
	maxRecommits  = 500

	// maxReadAttempts bounds the re-issues of one verified read that the
	// light client abandoned as stale.
	maxReadAttempts = 10

	// maxInflight caps outstanding open-loop requests; an arrival beyond
	// it is refused and counted as failed.
	maxInflight = 4096

	// rampUp is how long traffic runs before the measured window opens.
	rampUp = time.Second

	// quiesceTimeout bounds the wait for every server to apply the last
	// decisions after traffic stops.
	quiesceTimeout = 30 * time.Second
)

var errRetryBudget = errors.New("plan ran out of its retry budget")

type options struct {
	seed  int64
	phase time.Duration // length of the measured phase
	trace bool
	out   string // directory for WAL data and span files
}

// runner owns one workload run: the deployment under test and the
// harness state around it.
type runner struct {
	w       spec
	opt     options
	tr      *tracer            // nil when untraced
	sched   *countingScheduler // nil when untraced
	dataDir string
	items   []txn.ItemID

	cluster *core.Cluster
	lc      *lightclient.Client
	clients []*client.Client
	gens    []*workload.Generator // plan stream of each client

	mu        sync.Mutex
	committed map[string]bool // txn ids committed on the current deployment
}

func (r *runner) config() core.Config {
	cfg := core.Config{
		NumServers:      r.w.servers,
		ItemsPerShard:   r.w.itemsPerShard,
		BatchSize:       r.w.batch,
		BatchWait:       2 * time.Millisecond,
		NetworkLatency:  r.w.delay,
		Pipeline:        r.w.pipeline,
		DataDir:         r.dataDir,
		Fsync:           r.w.fsync,
		PreciseNetDelay: true,
	}
	if r.sched != nil {
		cfg.NetScheduler = r.sched
	}
	return cfg
}

// close shuts the current deployment down, if any.
func (r *runner) close() {
	if r.cluster != nil {
		r.cluster.Close()
	}
	r.cluster, r.lc, r.clients, r.gens = nil, nil, nil, nil
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	total, cluster, seed, sync, warm time.Duration
}

// setUp builds the deployment setupReps times from an empty data
// directory, keeping the last one for measurement.
func (r *runner) setUp(ctx context.Context, rec *recorder) ([]setupTimes, error) {
	var reps []setupTimes
	for i := 0; i < setupReps; i++ {
		r.close()
		if err := os.RemoveAll(r.dataDir); err != nil {
			return nil, fmt.Errorf("setup: clear data dir: %w", err)
		}
		runtime.GC() // the discarded deployment is not this one's cost
		st, err := r.deploy(ctx, rec)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		reps = append(reps, st)
	}
	return reps, nil
}

// deploy is one set-up: cluster, one committed write per shard (so every
// shard has a co-signed root to verify reads against), light-client sync,
// clients, and the warm-up.
func (r *runner) deploy(ctx context.Context, rec *recorder) (setupTimes, error) {
	var st setupTimes
	root := r.tr.id()
	start := time.Now()
	step := func(name string, d *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		*d = t1.Sub(t0)
		r.tr.child(root, root, "setup."+name, t0, t1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	r.committed = make(map[string]bool)

	err := step("cluster", &st.cluster, func() error {
		c, err := core.NewCluster(r.config())
		r.cluster = c
		if err == nil {
			r.items = c.Directory().Items()
		}
		return err
	})
	if err == nil {
		err = step("seed", &st.seed, func() error { return r.seedShards(ctx, root) })
	}
	if err == nil {
		err = step("sync", &st.sync, func() error {
			lc, err := r.cluster.NewLightClient()
			if err != nil {
				return err
			}
			r.lc = lc
			_, err = lc.Sync(ctx)
			return err
		})
	}
	if err == nil {
		err = step("warm", &st.warm, func() error {
			r.warmUp(ctx, rec)
			return nil
		})
	}
	if err != nil {
		return st, err
	}
	end := time.Now()
	st.total = end.Sub(start)
	r.tr.add(root, root, 0, "setup", start, end)
	return st, nil
}

// seedShards creates the clients and commits one write per shard, traced
// under the set-up's root span.
func (r *runner) seedShards(ctx context.Context, root uint64) error {
	ts := txn.NewSharedClock(1)
	n := max(r.w.clients, r.w.writePool)
	r.clients = make([]*client.Client, n)
	r.gens = make([]*workload.Generator, n)
	for i := range r.clients {
		cl, err := r.cluster.NewClientWithTS(ts)
		if err != nil {
			return err
		}
		gen, err := planGenerator(r.items, r.opt.seed, i)
		if err != nil {
			return err
		}
		r.clients[i], r.gens[i] = cl, gen
	}
	for s := 0; s < r.w.servers; s++ {
		plan := &workload.Plan{Ops: []workload.Op{{Kind: workload.OpWrite, Item: core.ItemName(s, 0), Value: []byte("seed")}}}
		if _, err := r.commitPlan(ctx, r.clients[0], plan, root, nil); err != nil {
			return err
		}
	}
	return nil
}

// warmUp runs the workload's warm-up transactions and reads closed-loop.
func (r *runner) warmUp(ctx context.Context, rec *recorder) {
	var txnsLeft atomic.Int64
	txnsLeft.Store(int64(r.w.warmTxns))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.closedLoop(ctx, func() bool { return txnsLeft.Add(-1) >= 0 }, rec)
	}()
	reads := pickReads(r.w, r.opt.seed, streamWarm, r.w.warmReads)
	var next atomic.Int64
	for i := 0; i < warmReaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(len(reads)); j = next.Add(1) - 1 {
				r.vread(ctx, reads[j], time.Now(), rec)
			}
		}()
	}
	wg.Wait()
}

// readPhase sends the workload's open-loop verified reads to the set-up
// deployment, with no other traffic, for readPhase, timed in one-second
// slots like the window.
func (r *runner) readPhase(ctx context.Context, rec *recorder) {
	start := time.Now()
	rec.measureWindow(start, r.w.readPhase)
	r.openLoop(ctx, start, readArrivals(r.w, r.opt.seed, streamReadPhase, r.w.readPhase), rec)
	id := r.tr.id()
	r.tr.add(id, id, 0, "read_phase", start, time.Now())
}

// catchUp brings the light client up to the chain the window left, a
// timed header sync.
func (r *runner) catchUp(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	_, err := r.lc.Sync(ctx)
	t1 := time.Now()
	id := r.tr.id()
	r.tr.add(id, id, 0, "sync", t0, t1)
	if err != nil {
		return 0, fmt.Errorf("light-client sync after the window: %w", err)
	}
	return t1.Sub(t0), nil
}

// closedLoop runs every client until more reports false: each client
// sends its next plan only after the previous one finished.
func (r *runner) closedLoop(ctx context.Context, more func() bool, rec *recorder) {
	var wg sync.WaitGroup
	for i := range r.clients {
		wg.Add(1)
		go func(cl *client.Client, gen *workload.Generator) {
			defer wg.Done()
			for more() {
				r.runTxn(ctx, cl, gen.Next(), time.Now(), rec)
			}
		}(r.clients[i], r.gens[i])
	}
	wg.Wait()
}

// openLoop dispatches arrivals from one goroutine at their due times,
// regardless of how many are still outstanding. A write waits for a free
// client but keeps its due time; a verified read goes out at once.
func (r *runner) openLoop(ctx context.Context, start time.Time, arrivals []arrival, rec *recorder) {
	pool := make(chan *client.Client, len(r.clients))
	for _, cl := range r.clients {
		pool <- cl
	}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	for _, a := range arrivals {
		due := start.Add(a.at)
		if err := preciseDelay(ctx, time.Until(due)); err != nil {
			break // cancelled: wait for what is outstanding
		}
		n := inflight.Add(1)
		rec.dispatched(due, time.Since(due), n)
		if n > maxInflight {
			inflight.Add(-1)
			rec.refused()
			continue
		}
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			defer inflight.Add(-1)
			if a.plan == nil {
				r.vread(ctx, a.ids, due, rec)
				return
			}
			cl := <-pool
			r.runTxn(ctx, cl, a.plan, due, rec)
			pool <- cl
		}(a)
	}
	wg.Wait()
}

// window is the layer state at the edges of the measured window, taken in
// traced runs only.
type window struct {
	before, after layerSnap
}

// measure runs traffic — closed-loop clients beside the open-loop
// arrivals — for rampUp and then for the measured window, and lets the
// outstanding requests drain. Only what completes inside the window is
// timed, so the window sees a steady state rather than every client
// starting at once.
func (r *runner) measure(ctx context.Context, rec *recorder) (*window, error) {
	arrivals, err := schedule(r.w, r.items, r.opt.seed, rampUp+r.opt.phase)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	open := start.Add(rampUp)
	stop := open.Add(r.opt.phase)
	rec.measureWindow(open, r.opt.phase)
	win := &window{}
	var sampleErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sampleErr = r.sample(open, stop, win)
	}()
	go func() {
		defer wg.Done()
		r.openLoop(ctx, start, arrivals, rec)
	}()
	if r.w.clients > 0 {
		r.closedLoop(ctx, func() bool { return time.Now().Before(stop) }, rec)
	}
	wg.Wait()
	id := r.tr.id()
	r.tr.add(id, id, 0, "window", open, stop)
	return win, sampleErr
}

// sample takes the layer snapshots at the window's edges in traced runs.
func (r *runner) sample(open, stop time.Time, win *window) error {
	if r.tr == nil {
		return nil
	}
	time.Sleep(time.Until(open))
	var err error
	if win.before, err = r.snapshotLayers(); err != nil {
		return err
	}
	time.Sleep(time.Until(stop))
	win.after, err = r.snapshotLayers()
	return err
}

// runTxn executes one plan to its committed decision and records it. Its
// latency runs from due — the scheduled arrival in an open loop, the
// first operation in a closed loop — to the committed decision, across
// every re-execution.
func (r *runner) runTxn(ctx context.Context, cl *client.Client, plan *workload.Plan, due time.Time, rec *recorder) {
	root := r.tr.id()
	var lay *txnLayers
	if r.tr != nil {
		lay = &txnLayers{}
	}
	calls, err := r.commitPlan(ctx, cl, plan, root, lay)
	end := time.Now()
	r.tr.add(root, root, 0, "txn", due, end)
	rec.txn(end, end.Sub(due), calls, err, lay)
}

// commitPlan re-executes the plan after aborts and re-commits the same
// session after stale-timestamp rejections, until it commits or the
// retry budget runs out. It returns the number of Commit calls made.
func (r *runner) commitPlan(ctx context.Context, cl *client.Client, plan *workload.Plan, root uint64, lay *txnLayers) (int, error) {
	calls := 0
	for exec := 0; exec < maxExecutions; exec++ {
		t0 := time.Now()
		s := cl.Begin()
		b1 := time.Now()
		r.tr.child(root, root, "begin", t0, b1)
		lay.op("begin", b1.Sub(t0))
		for _, op := range plan.Ops {
			o0 := time.Now()
			var err error
			name := "read"
			if op.Kind == workload.OpWrite {
				name = "write"
				err = s.Write(ctx, op.Item, op.Value)
			} else {
				_, err = s.Read(ctx, op.Item)
			}
			o1 := time.Now()
			r.tr.child(root, root, name, o0, o1)
			lay.op(name, o1.Sub(o0))
			if err != nil {
				return calls, err
			}
		}
		lay.execDone(time.Since(t0))
		for recommit := 0; recommit < maxRecommits; recommit++ {
			c0 := time.Now()
			res, err := s.Commit(ctx)
			c1 := time.Now()
			calls++
			r.tr.child(root, root, "commit", c0, c1)
			lay.op("commit", c1.Sub(c0))
			if err != nil {
				return calls, err
			}
			if res.Committed {
				r.mu.Lock()
				r.committed[s.ID()] = true
				r.mu.Unlock()
				return calls, nil
			}
			if !res.Rejected {
				break // aborted: re-execute with fresh reads
			}
		}
	}
	return calls, errRetryBudget
}

// vread performs one proof-carrying read and checks it returned every
// requested item, in order. A read the light client gave up on as stale —
// the shard root moved on again while it retried — is re-issued, like a
// transaction after an abort.
func (r *runner) vread(ctx context.Context, ids []txn.ItemID, due time.Time, rec *recorder) {
	var vals []lightclient.Value
	var err error
	reissued := 0
	for attempt := 0; attempt < maxReadAttempts; attempt++ {
		if vals, err = r.lc.ReadVerified(ctx, ids...); !errors.Is(err, lightclient.ErrStaleRead) {
			break
		}
		reissued++
	}
	if err == nil && len(vals) != len(ids) {
		err = fmt.Errorf("verified read returned %d values for %d items", len(vals), len(ids))
	}
	for i := 0; err == nil && i < len(vals); i++ {
		if vals[i].ID != ids[i] {
			err = fmt.Errorf("verified read returned %s for %s", vals[i].ID, ids[i])
		}
	}
	end := time.Now()
	id := r.tr.id()
	r.tr.add(id, id, 0, "vread", due, end)
	rec.vread(end, end.Sub(due), reissued, err)
}

// chain is the committed history after traffic stops.
type chain struct {
	blocks int
	txns   int // transactions in commit blocks
}

// verifyChain waits until every server has applied the same log, then
// checks that the commit blocks hold exactly the transactions the
// harness saw commit.
func (r *runner) verifyChain(ctx context.Context) (chain, error) {
	servers := r.cluster.Servers()
	tip := 0
	for _, id := range servers {
		tip = max(tip, r.cluster.Server(id).Log().Len())
	}
	for _, id := range servers {
		if err := r.cluster.Server(id).Log().WaitLen(ctx, uint64(tip), quiesceTimeout); err != nil {
			return chain{}, fmt.Errorf("server %s stuck below height %d: %w", id, tip, err)
		}
		if n := r.cluster.Server(id).Log().Len(); n != tip {
			return chain{}, fmt.Errorf("servers disagree on log height: %s has %d, want %d", id, n, tip)
		}
	}
	seen := make(map[string]int, len(r.committed))
	ch := chain{blocks: tip}
	for _, b := range r.cluster.ServerAt(0).Log().Blocks() {
		if b.Decision != ledger.DecisionCommit {
			continue
		}
		for _, t := range b.Txns {
			seen[t.TxnID]++
			ch.txns++
		}
	}
	if ch.txns != len(r.committed) {
		return ch, fmt.Errorf("chain holds %d committed txns, clients saw %d commit", ch.txns, len(r.committed))
	}
	for id := range r.committed {
		if seen[id] != 1 {
			return ch, fmt.Errorf("txn %s appears %d times in commit blocks", id, seen[id])
		}
	}
	return ch, nil
}

// serverState is what a restart must preserve on one server.
type serverState struct {
	height int
	root   string
}

func (r *runner) state() map[identity.NodeID]serverState {
	out := make(map[identity.NodeID]serverState)
	for _, id := range r.cluster.Servers() {
		srv := r.cluster.Server(id)
		out[id] = serverState{height: srv.Log().Len(), root: string(srv.Shard().Root())}
	}
	return out
}

// restart closes the deployment and rebuilds it on the same data
// directory — a full verified WAL replay on every server — and checks
// every server came back at the same height and shard root.
func (r *runner) restart() (time.Duration, error) {
	want := r.state()
	r.close()
	runtime.GC()
	t0 := time.Now()
	c, err := core.NewCluster(r.config())
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	id := r.tr.id()
	r.tr.add(id, id, 0, "recovery", t0, t1)
	r.cluster = c
	got := r.state()
	for srv, w := range want {
		if g := got[srv]; g != w {
			return 0, fmt.Errorf("recovery: server %s came back at height %d (root changed: %v), want height %d",
				srv, g.height, g.root != w.root, w.height)
		}
	}
	return t1.Sub(t0), nil
}

// audit runs one full audit, datastores included, and requires it clean.
func (r *runner) audit(ctx context.Context) (time.Duration, error) {
	a, err := r.cluster.NewAuditor()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	rep, err := a.Run(ctx, audit.Options{CheckDatastore: true})
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("audit: %w", err)
	}
	id := r.tr.id()
	r.tr.add(id, id, 0, "audit", t0, t1)
	if !rep.Clean() {
		return 0, fmt.Errorf("audit: %d findings, first: %s", len(rep.Findings), rep.FirstViolation())
	}
	return t1.Sub(t0), nil
}
