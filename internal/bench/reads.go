package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lightclient"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wire"
)

// ReadsPoint is one data point of the read-path experiment: a closed-loop
// mixed workload at a given read fraction, with reads taken in batches of
// ReadBatch items either through the verified (proof-carrying) path or the
// plain execution-layer path.
type ReadsPoint struct {
	ReadFraction float64
	Verified     bool
	ReadBatch    int
}

// ReadsResult is the measured outcome of one ReadsPoint.
type ReadsResult struct {
	Point ReadsPoint
	// ReadOps is the number of read operations (batches) performed.
	ReadOps int
	// ItemsRead is ReadOps × ReadBatch.
	ItemsRead int
	// WriteTxns is the number of write transactions committed alongside.
	WriteTxns int
	// Elapsed is the measured wall time.
	Elapsed time.Duration
	// ItemsPerSec is the read throughput in items per second — the series
	// the verified-within-2× acceptance bound is stated over.
	ItemsPerSec float64
	// OpLatencyMS is the mean wall time of one read operation.
	OpLatencyMS float64
	// StaleRetries counts verified reads re-issued after a benign
	// staleness race (verified mode only).
	StaleRetries int
}

// readsSweep is the default -exp reads grid: read fraction × verified ×
// batch (satellite: "read fraction × verified/unverified × batch").
var readsSweep = []ReadsPoint{
	{0.90, false, 1}, {0.90, true, 1},
	{0.90, false, 8}, {0.90, true, 8},
	{0.90, false, 32}, {0.90, true, 32},
	{1.00, false, 1}, {1.00, true, 1},
	{1.00, false, 8}, {1.00, true, 8},
	{1.00, false, 32}, {1.00, true, 32},
}

// Reads measures the read-dominated serving path the light client exists
// for: closed-loop readers performing batched point reads against a
// cluster that keeps committing writes, comparing plain execution-layer
// reads (integrity only under a later audit) with proof-carrying verified
// reads (integrity at read time).
//
// Fairness of the comparison: an unverified "batch" is ReadBatch plain
// read RPCs issued concurrently (they have no batched message), while a
// verified batch is a single RPC answered with one multiproof — each path
// uses the best mechanics available to it. The acceptance bound for this
// subsystem is verified ≥ half the unverified items/sec at batch ≥ 8.
func Reads(w io.Writer, opts Options) ([]*ReadsResult, error) {
	opts.applyDefaults()
	const (
		servers = 5
		readers = 16
	)
	fmt.Fprintf(w, "Reads — proof-carrying vs plain reads (5 servers, %d readers, %d read ops/point, avg of %d runs)\n",
		readers, opts.Requests, opts.Runs)
	fmt.Fprintf(w, "%-10s %-10s %6s %14s %14s %12s %10s %8s\n",
		"read_frac", "path", "batch", "items_per_s", "ops_per_s", "op_lat_ms", "writes", "retries")

	var out []*ReadsResult
	var unverifiedBase float64 // items/sec of the plain path at the same fraction+batch
	for _, pt := range readsSweep {
		acc := &ReadsResult{Point: pt}
		for run := 0; run < opts.Runs; run++ {
			res, err := runReadsPoint(pt, opts, servers, readers, opts.Seed+int64(run+1)*104729)
			if err != nil {
				return nil, fmt.Errorf("reads f=%.2f verified=%v batch=%d: %w", pt.ReadFraction, pt.Verified, pt.ReadBatch, err)
			}
			acc.ReadOps += res.ReadOps
			acc.ItemsRead += res.ItemsRead
			acc.WriteTxns += res.WriteTxns
			acc.Elapsed += res.Elapsed
			acc.ItemsPerSec += res.ItemsPerSec
			acc.OpLatencyMS += res.OpLatencyMS
			acc.StaleRetries += res.StaleRetries
		}
		f := float64(opts.Runs)
		acc.ItemsPerSec /= f
		acc.OpLatencyMS /= f
		out = append(out, acc)

		path := "plain"
		if pt.Verified {
			path = "verified"
		}
		ratio := ""
		if !pt.Verified {
			unverifiedBase = acc.ItemsPerSec
		} else if unverifiedBase > 0 {
			ratio = fmt.Sprintf("  (%.2fx of plain)", acc.ItemsPerSec/unverifiedBase)
		}
		fmt.Fprintf(w, "%-10.2f %-10s %6d %14.0f %14.0f %12.3f %10d %8d%s\n",
			pt.ReadFraction, path, pt.ReadBatch, acc.ItemsPerSec,
			acc.ItemsPerSec/float64(pt.ReadBatch), acc.OpLatencyMS,
			acc.WriteTxns/opts.Runs, acc.StaleRetries, ratio)
	}
	return out, nil
}

// runReadsPoint runs one (fraction, path, batch) measurement.
func runReadsPoint(pt ReadsPoint, opts Options, servers, readers int, seed int64) (*ReadsResult, error) {
	cluster, err := core.NewCluster(core.Config{
		NumServers:      servers,
		ItemsPerShard:   2048,
		BatchSize:       16,
		BatchWait:       2 * time.Millisecond,
		NetworkLatency:  opts.NetworkLatency,
		PreciseNetDelay: true,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return DriveReads(cluster, pt, opts.Requests, readers, seed)
}

// DriveReads runs the mixed read/write closed loop against an existing
// cluster and measures the read path. Exported for tests that want the
// measurement on their own cluster (e.g. the within-2× regression bound).
func DriveReads(cluster *core.Cluster, pt ReadsPoint, readOps, readers int, seed int64) (*ReadsResult, error) {
	ctx := context.Background()
	sharedTS := txn.NewSharedClock(1)
	nShards := len(cluster.Servers())

	// Seed every shard with one committed write so each has a co-signed
	// root to authenticate reads against (and the write path is warm).
	seedClient, err := cluster.NewClientWithTS(sharedTS)
	if err != nil {
		return nil, err
	}
	for s := 0; s < nShards; s++ {
		if err := commitWrite(ctx, seedClient, core.ItemName(s, 0), []byte("seed")); err != nil {
			return nil, err
		}
	}

	// One shared light client: the header cache is shared state across all
	// readers, which is the intended deployment shape.
	var lc *lightclient.Client
	if pt.Verified {
		if lc, err = cluster.NewLightClient(); err != nil {
			return nil, err
		}
		if _, err := lc.Sync(ctx); err != nil {
			return nil, err
		}
	}

	perReader := make([]int, readers)
	for i := 0; i < readOps; i++ {
		perReader[i%readers]++
	}

	type result struct {
		readOps   int
		items     int
		writes    int
		latencies time.Duration
		err       error
	}
	results := make(chan result, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for ri := 0; ri < readers; ri++ {
		quota := perReader[ri]
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(ri, quota int) {
			defer wg.Done()
			res := result{}
			defer func() { results <- res }()
			rng := rand.New(rand.NewSource(seed + int64(ri)*7919))

			// Writer identity for the mixed fraction.
			wc, err := cluster.NewClientWithTS(sharedTS)
			if err != nil {
				res.err = err
				return
			}
			// Plain-read identity: raw wire reads from one endpoint per
			// reader.
			var plainEP transport.Transport
			if !pt.Verified {
				ident, err := cluster.NewClientIdentity()
				if err != nil {
					res.err = err
					return
				}
				if plainEP, err = cluster.Endpoint(ident); err != nil {
					res.err = err
					return
				}
			}

			for n := 0; n < quota; n++ {
				// Mixed workload: a write transaction with probability
				// 1 - readFraction.
				if rng.Float64() >= pt.ReadFraction {
					shard := rng.Intn(nShards)
					item := core.ItemName(shard, 1+rng.Intn(2047))
					if err := commitWrite(ctx, wc, item, []byte(fmt.Sprintf("w%d-%d", ri, n))); err != nil {
						res.err = err
						return
					}
					res.writes++
				}
				// One batched read op from a single random shard.
				shard := rng.Intn(nShards)
				ids := pickItems(rng, shard, 2048, pt.ReadBatch)
				opStart := time.Now()
				if pt.Verified {
					if _, err := lc.ReadVerified(ctx, ids...); err != nil {
						res.err = fmt.Errorf("verified read: %w", err)
						return
					}
				} else if err := plainReadBatch(ctx, plainEP, cluster, ids); err != nil {
					res.err = fmt.Errorf("plain read: %w", err)
					return
				}
				res.latencies += time.Since(opStart)
				res.readOps++
				res.items += len(ids)
			}
		}(ri, quota)
	}
	wg.Wait()
	close(results)

	out := &ReadsResult{Point: pt}
	var latSum time.Duration
	for r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out.ReadOps += r.readOps
		out.ItemsRead += r.items
		out.WriteTxns += r.writes
		latSum += r.latencies
	}
	out.Elapsed = time.Since(start)
	if out.Elapsed > 0 {
		out.ItemsPerSec = float64(out.ItemsRead) / out.Elapsed.Seconds()
	}
	if out.ReadOps > 0 {
		out.OpLatencyMS = (latSum / time.Duration(out.ReadOps)).Seconds() * 1000
	}
	if lc != nil {
		out.StaleRetries = lc.Stats().StaleRetries
	}
	return out, nil
}

// pickItems draws batch distinct item ids from one shard.
func pickItems(rng *rand.Rand, shard, shardSize, batch int) []txn.ItemID {
	if batch > shardSize {
		batch = shardSize
	}
	seen := make(map[int]struct{}, batch)
	ids := make([]txn.ItemID, 0, batch)
	for len(ids) < batch {
		i := rng.Intn(shardSize)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		ids = append(ids, core.ItemName(shard, i))
	}
	return ids
}

// plainReadBatch issues the batch as concurrent plain read RPCs — the
// strongest unverified baseline available (same wall-clock shape as one
// batched call, none of the proof work).
func plainReadBatch(ctx context.Context, ep transport.Transport, cluster *core.Cluster, ids []txn.ItemID) error {
	if len(ids) == 1 {
		return plainRead(ctx, ep, cluster, ids[0])
	}
	errs := make(chan error, len(ids))
	for _, id := range ids {
		go func(id txn.ItemID) {
			errs <- plainRead(ctx, ep, cluster, id)
		}(id)
	}
	for range ids {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

func plainRead(ctx context.Context, ep transport.Transport, cluster *core.Cluster, id txn.ItemID) error {
	owner, ok := cluster.Directory().Owner(id)
	if !ok {
		return fmt.Errorf("bench: no owner for %s", id)
	}
	msg, err := transport.NewMessage(wire.MsgRead, &wire.ReadReq{ID: id})
	if err != nil {
		return err
	}
	resp, err := ep.Call(ctx, owner, msg)
	if err != nil {
		return err
	}
	var rr wire.ReadResp
	return resp.Decode(&rr)
}

// commitWrite commits one read-modify-write transaction, retrying
// rejections and aborts with fresh sessions.
func commitWrite(ctx context.Context, cl *client.Client, item txn.ItemID, val []byte) error {
	for attempt := 0; attempt < 50; attempt++ {
		s := cl.Begin()
		if _, err := s.Read(ctx, item); err != nil {
			return err
		}
		if err := s.Write(ctx, item, val); err != nil {
			return err
		}
		res, err := s.Commit(ctx)
		if err != nil {
			return err
		}
		if res.Committed {
			return nil
		}
	}
	return fmt.Errorf("bench: write to %s failed to commit", item)
}
