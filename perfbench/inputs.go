package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/txn"
	"repro/internal/workload"
)

// All inputs derive from the -seed argument through numbered streams, so
// the same seed gives the same plans, read picks and arrival times no
// matter how goroutines interleave.
const (
	streamReads     = -1 // open-loop read picks and arrival times in the window
	streamWrites    = -2 // open-loop write plans and arrival times
	streamWarm      = -3 // set-up warm-up reads
	streamReadPhase = -4 // read picks and arrival times of the read phase
)

func streamSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919
}

// planGenerator returns the YCSB-style plan stream of one stream: 5
// operations over distinct uniform items, half of them writes.
func planGenerator(items []txn.ItemID, seed int64, stream int) (*workload.Generator, error) {
	return workload.New(workload.Config{
		Items:      items,
		OpsPerTxn:  5,
		WriteRatio: 0.5,
		Seed:       streamSeed(seed, stream),
	})
}

// pickRead draws readBatch distinct items from one uniformly chosen shard,
// the shape of one proof-carrying multiproof read.
func pickRead(rng *rand.Rand, w spec) []txn.ItemID {
	shard := rng.Intn(w.servers)
	seen := make(map[int]bool, readBatch)
	ids := make([]txn.ItemID, 0, readBatch)
	for len(ids) < readBatch {
		i := rng.Intn(w.itemsPerShard)
		if seen[i] {
			continue
		}
		seen[i] = true
		ids = append(ids, core.ItemName(shard, i))
	}
	return ids
}

// arrival is one open-loop request: a write transaction when plan is set,
// otherwise a verified read of ids.
type arrival struct {
	at   time.Duration // due time, from the start of the phase
	plan *workload.Plan
	ids  []txn.ItemID
}

// pickReads draws n reads from one numbered input stream.
func pickReads(w spec, seed int64, stream, n int) [][]txn.ItemID {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	reads := make([][]txn.ItemID, n)
	for i := range reads {
		reads[i] = pickRead(rng, w)
	}
	return reads
}

// readArrivals draws Poisson arrivals of verified reads at readRate/s over
// [0, d) from one numbered input stream.
func readArrivals(w spec, seed int64, stream int, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(streamSeed(seed, stream)))
	var out []arrival
	for _, at := range poissonTimes(rng, w.readRate, d) {
		out = append(out, arrival{at: at, ids: pickRead(rng, w)})
	}
	return out
}

// schedule merges the workload's open-loop streams over a window of length
// d: Poisson arrivals of write transactions at writeRate/s and, unless the
// workload reads in a read phase instead, of verified reads at readRate/s.
// Closed-loop workloads have neither.
func schedule(w spec, items []txn.ItemID, seed int64, d time.Duration) ([]arrival, error) {
	var out []arrival
	if w.readPhase == 0 {
		out = readArrivals(w, seed, streamReads, d)
	}
	if w.writeRate > 0 {
		gen, err := planGenerator(items, seed, streamWrites)
		if err != nil {
			return nil, err
		}
		writeRNG := rand.New(rand.NewSource(streamSeed(seed, streamWrites)))
		for _, at := range poissonTimes(writeRNG, w.writeRate, d) {
			out = append(out, arrival{at: at, plan: gen.Next()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, nil
}

// poissonTimes draws arrival times in [0, d) at the given rate per second
// from a Poisson process conditioned on its count in every second: given
// the count, Poisson arrival times are independent and uniform over the
// interval. Fixing the count per second keeps the offered load — and with
// it the open-loop throughput — the same for every seed, second by second.
func poissonTimes(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for sec := time.Duration(0); sec < d; sec += time.Second {
		span := min(time.Second, d-sec)
		for n := int(math.Round(rate * span.Seconds())); n > 0; n-- {
			out = append(out, sec+time.Duration(rng.Int63n(int64(span))))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
