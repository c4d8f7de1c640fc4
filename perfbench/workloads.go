package main

import (
	"fmt"
	"time"

	"repro/internal/durable"
)

// spec is one workload: a deployment shape and a traffic mix. Every
// workload walks the whole life of a deployment — set-up, measured
// traffic, verified reads, restart by verified crash recovery, full audit
// — so every end-to-end metric exists on every workload; the shapes differ
// in which layer dominates the measured window.
type spec struct {
	name string

	servers       int
	itemsPerShard int
	batch         int           // transactions per block
	pipeline      int           // TFCommit blocks in flight (1 = serial rounds)
	delay         time.Duration // one-way network delay
	fsync         durable.FsyncMode

	// clients drive closed-loop transactions in the window; zero means
	// transactions arrive open-loop at writeRate/s and wait for one of
	// writePool clients.
	clients   int
	writeRate float64
	writePool int

	// readRate is the open-loop rate of proof-carrying reads of readBatch
	// items from one shard, sent through one shared light client: in the
	// window when readPhase is zero, otherwise alone for readPhase between
	// the set-up and the window, so the read path is timed on every
	// deployment shape without adding traffic to a window that has no
	// reads. Read right after the set-up, every run reads the same
	// history, and the heap the garbage collector scans is the set-up's,
	// not one that grows with the window's throughput.
	readRate  float64
	readPhase time.Duration

	// warmTxns and warmReads are run closed-loop at the end of every
	// set-up, so caches, the heap and the header cache are warm before
	// anything is timed.
	warmTxns  int
	warmReads int

	// recoveries and audits are the rounds of restart-by-recovery and of
	// full audit after the window; the fastest round of each is reported.
	recoveries int
	audits     int
}

const (
	// readBatch is the number of items, all from one shard, in one
	// verified read.
	readBatch = 8

	// warmReaders issue the set-up's warm-up reads closed-loop.
	warmReaders = 4

	// setupReps is how many times each run builds its deployment from
	// scratch; setup_s is the median, and the last deployment is measured.
	setupReps = 3
)

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each exists. All run YCSB-style transactions of 5 operations, half of
// them writes, over uniformly chosen items. Every deployment keeps a WAL so
// it can restart by recovery; only durable_pipeline flushes it, the others
// leave flushing to the OS so disk latency stays out of them (the README
// records what the unflushed WAL costs them).
var workloads = []spec{
	{
		// Paper Fig. 12: latency-bound. Message hops and round count set
		// commit latency; Merkle updates, batching and the WAL do little.
		name:    "lan_commit",
		servers: 3, itemsPerShard: 10000, batch: 1, pipeline: 1,
		delay: 250 * time.Microsecond, fsync: durable.FsyncOff,
		clients:  16,
		readRate: 1000, readPhase: 5 * time.Second,
		warmTxns: 500, warmReads: 200,
		recoveries: 3, audits: 3,
	},
	{
		// Paper Fig. 14: CPU-bound. Signature checks, hashing, OCC and
		// allocation set throughput; saved round trips barely show.
		name:    "cpu_block",
		servers: 5, itemsPerShard: 10000, batch: 100, pipeline: 1,
		delay: 250 * time.Microsecond, fsync: durable.FsyncOff,
		clients:  200,
		readRate: 1000, readPhase: 5 * time.Second,
		warmTxns: 2000, warmReads: 200,
		recoveries: 5, audits: 5,
	},
	{
		// The only workload on the pipelined commit path, with group-commit
		// fsync and cross-zone hops: many small blocks make per-block WAL,
		// fsync and recovery costs dominate.
		name:    "durable_pipeline",
		servers: 5, itemsPerShard: 10000, batch: 16, pipeline: 4,
		delay: time.Millisecond, fsync: durable.FsyncGroup,
		clients:  64,
		readRate: 1000, readPhase: 5 * time.Second,
		warmTxns: 500, warmReads: 200,
		recoveries: 5, audits: 5,
	},
	{
		// Open loop dominated by the read path: proof generation, multiproof
		// verification and header sync. Writes use the same store and Merkle
		// layer differently, so a read-path cache that taxes updates shows
		// up on cpu_block. The set-up's warm-up and the ramp together are
		// three seconds of this traffic.
		name:    "verified_read_open",
		servers: 5, itemsPerShard: 2048, batch: 16, pipeline: 1,
		delay: 250 * time.Microsecond, fsync: durable.FsyncOff,
		writeRate: 100, writePool: 16,
		readRate: 1000,
		warmTxns: 200, warmReads: 2000,
		recoveries: 5, audits: 5,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
