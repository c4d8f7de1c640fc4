package main

import "time"

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// layerSnap is the cumulative state of every measured layer at one
// instant; the per-layer metrics are differences of two of them.
type layerSnap struct {
	reg    regSnapshot
	msgs   map[string]uint64
	rt     runtimeSnapshot
	height int // coordinator log height
}

func (r *runner) snapshotLayers() (layerSnap, error) {
	reg, err := snapshotRegistry(r.cluster.Metrics())
	if err != nil {
		return layerSnap{}, err
	}
	return layerSnap{
		reg:    reg,
		msgs:   r.sched.snapshot(),
		rt:     snapshotRuntime(),
		height: r.cluster.ServerAt(0).Log().Len(),
	}, nil
}

// outcome is everything one run measured.
type outcome struct {
	setups     []setupTimes
	heapMB     float64   // live heap once the set-up's garbage is collected
	rec        *recorder // measured phase
	win        *window
	chain      chain
	sync       time.Duration // light-client header sync after the window
	reads      *recorder     // where the verified reads were timed
	readSnaps  [2]layerSnap  // traced runs: layer state around those reads
	recoveries []float64     // seconds per round
	audits     []float64     // seconds per round
	spans      int           // traced runs only
}

func (o *outcome) setupMedian(part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(o.setups))
	for i, st := range o.setups {
		xs[i] = part(st).Seconds()
	}
	return median(xs)
}

// endToEnd is what a user of the deployment sees, in BENCHMARK.json order.
func (o *outcome) endToEnd() []metric {
	rec := o.rec
	return []metric{
		{"setup_s", "s", o.setupMedian(func(st setupTimes) time.Duration { return st.total })},
		{"txn_tps", "txn/s", rec.tps()},
		{"txn_p50_ms", "ms", slotPercentileMS(rec.txnLat, 50)},
		{"txn_p90_ms", "ms", slotPercentileMS(rec.txnLat, 90)},
		{"vread_p50_ms", "ms", slotPercentileMS(o.reads.vreadLat, 50)},
		{"vread_p99_ms", "ms", slotPercentileMS(o.reads.vreadLat, 99)},
		{"audit_txns_per_s", "txn/s", ratio(float64(o.chain.txns), fastest(o.audits))},
		{"recovery_blocks_per_s", "blocks/s", ratio(float64(o.chain.blocks), fastest(o.recoveries))},
		{"heap_mb", "MB", o.heapMB},
	}
}

// msgTypes are the message types reported per block, in the order of a
// transaction's life: execution, termination, the TFCommit phases, and
// the light client's reads and header sync.
var msgTypes = []string{
	"read", "write", "end_txn",
	"tfc_get_vote", "tfc_challenge", "tfc_decision",
	"lc_verified_read", "lc_fetch_headers",
}

var occCauses = []string{"stale_ts", "read_conflict", "write_conflict", "block_conflict"}

// perLayer breaks the run down by layer, in BENCHMARK.json order.
// Registry, message and runtime figures are deltas over the measured
// window, light-client figures over the phase where the verified reads
// ran; set-up figures are medians over the set-ups, and recovery and audit
// figures come from the fastest of their rounds.
func (o *outcome) perLayer() []metric {
	rec, reads := o.rec, o.reads
	before, after := o.win.before, o.win.after
	d := regDelta{before: before.reg, after: after.reg}
	rd := regDelta{before: o.readSnaps[0].reg, after: o.readSnaps[1].reg}
	txns := float64(rec.committed)
	ops := float64(rec.committed + rec.vreads)
	blocks := float64(after.height - before.height)
	var msgs float64
	msgDelta := make(map[string]float64)
	for typ, n := range after.msgs {
		msgDelta[typ] = float64(n - before.msgs[typ])
		msgs += msgDelta[typ]
	}
	setup := func(name string, part func(setupTimes) time.Duration) metric {
		return metric{"setup." + name + "_s", "s", o.setupMedian(part)}
	}
	terminate := d.meanMS("fides_batcher_terminate_seconds")
	round := d.meanMS("fides_tfcommit_round_seconds")

	out := []metric{
		setup("cluster", func(st setupTimes) time.Duration { return st.cluster }),
		setup("seed", func(st setupTimes) time.Duration { return st.seed }),
		setup("sync", func(st setupTimes) time.Duration { return st.sync }),
		setup("warm", func(st setupTimes) time.Duration { return st.warm }),

		{"client.read_ms.p50", "ms", percentileMS(rec.reads, 50)},
		{"client.read_ms.p99", "ms", percentileMS(rec.reads, 99)},
		{"client.write_ms.p50", "ms", percentileMS(rec.writes, 50)},
		{"client.exec_ms.p50", "ms", percentileMS(rec.execs, 50)},
		{"client.commit_ms.p50", "ms", percentileMS(rec.commits, 50)},
		{"client.commit_ms.p99", "ms", percentileMS(rec.commits, 99)},
		{"client.unattributed_ms.mean", "ms", meanMS(rec.unattributed)},
		{"client.retries_per_txn", "1/txn", ratio(float64(rec.commitCalls)-txns, txns)},
		{"client.useful_ratio", "ratio", ratio(txns, float64(rec.commitCalls))},

		{"batcher.terminate_ms.mean", "ms", terminate},
		{"batcher.block_txns.mean", "txn", d.mean("fides_batcher_block_txns")},
		{"batcher.wait_ms.mean", "ms", terminate - round},

		{"tfcommit.round_ms.mean", "ms", round},
	}
	for _, phase := range []string{"vote", "challenge", "cosign", "decision"} {
		out = append(out, metric{"tfcommit.phase_ms." + phase + ".mean", "ms", d.meanMS("fides_tfcommit_phase_seconds", "phase", phase)})
	}
	out = append(out,
		metric{"tfcommit.rounds", "count", d.count("fides_tfcommit_rounds_total")},
		metric{"tfcommit.abort_rounds", "count", d.count("fides_tfcommit_rounds_total", "decision", "abort")},
		metric{"tfcommit.round_failures", "count", d.count("fides_tfcommit_round_failures_total")},
		metric{"tfcommit.decision_retries", "count", d.count("fides_tfcommit_decision_retries_total")},

		metric{"transport.msgs_per_txn", "msgs/txn", ratio(msgs, txns)},
		metric{"transport.msgs_per_block", "msgs/block", ratio(msgs, blocks)},
	)
	for _, typ := range msgTypes {
		out = append(out, metric{"transport.msgs_per_block." + typ, "msgs/block", ratio(msgDelta[typ], blocks)})
	}
	out = append(out, metric{"server.mht_ms.mean", "ms", d.meanMS("fides_server_mht_seconds")})
	for _, cause := range occCauses {
		out = append(out, metric{"server.occ_aborts_per_txn." + cause, "1/txn", ratio(d.count("fides_server_occ_aborts_total", "cause", cause), txns)})
	}
	out = append(out,
		metric{"server.catchup_blocks", "count", d.count("fides_server_catchup_blocks_total")},

		metric{"wal.append_ms.mean", "ms", d.meanMS("fides_wal_append_seconds")},
		metric{"wal.fsync_ms.mean", "ms", d.meanMS("fides_wal_fsync_seconds")},
		metric{"wal.fsyncs_per_block", "1/block", ratio(d.count("fides_wal_fsync_seconds_count"), blocks)},

		metric{"recovery.s", "s", fastest(o.recoveries)},
		metric{"audit.run_s", "s", fastest(o.audits)},
		metric{"audit.blocks_per_s", "blocks/s", ratio(float64(o.chain.blocks), fastest(o.audits))},
		metric{"chain.blocks", "count", float64(o.chain.blocks)},
		metric{"chain.txns", "count", float64(o.chain.txns)},

		metric{"lightclient.proof_bytes.mean", "bytes", rd.mean("fides_lightclient_proof_bytes")},
		metric{"lightclient.stale_retry_ratio", "ratio", ratio(rd.count("fides_lightclient_stale_retries_total"), float64(reads.vreads))},
		metric{"lightclient.reissue_ratio", "ratio", ratio(float64(reads.vreadReissues), float64(reads.vreads))},
		metric{"lightclient.sync_pages", "count", rd.count("fides_lightclient_sync_pages_total")},
		metric{"lightclient.headers_verified", "count", rd.count("fides_lightclient_headers_verified_total")},
		metric{"lightclient.sync_ms", "ms", ms(o.sync)},

		metric{"loadgen.late_ms.p99", "ms", percentileMS(rec.late, 99)},
		metric{"loadgen.inflight.max", "count", float64(rec.maxInflight)},

		metric{"runtime.alloc_bytes_per_op", "bytes/op", ratio(float64(after.rt.allocBytes-before.rt.allocBytes), ops)},
		metric{"runtime.gc_cycles_per_1k_op", "1/kop", 1000 * ratio(float64(after.rt.gcCycles-before.rt.gcCycles), ops)},
		metric{"runtime.gc_pause_ms.total", "ms", ms(after.rt.gcPause - before.rt.gcPause)},

		metric{"trace.txn_tps", "txn/s", rec.tps()},
		metric{"trace.spans", "count", float64(o.spans)},
	)
	return out
}
