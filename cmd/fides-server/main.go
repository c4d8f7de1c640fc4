// Command fides-server runs one Fides database server as its own process,
// speaking the signed TCP wire protocol. Server 0 of the deployment is the
// designated coordinator (paper §4.1) and additionally runs the TFCommit
// termination service.
//
//	fides-server -deployment deployment.json -index 0
//
// With -data-dir (or a data_dir in the descriptor) the server persists its
// tamper-proof log in a write-ahead log plus periodic shard snapshots, and
// starts by verified crash recovery: the on-disk chain is re-verified
// (hash pointers, collective signatures, Merkle roots) because the disk is
// part of the untrusted infrastructure. A tampered log is refused; a torn
// tail from a crash is truncated.
//
//	fides-server -deployment deployment.json -index 0 -data-dir ./data -fsync group
//
// With -metrics-addr the server exposes an observability endpoint:
// GET /metrics (Prometheus text format — the TFCommit per-phase latency
// histograms, WAL fsync timings, OCC abort causes and decision-liveness
// counters of docs/observability.md), GET /healthz, and the standard
// /debug/pprof/* profiling handlers.
//
//	fides-server -deployment deployment.json -index 0 -metrics-addr 127.0.0.1:9100
//
// See cmd/fides-keygen for generating a deployment and cmd/fides-client
// for driving it.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/deploy"
	"repro/internal/durable"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tfcommit"
	"repro/internal/transport"
	"repro/internal/txn"
)

func main() {
	var (
		deploymentPath = flag.String("deployment", "deployment.json", "deployment descriptor")
		index          = flag.Int("index", 0, "this server's index in the deployment")
		dataDir        = flag.String("data-dir", "", "persist WAL+snapshots under this directory (overrides the descriptor; empty = descriptor's data_dir, or in-memory)")
		fsync          = flag.String("fsync", "", "WAL flush discipline: always|group|off (overrides the descriptor)")
		snapEvery      = flag.Int("snapshot-every", 0, "snapshot the shard every N blocks (overrides the descriptor; 0 = descriptor's value)")
		pipeline       = flag.Int("pipeline", 0, "TFCommit blocks in flight at once (overrides the descriptor; 0 = descriptor's value, 1 = serial)")
		cryptoBackend  = flag.String("crypto", "", "verification backend: serial|batched (overrides the descriptor; empty = descriptor's value)")
		cryptoWorkers  = flag.Int("crypto-workers", 0, "batched-backend worker pool size (overrides the descriptor; 0 = descriptor's value, then GOMAXPROCS)")
		resolveEvery   = flag.Duration("resolve-interval", 2*time.Second, "background decision-resolver period: a server behind the cluster tip pulls the missing verified suffix from peers (0 disables)")
		metricsAddr    = flag.String("metrics-addr", "", "serve /metrics (Prometheus text), /healthz and /debug/pprof/* on this address (empty disables)")
		logLevel       = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logJSON        = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	if err := run(*deploymentPath, *index, *dataDir, *fsync, *snapEvery, *pipeline, *cryptoBackend, *cryptoWorkers, *resolveEvery, *metricsAddr, *logLevel, *logJSON); err != nil {
		fmt.Fprintf(os.Stderr, "fides-server: %v\n", err)
		os.Exit(1)
	}
}

func run(path string, index int, dataDir, fsync string, snapEvery, pipeline int, cryptoBackend string, cryptoWorkers int, resolveEvery time.Duration, metricsAddr, logLevel string, logJSON bool) error {
	d, err := deploy.Load(path)
	if err != nil {
		return err
	}
	if pipeline == 0 {
		pipeline = d.Pipeline
	}
	if pipeline < 1 {
		pipeline = 1
	}
	if cryptoBackend == "" {
		cryptoBackend = d.Crypto
	}
	if cryptoWorkers == 0 {
		cryptoWorkers = d.CryptoWorkers
	}
	if d.Coordinators > 1 {
		// Rotation dispatches each block to a coordinator instance in the
		// terminating process; separate fides-server processes cannot take
		// turns without a block-handoff protocol (see docs/operations.md).
		return fmt.Errorf("deployment requests %d rotating coordinators; multi-process deployments support 1", d.Coordinators)
	}
	if index < 0 || index >= len(d.Servers) {
		return fmt.Errorf("index %d out of range (%d servers)", index, len(d.Servers))
	}
	spec := d.Servers[index]
	ident, err := identity.Import(spec.Keys)
	if err != nil {
		return err
	}
	reg, err := d.Registry()
	if err != nil {
		return err
	}
	dir := d.Directory()

	// One process-wide observability bundle: every component reports into
	// the same registry (served on -metrics-addr) and logs through the same
	// leveled structured logger, tagged with this server's id.
	o := &obs.Obs{
		Metrics: obs.NewRegistry(),
		Logger:  obs.NewLogger(os.Stderr, logLevel, logJSON).With("component", "fides-server"),
	}
	o = o.With(obs.L("server", string(ident.ID)))
	logger := o.Log()

	// One verification plane per process: the server's commit path, the
	// termination service (index 0) and the block batcher all verify
	// through the same instance, so a co-sign or envelope verdict reached
	// in one phase is a cache hit in the next.
	var verifier crypto.Verifier
	switch cryptoBackend {
	case core.CryptoSerial:
		verifier = crypto.NewSerial(reg)
	case core.CryptoBatched:
		verifier = crypto.NewBatched(crypto.Options{Registry: reg, Workers: cryptoWorkers, Obs: o})
		defer verifier.Close()
	default:
		return fmt.Errorf("unknown crypto backend %q (want %s or %s)", cryptoBackend, core.CryptoSerial, core.CryptoBatched)
	}

	if dataDir == "" {
		dataDir = d.DataDir
	}
	if fsync == "" {
		fsync = d.Fsync
	}
	if snapEvery == 0 {
		snapEvery = d.SnapshotEvery
	}

	items := make([]txn.ItemID, d.ItemsPerShard)
	for j := 0; j < d.ItemsPerShard; j++ {
		items[j] = core.ItemName(index, j)
	}
	initial := func(txn.ItemID) []byte { return []byte("0") }

	scfg := server.Config{
		Identity:  ident,
		Registry:  reg,
		Directory: dir,
		Obs:       o,
		// Always armed in multi-process deployments, not only when this
		// process believes pipelining is on: -pipeline is a per-process
		// override, so the coordinator may pipeline while a cohort's
		// descriptor says serial — a cohort that then rejected overtaking
		// announcements outright would fail rounds intermittently. Parking
		// them briefly is harmless when the coordinator really is serial
		// (the wait only engages for heights above the log tip).
		VoteLookahead: core.VoteLookahead,
		Verifier:      verifier,
	}
	if dataDir == "" {
		scfg.Shard = store.NewShard(items, initial, store.Config{MultiVersion: d.MultiVersion})
	} else {
		mode, err := durable.ParseFsyncMode(fsync)
		if err != nil {
			return err
		}
		dstore, err := durable.Open(durable.Options{
			Dir:           filepath.Join(dataDir, string(ident.ID)),
			Fsync:         mode,
			SnapshotEvery: snapEvery,
			Obs:           o,
		})
		if err != nil {
			return err
		}
		defer func() { _ = dstore.Close() }()
		rec, err := dstore.Recover(durable.RecoveryConfig{
			Verifier:     ledger.NewChainVerifier(d.ServerIDs(), crypto.NewSerial(reg)),
			Self:         ident.ID,
			ShardIDs:     items,
			InitialValue: initial,
			MultiVersion: d.MultiVersion,
		})
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		log, err := ledger.NewLogFromBlocks(rec.Blocks)
		if err != nil {
			return fmt.Errorf("recovered log: %w", err)
		}
		if pipeline > 1 {
			log.SetPersister(durable.NewOrderedPersister(dstore, uint64(len(rec.Blocks))))
		} else {
			log.SetPersister(dstore)
		}
		scfg.Shard = rec.Shard
		scfg.Log = log
		scfg.Snapshot = dstore
		logger.Info("recovered", "blocks", len(rec.Blocks), "fsync", mode.String(),
			"snapshot_used", rec.SnapshotUsed, "snapshot_height", rec.SnapshotHeight,
			"torn_tail", rec.Scan.TornTail, "torn_bytes", rec.Scan.TornBytes)
		for _, w := range rec.Warnings {
			logger.Warn("recovery warning", "warning", w)
		}
	}

	srv, err := server.New(scfg)
	if err != nil {
		return err
	}

	node, err := transport.NewTCPNode(ident, reg, spec.Addr, srv)
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()
	for _, s := range d.Servers {
		node.SetAddress(s.Keys.ID, s.Addr)
	}

	// Decision retry, ask-a-peer, and state transfer: every server (not
	// just cohorts that happen to time out a vote) can answer peers'
	// fetch_blocks and pull any verified suffix it is missing, so a
	// restarted process rejoins without operator action.
	if err := srv.EnableCatchup(server.CatchupConfig{
		Transport: node,
		Servers:   d.ServerIDs(),
	}); err != nil {
		return err
	}
	if resolveEvery > 0 {
		stopResolver := srv.StartResolver(resolveEvery)
		defer stopResolver()
	}

	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := obs.NewServeMux(o.Metrics, func() bool { return true })
		msrv := &http.Server{Handler: mux}
		go func() {
			if serr := msrv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				logger.Error("metrics server failed", "err", serr)
			}
		}()
		defer func() { _ = msrv.Close() }()
		logger.Info("observability endpoint up", "addr", ln.Addr().String(),
			"paths", "/metrics /healthz /debug/pprof/")
	}

	if index == 0 {
		coord, err := tfcommit.New(tfcommit.Config{
			Identity:  ident,
			Registry:  reg,
			Transport: node,
			Servers:   d.ServerIDs(),
			Local:     srv,
			Obs:       o,
			Verifier:  verifier,
		})
		if err != nil {
			return err
		}
		committer := core.NewCoordinatorCommitter(coord)
		if pipeline > 1 {
			pipe, err := tfcommit.NewPipeline(tfcommit.PipelineConfig{
				Coordinators: []*tfcommit.Coordinator{coord},
				Depth:        pipeline,
				Height:       uint64(srv.Log().Len()),
				PrevHash:     srv.Log().TipHash(),
			})
			if err != nil {
				return err
			}
			committer = core.NewPipelineCommitter(pipe)
		}
		batcher := core.NewPipelinedBatcherObs(committer, reg, d.BatchSize, 5*time.Millisecond, pipeline, o)
		batcher.SetVerifier(verifier)
		batcher.Observe(srv.LastCommitted())
		defer batcher.Close()
		srv.SetTerminator(batcher)
		logger.Info("listening", "addr", node.Addr(), "role", "coordinator", "pipeline", pipeline, "crypto", cryptoBackend)
	} else {
		logger.Info("listening", "addr", node.Addr(), "role", "cohort")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down", "blocks_logged", srv.Log().Len())
	return nil
}
