// Command fides-client drives a multi-process Fides deployment: it runs
// read-modify-write transactions against the TCP servers started with
// cmd/fides-server and optionally finishes with a full audit.
//
//	fides-client -deployment deployment.json -txns 20 -audit
//
// With -verify, the client first cold-syncs the co-signed block header
// chain and then performs every read through the proof-carrying verified
// path (Session.Read with client.Verified()): a stale or forged value is rejected at
// read time instead of at the next audit.
//
//	fides-client -deployment deployment.json -txns 20 -verify -audit
//
// With -verify-bundle, the client instead re-verifies a portable evidence
// bundle produced by the watchtower (cmd/fides-watch) fully offline: no
// server is contacted; only the deployment's registered public keys and
// static shard layout are trusted. Exit status 0 means the bundle
// substantiates its finding.
//
//	fides-client -deployment deployment.json -verify-bundle bundle.bin
//
// Progress and diagnostics are structured log lines on stderr
// (-log-level, -log-json; per-transaction commits log at debug). The
// audit report — the command's product — prints to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/identity"
	"repro/internal/lightclient"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/watch"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		deploymentPath = flag.String("deployment", "deployment.json", "deployment descriptor")
		txns           = flag.Int("txns", 10, "transactions to commit")
		opsPerTxn      = flag.Int("ops", 5, "operations per transaction")
		runAudit       = flag.Bool("audit", false, "run a full audit afterwards")
		verify         = flag.Bool("verify", false, "sync the header chain and perform proof-carrying verified reads")
		verifyBundle   = flag.String("verify-bundle", "", "re-verify a watchtower evidence bundle offline and exit (no servers are contacted)")
		seed           = flag.Int64("seed", 1, "workload seed")
		logLevel       = flag.String("log-level", "info", "log verbosity: debug|info|warn|error (per-txn commits log at debug)")
		logJSON        = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logLevel, *logJSON).With("component", "fides-client")
	if *verifyBundle != "" {
		if err := runVerifyBundle(*deploymentPath, *verifyBundle); err != nil {
			logger.Error("bundle verification failed", "err", err)
			os.Exit(1)
		}
		return
	}
	if err := run(logger, *deploymentPath, *txns, *opsPerTxn, *runAudit, *verify, *seed); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

// runVerifyBundle re-verifies one evidence bundle fully offline: the
// deployment descriptor supplies the registered public keys and shard
// layout, and the bundle must carry everything else — the whole point of
// the portable format is that a third party needs zero trust in the
// watchtower that produced it.
func runVerifyBundle(path, bundlePath string) error {
	d, err := deploy.Load(path)
	if err != nil {
		return err
	}
	reg, err := d.Registry()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(bundlePath)
	if err != nil {
		return err
	}
	msg, err := wire.Decode(raw)
	if err != nil {
		return fmt.Errorf("decode %s: %w", bundlePath, err)
	}
	b, ok := msg.(*wire.EvidenceBundle)
	if !ok {
		return fmt.Errorf("%s does not contain an evidence bundle (got %T)", bundlePath, msg)
	}
	fmt.Printf("bundle: kind=%s accused=%v height=%d item=%q\n  detail: %s\n",
		b.Kind, b.Accused, b.Height, b.Item, b.Detail)
	if err := watch.VerifyBundle(b, reg, d.ServerIDs(), d.Directory(), d.CoordinatorID()); err != nil {
		return err
	}
	fmt.Println("verified: the evidence substantiates the finding")
	return nil
}

func run(logger *slog.Logger, path string, txns, opsPerTxn int, runAudit, verify bool, seed int64) error {
	d, err := deploy.Load(path)
	if err != nil {
		return err
	}
	if len(d.Clients) < 2 {
		return fmt.Errorf("deployment needs at least 2 client identities (workload + auditor)")
	}
	reg, err := d.Registry()
	if err != nil {
		return err
	}
	dir := d.Directory()

	newNode := func(kf identity.KeyFile) (*identity.Identity, *transport.TCPNode, error) {
		ident, err := identity.Import(kf)
		if err != nil {
			return nil, nil, err
		}
		node, err := transport.NewTCPNode(ident, reg, "127.0.0.1:0", nil)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range d.Servers {
			node.SetAddress(s.Keys.ID, s.Addr)
		}
		return ident, node, nil
	}

	ident, node, err := newNode(d.Clients[0])
	if err != nil {
		return err
	}
	defer func() { _ = node.Close() }()

	// With -verify, a light client cold-syncs the header chain before any
	// transaction runs and authenticates every read against it.
	var lc *lightclient.Client
	if verify {
		if lc, err = lightclient.New(lightclient.Config{
			PeerConfig: peer.PeerConfig{
				Registry:  reg,
				Transport: node,
				Servers:   d.ServerIDs(),
			},
			Layout: dir,
		}); err != nil {
			return err
		}
		syncStart := time.Now()
		tip, err := lc.Sync(context.Background())
		if err != nil {
			return fmt.Errorf("header sync: %w", err)
		}
		st := lc.Stats()
		logger.Info("header sync complete", "headers_verified", st.HeadersVerified,
			"tip", tip, "elapsed", time.Since(syncStart).Round(time.Millisecond),
			"pages", st.SyncPages)
	}

	cl, err := client.New(client.Config{
		Identity:    ident,
		Registry:    reg,
		Transport:   node,
		Directory:   dir,
		Coordinator: d.CoordinatorID(),
		ClientID:    1,
		Verifier:    lc,
	})
	if err != nil {
		return err
	}

	gen, err := workload.New(workload.Config{Items: dir.Items(), OpsPerTxn: opsPerTxn, Seed: seed})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// A shard is only verifiable once a co-signed block carries its root;
	// on a fresh deployment nothing does. Bootstrap each shard with one
	// committed write so every later read has a root to authenticate
	// against.
	if verify {
		for _, srv := range d.ServerIDs() {
			items := dir.ShardItems(srv)
			if len(items) == 0 {
				continue
			}
			for attempt := 0; ; attempt++ {
				s := cl.Begin()
				if _, err := s.Read(ctx, items[0]); err != nil {
					return fmt.Errorf("bootstrap %s: %w", srv, err)
				}
				if err := s.Write(ctx, items[0], []byte("bootstrap")); err != nil {
					return fmt.Errorf("bootstrap %s: %w", srv, err)
				}
				res, err := s.Commit(ctx)
				if err != nil {
					return fmt.Errorf("bootstrap %s: %w", srv, err)
				}
				if res.Committed {
					break
				}
				if attempt > 10 {
					return fmt.Errorf("bootstrap %s: could not commit", srv)
				}
			}
		}
		logger.Info("bootstrapped shard roots", "shards", len(d.ServerIDs()))
	}
	committed := 0
	start := time.Now()
	for committed < txns {
		plan := gen.Next()
		s := cl.Begin()
		for _, op := range plan.Ops {
			switch op.Kind {
			case workload.OpRead:
				if verify {
					if _, err := s.Read(ctx, op.Item, client.Verified()); err != nil {
						return err
					}
				} else if _, err := s.Read(ctx, op.Item); err != nil {
					return err
				}
			case workload.OpWrite:
				if err := s.Write(ctx, op.Item, op.Value); err != nil {
					return err
				}
			}
		}
		res, err := s.Commit(ctx)
		if err != nil {
			return err
		}
		if res.Committed {
			committed++
			logger.Debug("txn committed", "txn", s.ID(), "ts", res.TS.String(), "height", res.Block.Height)
		}
	}
	elapsed := time.Since(start)
	logger.Info("workload complete", "committed", committed,
		"elapsed", elapsed.Round(time.Millisecond),
		"tps", fmt.Sprintf("%.0f", float64(committed)/elapsed.Seconds()))
	if lc != nil {
		st := lc.Stats()
		logger.Info("verified-read stats", "reads_verified", st.ReadsVerified,
			"headers_verified", st.HeadersVerified, "stale_retries", st.StaleRetries)
	}

	if !runAudit {
		return nil
	}
	auditIdent, auditNode, err := newNode(d.Clients[1])
	if err != nil {
		return err
	}
	defer func() { _ = auditNode.Close() }()
	auditor, err := audit.New(audit.Config{
		PeerConfig: peer.PeerConfig{
			Registry:    reg,
			Transport:   auditNode,
			Servers:     d.ServerIDs(),
			Coordinator: d.CoordinatorID(),
		},
		Identity:  auditIdent,
		Directory: dir,
	})
	if err != nil {
		return err
	}
	report, err := auditor.Run(ctx, audit.Options{
		CheckDatastore: true,
		Exhaustive:     d.MultiVersion,
		MultiVersion:   d.MultiVersion,
	})
	if err != nil {
		return err
	}
	fmt.Printf("audit: clean=%v over %d blocks (authoritative log from %s)\n",
		report.Clean(), len(report.Authoritative), report.AuthoritativeFrom)
	for _, f := range report.Findings {
		fmt.Printf("  %s\n", f)
	}
	return nil
}
