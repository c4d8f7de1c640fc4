// Package core assembles the Fides system of paper §4: a set of untrusted
// database servers (one shard each), a designated coordinator server
// running TFCommit (or the 2PC baseline), the shared public-key registry,
// the item directory, client factories, and the external auditor — wired
// over an in-process network with simulated latency (the reproduction's
// stand-in for the paper's single-datacenter EC2 testbed) or over TCP.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/durable"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/lightclient"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tfcommit"
	"repro/internal/transport"
	"repro/internal/twopc"
	"repro/internal/txn"
	"repro/internal/watch"
)

// Protocol selects the atomic commitment protocol a cluster runs.
type Protocol int

// Supported commit protocols.
const (
	// ProtocolTFCommit is the paper's trust-free commitment protocol.
	ProtocolTFCommit Protocol = iota + 1
	// ProtocolTwoPC is the trusted Two-Phase Commit baseline of §6.1.
	ProtocolTwoPC
)

func (p Protocol) String() string {
	switch p {
	case ProtocolTFCommit:
		return "tfcommit"
	case ProtocolTwoPC:
		return "2pc"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Config describes a cluster. Zero fields take the defaults documented on
// each field.
type Config struct {
	// NumServers is the number of database servers / shards (default 5,
	// matching most of §6).
	NumServers int
	// ItemsPerShard is the number of data items per server (default 10000,
	// §6: "each database server stores a single shard consisting of 10000
	// data items").
	ItemsPerShard int
	// MultiVersion enables multi-versioned shards (paper §4.2.1).
	MultiVersion bool
	// NetworkLatency is the simulated one-way message latency (default
	// 250µs ≈ intra-datacenter; 0 disables the simulation).
	NetworkLatency time.Duration
	// BatchSize is the number of transactions per block (default 100, §6).
	BatchSize int
	// BatchWait bounds how long the coordinator waits to fill a block.
	BatchWait time.Duration
	// Protocol selects TFCommit (default) or the 2PC baseline.
	Protocol Protocol
	// Pipeline is the maximum number of TFCommit blocks in flight at once
	// (default/1 = strictly serial rounds). With K > 1 the prepare, vote
	// and co-sign phases of block h+1 overlap the decision broadcast,
	// datastore apply and WAL fsync of block h; cohorts still validate,
	// apply and chain blocks in strict height order. TFCommit only.
	Pipeline int
	// Coordinators is the number of servers that take turns driving
	// TFCommit rounds, round-robin by block (default/1 = only server 0, the
	// paper's designated coordinator; §3 observes any server can
	// coordinate). Clients still send end_transaction to server 0, which
	// runs the termination service and dispatches each block to its
	// rotating coordinator. TFCommit only.
	Coordinators int
	// InitialValue supplies each item's starting value (default "0").
	InitialValue func(txn.ItemID) []byte
	// TCP runs the cluster over real loopback TCP sockets instead of the
	// in-process network. NetworkLatency is ignored in TCP mode (the real
	// stack supplies the latency).
	TCP bool
	// DataDir enables durability: every server keeps a write-ahead log of
	// its tamper-proof log (and periodic shard snapshots) under
	// DataDir/<server-id>/, and a cluster built on a non-empty DataDir
	// starts by verified crash recovery. Server identities are persisted in
	// the directory so recovered co-signs stay verifiable. Empty (default)
	// keeps everything in memory.
	DataDir string
	// Fsync selects the WAL flush discipline (default group commit).
	Fsync durable.FsyncMode
	// SnapshotEvery writes a shard snapshot every N committed blocks
	// (0 disables snapshots; ignored without DataDir).
	SnapshotEvery int
	// ServerFaults configures per-server misbehavior, keyed by server index
	// (0-based, in server-id order).
	ServerFaults map[int]server.Faults
	// CoordinatorFaults configures coordinator misbehavior (TFCommit only).
	CoordinatorFaults tfcommit.Faults
	// NetScheduler replaces the in-process network's delivery scheduler
	// (internal/sim installs its seeded virtual-time scheduler here).
	// Ignored in TCP mode and when nil (the default real-time sleeper).
	NetScheduler transport.Scheduler
	// PreciseNetDelay opts the default real-time scheduler into
	// microsecond-accurate delivery delays (yield-spin on the final
	// stretch). The benchmark harness sets it; tests keep the cheap plain
	// sleeps. No effect with a custom NetScheduler or in TCP mode.
	PreciseNetDelay bool
	// CrashHook, when non-nil, receives every named crash point a server
	// passes — "pre-fsync" (WAL, from internal/durable), "post-cosign" and
	// "mid-apply" (commit path, from internal/server), and "mid-broadcast"
	// (coordinator decision dissemination, from internal/tfcommit) — with
	// the server id and block height. Returning a non-nil error makes that
	// server fail at exactly that point; the simulation harness uses this
	// to crash servers between the effects a real crash can separate.
	CrashHook func(id identity.NodeID, point string, height uint64) error
	// Obs supplies the cluster-wide observability bundle: a metrics
	// registry (served by cmd/fides-server's -metrics-addr), an optional
	// tracer (the simulation harness injects a virtual-clock one), and a
	// structured logger. Nil defaults to a bundle with a fresh registry, no
	// tracer and a discard logger, so Metrics() always works. Each server
	// observes through a derived bundle labeled {server="sNN"}.
	Obs *obs.Obs
	// Crypto selects the verification-plane backend ("serial" or
	// "batched", see internal/crypto) that every server, coordinator and
	// the termination service route their signature checks through.
	// "serial" (the default) verifies inline on the calling goroutine —
	// the pre-verification-plane behavior byte-for-byte. "batched" fans
	// envelope batches and Merkle recomputation across a per-server worker
	// pool, batch-verifies co-sign shares, and caches co-sign verdicts, to
	// scale the CPU-bound commit path with cores.
	Crypto string
	// CryptoWorkers sizes each batched verifier's worker pool
	// (0 = GOMAXPROCS). Ignored with the serial backend.
	CryptoWorkers int
	// ResolveInterval, when positive, starts a background decision resolver
	// on every server of a TFCommit cluster: each server periodically asks
	// its peers for decisions it is missing and pulls any verified log
	// suffix it is behind on (server.StartResolver). Zero (the default)
	// leaves resolution to the vote path's on-demand catch-up — the
	// deterministic simulator needs it off and drives
	// server.ResolvePending explicitly so traces stay reproducible.
	ResolveInterval time.Duration
}

func (c *Config) applyDefaults() {
	if c.NumServers <= 0 {
		c.NumServers = 5
	}
	if c.ItemsPerShard <= 0 {
		c.ItemsPerShard = 10000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.Protocol == 0 {
		c.Protocol = ProtocolTFCommit
	}
	if c.Pipeline < 1 {
		c.Pipeline = 1
	}
	if c.Coordinators < 1 {
		c.Coordinators = 1
	}
	if c.Coordinators > c.NumServers {
		c.Coordinators = c.NumServers
	}
	if c.InitialValue == nil {
		c.InitialValue = func(txn.ItemID) []byte { return []byte("0") }
	}
	if c.Crypto == "" {
		c.Crypto = CryptoSerial
	}
}

// Verification-plane backends for Config.Crypto.
const (
	CryptoSerial  = "serial"
	CryptoBatched = "batched"
)

// pipelined reports whether the configuration uses the pipelined commit
// path (either lookahead depth or coordinator rotation engages it).
func (c *Config) pipelined() bool {
	return c.Protocol == ProtocolTFCommit && (c.Pipeline > 1 || c.Coordinators > 1)
}

// ServerName returns the canonical id of the i-th server.
func ServerName(i int) identity.NodeID {
	return identity.NodeID(fmt.Sprintf("s%02d", i))
}

// Cluster is a running Fides deployment.
type Cluster struct {
	cfg       Config
	o         *obs.Obs
	net       *transport.LocalNetwork
	reg       *identity.Registry
	dir       *Directory
	serverIDs []identity.NodeID
	servers   map[identity.NodeID]*server.Server
	verifiers map[identity.NodeID]crypto.Verifier
	cliVer    crypto.Verifier
	coordID   identity.NodeID
	batcher   *Batcher
	tfc       *tfcommit.Coordinator
	coords    []*tfcommit.Coordinator
	pipe      *tfcommit.Pipeline
	recovered map[identity.NodeID]*durable.Recovered
	stores    map[identity.NodeID]*durable.Store

	// TCP mode state.
	tcpAddrs map[identity.NodeID]string
	tcpNodes map[identity.NodeID]*transport.TCPNode

	mu        sync.Mutex
	closers   []io.Closer
	clientSeq atomic.Uint32
	closed    atomic.Bool
}

// newEndpoint attaches a node to the cluster's network (local or TCP).
func (c *Cluster) newEndpoint(ident *identity.Identity, handler transport.Handler) (transport.Transport, error) {
	if !c.cfg.TCP {
		return c.net.Endpoint(ident, c.reg, handler), nil
	}
	node, err := transport.NewTCPNode(ident, c.reg, "127.0.0.1:0", handler)
	if err != nil {
		return nil, fmt.Errorf("core: tcp endpoint %s: %w", ident.ID, err)
	}
	c.mu.Lock()
	for id, addr := range c.tcpAddrs {
		node.SetAddress(id, addr)
	}
	if handler != nil { // servers are dialable; clients are not
		c.tcpAddrs[ident.ID] = node.Addr()
		c.tcpNodes[ident.ID] = node
	}
	c.closers = append(c.closers, node)
	c.mu.Unlock()
	return node, nil
}

// wireTCP teaches every server node the addresses of all its peers; called
// once all server endpoints exist.
func (c *Cluster) wireTCP() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, node := range c.tcpNodes {
		for id, addr := range c.tcpAddrs {
			node.SetAddress(id, addr)
		}
	}
}

// NewCluster builds and starts a cluster per cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	if cfg.Protocol != ProtocolTFCommit && (cfg.Pipeline > 1 || cfg.Coordinators > 1) {
		return nil, errors.New("core: Pipeline and Coordinators require TFCommit")
	}
	if cfg.Crypto != CryptoSerial && cfg.Crypto != CryptoBatched {
		return nil, fmt.Errorf("core: unknown crypto backend %q", cfg.Crypto)
	}

	o := cfg.Obs
	if o == nil {
		o = &obs.Obs{Metrics: obs.NewRegistry()}
	}
	c := &Cluster{
		cfg:       cfg,
		o:         o,
		net:       transport.NewLocalNetwork(cfg.NetworkLatency),
		reg:       identity.NewRegistry(),
		servers:   make(map[identity.NodeID]*server.Server, cfg.NumServers),
		verifiers: make(map[identity.NodeID]crypto.Verifier, cfg.NumServers),
		recovered: make(map[identity.NodeID]*durable.Recovered),
		stores:    make(map[identity.NodeID]*durable.Store),
		tcpAddrs:  make(map[identity.NodeID]string),
		tcpNodes:  make(map[identity.NodeID]*transport.TCPNode),
	}
	if cfg.NetScheduler != nil {
		c.net.SetScheduler(cfg.NetScheduler)
	} else if cfg.PreciseNetDelay {
		c.net.SetPreciseDelay(true)
	}
	// On any construction failure, release whatever was already opened
	// (durable stores, TCP sockets).
	built := false
	defer func() {
		if !built {
			c.mu.Lock()
			closers := c.closers
			c.closers = nil
			c.mu.Unlock()
			for _, cl := range closers {
				_ = cl.Close()
			}
		}
	}()

	// Identities and shard layout. With a data directory the server keys
	// are persistent — a restarted cluster must be the same signer set or
	// none of the recovered collective signatures would verify.
	var idents []*identity.Identity
	if cfg.DataDir != "" {
		var err error
		idents, err = loadOrCreateServerIdents(cfg.DataDir, cfg.NumServers)
		if err != nil {
			return nil, err
		}
	} else {
		idents = make([]*identity.Identity, cfg.NumServers)
		for i := 0; i < cfg.NumServers; i++ {
			ident, err := identity.New(ServerName(i), identity.RoleServer, nil)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			idents[i] = ident
		}
	}
	shards := make(map[identity.NodeID][]txn.ItemID, cfg.NumServers)
	for i := 0; i < cfg.NumServers; i++ {
		id := ServerName(i)
		c.reg.Register(idents[i].Public())
		c.serverIDs = append(c.serverIDs, id)

		items := make([]txn.ItemID, cfg.ItemsPerShard)
		for j := 0; j < cfg.ItemsPerShard; j++ {
			items[j] = ItemName(i, j)
		}
		shards[id] = items
	}
	c.dir = NewDirectory(shards)

	// Servers and their endpoints. With a data directory each server opens
	// its durable store and starts from verified crash recovery.
	endpoints := make(map[identity.NodeID]transport.Transport, cfg.NumServers)
	for i := 0; i < cfg.NumServers; i++ {
		id := c.serverIDs[i]
		so := o.With(obs.L("server", string(id)))
		c.verifiers[id] = c.newVerifier(so)
		scfg := server.Config{
			Identity:  idents[i],
			Registry:  c.reg,
			Directory: c.dir,
			Faults:    cfg.ServerFaults[i],
			Obs:       so,
			Verifier:  c.verifiers[id],
		}
		if cfg.CrashHook != nil {
			hook, sid := cfg.CrashHook, id
			scfg.CrashHook = func(point string, height uint64) error {
				return hook(sid, point, height)
			}
		}
		if cfg.pipelined() {
			// Cohorts must tolerate a block announcement overtaking its
			// predecessor's decision (the pipelined lookahead); the wait is
			// bounded so a dead round cannot park a handler forever.
			scfg.VoteLookahead = VoteLookahead
		}
		if cfg.DataDir == "" {
			scfg.Shard = newShardFor(c.dir, id, cfg, c.verifiers[id].Pool())
		} else {
			dopts := durable.Options{
				Dir:           filepath.Join(cfg.DataDir, string(id)),
				Fsync:         cfg.Fsync,
				SnapshotEvery: cfg.SnapshotEvery,
				Obs:           so,
			}
			if cfg.CrashHook != nil {
				hook, sid := cfg.CrashHook, id
				dopts.PreFsyncHook = func(nextHeight uint64) error {
					return hook(sid, "pre-fsync", nextHeight)
				}
			}
			dstore, err := durable.Open(dopts)
			if err != nil {
				return nil, fmt.Errorf("core: server %s: %w", id, err)
			}
			c.mu.Lock()
			c.closers = append(c.closers, dstore)
			c.mu.Unlock()
			c.stores[id] = dstore
			rec, err := dstore.Recover(durable.RecoveryConfig{
				Verifier:     ledger.NewChainVerifier(c.serverIDs, crypto.NewSerial(c.reg)),
				Self:         id,
				ShardIDs:     c.dir.ShardItems(id),
				InitialValue: cfg.InitialValue,
				MultiVersion: cfg.MultiVersion,
			})
			if err != nil {
				return nil, fmt.Errorf("core: server %s: recovery: %w", id, err)
			}
			log, err := ledger.NewLogFromBlocks(rec.Blocks)
			if err != nil {
				return nil, fmt.Errorf("core: server %s: recovered log: %w", id, err)
			}
			if cfg.pipelined() {
				// The durability layer enforces its own height ordering
				// under pipelining instead of inheriting it from the
				// commit layer's scheduling.
				log.SetPersister(durable.NewOrderedPersister(dstore, uint64(len(rec.Blocks))))
			} else {
				log.SetPersister(dstore)
			}
			scfg.Shard = rec.Shard
			scfg.Log = log
			scfg.Snapshot = dstore
			c.recovered[id] = rec
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("core: server %s: %w", id, err)
		}
		c.servers[id] = srv
		ep, err := c.newEndpoint(idents[i], srv)
		if err != nil {
			return nil, err
		}
		endpoints[id] = ep
	}
	if cfg.TCP {
		c.wireTCP()
	}

	// Catch-up mesh (TFCommit only — a 2PC block carries no co-sign, so a
	// fetched block could not authenticate itself). Installed after every
	// endpoint exists because each server reaches its peers through its own
	// endpoint. With it, a cohort that times out waiting for a decision
	// asks its peers instead of failing, and a server that restarted behind
	// the cluster tip pulls and re-verifies the missing log suffix.
	if cfg.Protocol == ProtocolTFCommit {
		for _, id := range c.serverIDs {
			if err := c.servers[id].EnableCatchup(server.CatchupConfig{
				Transport: endpoints[id],
				Servers:   c.serverIDs,
			}); err != nil {
				return nil, fmt.Errorf("core: server %s: %w", id, err)
			}
			if cfg.ResolveInterval > 0 {
				stop := c.servers[id].StartResolver(cfg.ResolveInterval)
				c.mu.Lock()
				c.closers = append(c.closers, stopCloser(stop))
				c.mu.Unlock()
			}
		}
	}

	// The designated coordinator (paper §4.1: "one designated server acts
	// as the transaction coordinator responsible for terminating all
	// transactions") is the first server.
	c.coordID = c.serverIDs[0]
	coordSrv := c.servers[c.coordID]

	var committer BlockCommitter
	switch cfg.Protocol {
	case ProtocolTFCommit:
		// One coordinator instance per coordinating server: block r is
		// driven by server r mod Coordinators (paper §3: any server can
		// act as the coordinator). Every instance is safe to use because
		// the termination service on server 0 verifies all client
		// envelopes before any block reaches the commit protocol.
		coords := make([]*tfcommit.Coordinator, cfg.Coordinators)
		for i := 0; i < cfg.Coordinators; i++ {
			id := c.serverIDs[i]
			tcfg := tfcommit.Config{
				Identity:  idents[i],
				Registry:  c.reg,
				Transport: endpoints[id],
				Servers:   c.serverIDs,
				Local:     c.servers[id],
				Faults:    cfg.CoordinatorFaults,
				Obs:       o.With(obs.L("server", string(id))),
				// The coordinating server's own verification plane: the
				// co-sign verdict established before publication is then a
				// cache hit when the local cohort re-checks it at Decide.
				Verifier: c.verifiers[id],
			}
			if cfg.CrashHook != nil {
				hook, cid := cfg.CrashHook, id
				tcfg.CrashHook = func(point string, height uint64) error {
					return hook(cid, point, height)
				}
			}
			tfc, err := tfcommit.New(tcfg)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			coords[i] = tfc
		}
		c.tfc = coords[0]
		c.coords = coords
		if cfg.pipelined() {
			coordLog := coordSrv.Log()
			pipe, err := tfcommit.NewPipeline(tfcommit.PipelineConfig{
				Coordinators: coords,
				Depth:        cfg.Pipeline,
				Height:       uint64(coordLog.Len()),
				PrevHash:     coordLog.TipHash(),
			})
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			c.pipe = pipe
			committer = pipeAdapter{pipe}
		} else {
			committer = tfcAdapter{coords[0]}
		}
	case ProtocolTwoPC:
		tpc, err := twopc.New(twopc.Config{
			Identity:  idents[0],
			Transport: endpoints[c.coordID],
			Servers:   c.serverIDs,
			Local:     coordSrv,
		})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		committer = tpcAdapter{tpc}
	default:
		return nil, fmt.Errorf("core: unknown protocol %v", cfg.Protocol)
	}

	c.batcher = NewPipelinedBatcherObs(committer, c.reg, cfg.BatchSize, cfg.BatchWait, cfg.Pipeline, o.With(obs.L("server", string(c.coordID))))
	// The termination service verifies envelopes through the designated
	// coordinator's plane, so a batched backend coalesces concurrent
	// Terminate calls — and its cohort's Terminate-time verdicts are warm.
	c.batcher.SetVerifier(c.verifiers[c.coordID])
	// A recovered coordinator keeps rejecting timestamps at or below the
	// recovered watermark instead of letting doomed blocks reach cohorts.
	c.batcher.Observe(coordSrv.LastCommitted())
	coordSrv.SetTerminator(c.batcher)
	built = true
	return c, nil
}

// stopCloser adapts a stop function (server.StartResolver's return) to the
// io.Closer the cluster's teardown list holds.
type stopCloser func()

func (f stopCloser) Close() error { f(); return nil }

// newVerifier builds one verification-plane instance per the cluster's
// Crypto backend selection. Batched instances are registered for teardown;
// a closed pool degrades to inline verification, so teardown order against
// in-flight work is safe either way.
func (c *Cluster) newVerifier(o *obs.Obs) crypto.Verifier {
	if c.cfg.Crypto != CryptoBatched {
		return crypto.NewSerial(c.reg)
	}
	v := crypto.NewBatched(crypto.Options{Registry: c.reg, Workers: c.cfg.CryptoWorkers, Obs: o})
	c.mu.Lock()
	c.closers = append(c.closers, verifierCloser{v})
	c.mu.Unlock()
	return v
}

// verifierCloser adapts crypto.Verifier.Close to io.Closer.
type verifierCloser struct{ v crypto.Verifier }

func (vc verifierCloser) Close() error { vc.v.Close(); return nil }

// ClientVerifier returns the verification plane shared by every client,
// light client, watchtower and auditor the cluster mints — shared on
// purpose: they all verify the same co-signed headers, so one verdict
// cache serves them all. Built lazily so clusters that never mint a
// client pay nothing.
func (c *Cluster) ClientVerifier() crypto.Verifier {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cliVer == nil {
		if c.cfg.Crypto != CryptoBatched {
			c.cliVer = crypto.NewSerial(c.reg)
		} else {
			v := crypto.NewBatched(crypto.Options{Registry: c.reg, Workers: c.cfg.CryptoWorkers, Obs: c.o.With(obs.L("server", "clients"))})
			c.closers = append(c.closers, verifierCloser{v})
			c.cliVer = v
		}
	}
	return c.cliVer
}

// CoordinatorStats sums decision-delivery counters across every rotating
// coordinator instance (zero value for non-TFCommit clusters). The
// simulation harness surfaces them in scenario results.
func (c *Cluster) CoordinatorStats() tfcommit.Stats {
	var total tfcommit.Stats
	for _, tfc := range c.coords {
		st := tfc.Stats()
		total.DecisionRetries += st.DecisionRetries
		total.DecisionUnacked += st.DecisionUnacked
	}
	return total
}

// Recovery returns what crash recovery found for a server (nil when the
// cluster is not durable or the id is unknown).
func (c *Cluster) Recovery(id identity.NodeID) *durable.Recovered {
	return c.recovered[id]
}

// DurableStore returns a server's durable store (nil when the cluster is
// not durable or the id is unknown). The simulation harness uses it to
// freeze a server's disk at a crash point (durable.Store.Fail).
func (c *Cluster) DurableStore(id identity.NodeID) *durable.Store {
	return c.stores[id]
}

// Network returns the in-process network the cluster runs on (nil in TCP
// mode). The simulation harness uses it to detach crashed servers.
func (c *Cluster) Network() *transport.LocalNetwork {
	if c.cfg.TCP {
		return nil
	}
	return c.net
}

func newShardFor(dir *Directory, id identity.NodeID, cfg Config, pool *crypto.Pool) *store.Shard {
	scfg := store.Config{MultiVersion: cfg.MultiVersion}
	// With the batched backend the verifier's worker pool doubles as the
	// shard's Merkle leaf hasher (store.Hasher), so per-shard root
	// recomputation in Vote/Apply fans out across the same cores.
	if pool != nil {
		scfg.Hasher = pool
	}
	return store.NewShard(dir.ShardItems(id), cfg.InitialValue, scfg)
}

// NewCoordinatorCommitter adapts a tfcommit.Coordinator into the batcher's
// committer interface (cmd/fides-server uses it for serial deployments).
func NewCoordinatorCommitter(c *tfcommit.Coordinator) BlockCommitter { return tfcAdapter{c} }

// NewPipelineCommitter adapts a tfcommit.Pipeline into the batcher's
// committer interface, including the position-sequencing retry capability
// (cmd/fides-server uses it for pipelined deployments).
func NewPipelineCommitter(p *tfcommit.Pipeline) BlockCommitter { return pipeAdapter{p} }

// tfcAdapter adapts tfcommit.Coordinator to BlockCommitter.
type tfcAdapter struct{ c *tfcommit.Coordinator }

func (a tfcAdapter) CommitBlock(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope) (*ledger.Block, bool, []int, error) {
	res, err := a.c.CommitBlock(ctx, txns, envs)
	if err != nil {
		return nil, false, nil, err
	}
	return res.Block, res.Committed, res.FailedTxns, nil
}

// pipeAdapter adapts tfcommit.Pipeline to BlockCommitter and
// RetryCommitter.
type pipeAdapter struct{ p *tfcommit.Pipeline }

func (a pipeAdapter) CommitBlock(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope) (*ledger.Block, bool, []int, error) {
	res, err := a.p.CommitBlock(ctx, txns, envs)
	if err != nil {
		return nil, false, nil, err
	}
	return res.Block, res.Committed, res.FailedTxns, nil
}

func (a pipeAdapter) EnqueueBlockRetry(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope, maxPrunes int, dropped func(int, *ledger.Block)) (func() (*ledger.Block, bool, error), error) {
	wait, err := a.p.Enqueue(ctx, txns, envs, maxPrunes, func(i int, r *tfcommit.Result) {
		dropped(i, r.Block)
	})
	if err != nil {
		return nil, err
	}
	return func() (*ledger.Block, bool, error) {
		res, err := wait()
		if err != nil {
			return nil, false, err
		}
		return res.Block, res.Committed, nil
	}, nil
}

// tpcAdapter adapts twopc.Coordinator to BlockCommitter.
type tpcAdapter struct{ c *twopc.Coordinator }

func (a tpcAdapter) CommitBlock(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope) (*ledger.Block, bool, []int, error) {
	res, err := a.c.CommitBlock(ctx, txns, envs)
	if err != nil {
		return nil, false, nil, err
	}
	return res.Block, res.Committed, nil, nil
}

// Registry returns the cluster's shared public-key registry.
func (c *Cluster) Registry() *identity.Registry { return c.reg }

// Obs returns the cluster's observability bundle (never nil).
func (c *Cluster) Obs() *obs.Obs { return c.o }

// Metrics returns the cluster-wide metrics registry every component
// reports into: per-server instruments carry a {server="sNN"} label, so
// one exposition aggregates the whole deployment.
func (c *Cluster) Metrics() *obs.Registry { return c.o.Metrics }

// Directory returns the item→server directory.
func (c *Cluster) Directory() *Directory { return c.dir }

// Servers returns the server ids in canonical order.
func (c *Cluster) Servers() []identity.NodeID {
	return append([]identity.NodeID(nil), c.serverIDs...)
}

// Server returns the server with the given id (nil if unknown).
func (c *Cluster) Server(id identity.NodeID) *server.Server { return c.servers[id] }

// ServerAt returns the i-th server.
func (c *Cluster) ServerAt(i int) *server.Server { return c.servers[c.serverIDs[i]] }

// Coordinator returns the designated coordinator's id.
func (c *Cluster) Coordinator() identity.NodeID { return c.coordID }

// VoteLookahead bounds how long a cohort parks a pipelined block
// announcement that overtook its predecessor's decision. Generous against
// slow fsyncs; a dead round resolves far sooner via the chain position
// being reused. Exported so cmd/fides-server arms cohorts with the same
// bound the in-process cluster uses.
const VoteLookahead = 15 * time.Second

// SetCoordinatorFaults swaps the coordinator's fault configuration
// (TFCommit clusters only; with rotation, on every coordinator).
func (c *Cluster) SetCoordinatorFaults(f tfcommit.Faults) error {
	if c.tfc == nil {
		return errors.New("core: cluster does not run TFCommit")
	}
	if c.pipe != nil {
		c.pipe.SetFaults(f)
		return nil
	}
	c.tfc.SetFaults(f)
	return nil
}

// Pipeline exposes the cluster's commit pipeline (nil when the cluster
// runs serial rounds); tests drive it directly for deterministic block
// sequencing.
func (c *Cluster) Pipeline() *tfcommit.Pipeline { return c.pipe }

// CommitBlockDirect runs one commit round over pre-built transactions and
// their client-signed envelopes, bypassing the batching service. It exists
// for tests and demonstrations that need precisely crafted histories (e.g.
// the failure scenarios of paper §5); normal clients terminate through
// Session.Commit.
func (c *Cluster) CommitBlockDirect(ctx context.Context, txns []*txn.Transaction, envs []identity.Envelope) (*ledger.Block, bool, error) {
	if c.tfc == nil {
		return nil, false, errors.New("core: direct commits require a TFCommit cluster")
	}
	// The batching service verifies every client envelope on Terminate
	// before it reaches the commit protocol; the coordinator's local
	// cohort relies on that check having happened (it skips the redundant
	// signature verification on the from==self path). Direct commits
	// bypass Terminate, so perform the same verification here, through
	// the coordinator's verification plane.
	if i, err := crypto.FirstError(c.verifiers[c.coordID].VerifyBatch(envs)); err != nil {
		return nil, false, fmt.Errorf("core: direct commit envelope %d: %w", i, err)
	}
	var committer BlockCommitter = tfcAdapter{c.tfc}
	if c.pipe != nil {
		// A pipelined cluster sequences all blocks — including direct
		// ones — through the pipeline, so heights cannot collide with
		// concurrently dispatched batches.
		committer = pipeAdapter{c.pipe}
	}
	block, committed, _, err := committer.CommitBlock(ctx, txns, envs)
	return block, committed, err
}

// SignTxn signs a transaction exactly as a client library would — over the
// canonical binary encoding — producing the envelope CommitBlockDirect
// expects.
func SignTxn(ident *identity.Identity, t *txn.Transaction) (identity.Envelope, error) {
	return identity.Seal(ident, t.AppendBinary(nil)), nil
}

// Endpoint attaches an already registered identity to the cluster's
// network and returns its transport, for callers that drive the wire
// protocol directly (the bench read drivers do).
func (c *Cluster) Endpoint(ident *identity.Identity) (transport.Transport, error) {
	return c.newEndpoint(ident, nil)
}

// NewClientIdentity registers and returns a fresh client identity, for
// callers that drive the wire protocol directly.
func (c *Cluster) NewClientIdentity() (*identity.Identity, error) {
	seq := c.clientSeq.Add(1)
	id := identity.NodeID(fmt.Sprintf("c%04d", seq))
	ident, err := identity.New(id, identity.RoleClient, nil)
	if err != nil {
		return nil, fmt.Errorf("core: client identity: %w", err)
	}
	c.reg.Register(ident.Public())
	return ident, nil
}

// NewClient creates and registers a fresh client attached to the cluster's
// network.
func (c *Cluster) NewClient() (*client.Client, error) {
	return c.NewClientWithTS(nil)
}

// NewClientWithTS creates a client drawing commit timestamps from the given
// shared source (nil for a private per-client clock). Benchmark drivers
// share one source across all clients, mirroring the paper's single
// timestamp-generating mechanism (§4.1).
func (c *Cluster) NewClientWithTS(ts txn.TSSource) (*client.Client, error) {
	seq := c.clientSeq.Add(1)
	id := identity.NodeID(fmt.Sprintf("c%04d", seq))
	ident, err := identity.New(id, identity.RoleClient, nil)
	if err != nil {
		return nil, fmt.Errorf("core: client identity: %w", err)
	}
	c.reg.Register(ident.Public())
	ep, err := c.newEndpoint(ident, nil)
	if err != nil {
		return nil, err
	}
	return client.New(client.Config{
		Identity:    ident,
		Registry:    c.reg,
		Transport:   ep,
		Directory:   c.dir,
		Coordinator: c.coordID,
		ClientID:    seq,
		TSSource:    ts,
		Obs:         c.o,
		// 2PC is the trusted baseline: its blocks carry no co-sign.
		TrustedMode: c.cfg.Protocol == ProtocolTwoPC,
	})
}

// NewLightClient creates and registers a light client attached to the
// cluster's network: a header-chain verifier serving proof-carrying reads
// (internal/lightclient). Many sessions and clients may share it — the
// header cache is shared state and sharing it is the point.
func (c *Cluster) NewLightClient() (*lightclient.Client, error) {
	seq := c.clientSeq.Add(1)
	id := identity.NodeID(fmt.Sprintf("lc%04d", seq))
	ident, err := identity.New(id, identity.RoleClient, nil)
	if err != nil {
		return nil, fmt.Errorf("core: light client identity: %w", err)
	}
	c.reg.Register(ident.Public())
	ep, err := c.newEndpoint(ident, nil)
	if err != nil {
		return nil, err
	}
	return lightclient.New(lightclient.Config{
		PeerConfig: peer.PeerConfig{
			Registry:  c.reg,
			Transport: ep,
			Servers:   c.serverIDs,
			Obs:       c.o,
			Verifier:  c.ClientVerifier(),
		},
		Layout: c.dir,
	})
}

// NewVerifyingClient creates a client whose sessions support Verified() reads,
// backed by the given light client (a fresh one when lc is nil). The light
// client is returned alongside so callers can drive Sync and read stats.
func (c *Cluster) NewVerifyingClient(lc *lightclient.Client) (*client.Client, *lightclient.Client, error) {
	if lc == nil {
		var err error
		if lc, err = c.NewLightClient(); err != nil {
			return nil, nil, err
		}
	}
	seq := c.clientSeq.Add(1)
	id := identity.NodeID(fmt.Sprintf("c%04d", seq))
	ident, err := identity.New(id, identity.RoleClient, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("core: client identity: %w", err)
	}
	c.reg.Register(ident.Public())
	ep, err := c.newEndpoint(ident, nil)
	if err != nil {
		return nil, nil, err
	}
	cl, err := client.New(client.Config{
		Identity:    ident,
		Registry:    c.reg,
		Transport:   ep,
		Directory:   c.dir,
		Coordinator: c.coordID,
		ClientID:    seq,
		Verifier:    lc,
		Obs:         c.o,
		TrustedMode: c.cfg.Protocol == ProtocolTwoPC,
	})
	if err != nil {
		return nil, nil, err
	}
	return cl, lc, nil
}

// NewWatchtower creates and registers a continuous integrity watchtower
// attached to the cluster's network (internal/watch), sampling every
// server every poll (SampleRate 1) — tests and the sim want deterministic
// coverage, not statistical. Production deployments tune the rate through
// cmd/fides-watch instead.
func (c *Cluster) NewWatchtower() (*watch.Watchtower, error) {
	seq := c.clientSeq.Add(1)
	id := identity.NodeID(fmt.Sprintf("wt%04d", seq))
	ident, err := identity.New(id, identity.RoleClient, nil)
	if err != nil {
		return nil, fmt.Errorf("core: watchtower identity: %w", err)
	}
	c.reg.Register(ident.Public())
	ep, err := c.newEndpoint(ident, nil)
	if err != nil {
		return nil, err
	}
	return watch.New(watch.Config{
		PeerConfig: peer.PeerConfig{
			Registry:    c.reg,
			Transport:   ep,
			Servers:     c.serverIDs,
			Coordinator: c.coordID,
			Obs:         c.o,
			Verifier:    c.ClientVerifier(),
		},
		Layout:     c.dir,
		SampleRate: 1,
	})
}

// NewAuditor creates and registers an external auditor for the cluster.
func (c *Cluster) NewAuditor() (*audit.Auditor, error) {
	seq := c.clientSeq.Add(1)
	id := identity.NodeID(fmt.Sprintf("auditor%02d", seq))
	ident, err := identity.New(id, identity.RoleClient, nil)
	if err != nil {
		return nil, fmt.Errorf("core: auditor identity: %w", err)
	}
	c.reg.Register(ident.Public())
	ep, err := c.newEndpoint(ident, nil)
	if err != nil {
		return nil, err
	}
	return audit.New(audit.Config{
		PeerConfig: peer.PeerConfig{
			Registry:    c.reg,
			Transport:   ep,
			Servers:     c.serverIDs,
			Coordinator: c.coordID,
			Verifier:    c.ClientVerifier(),
		},
		Identity:  ident,
		Directory: c.dir,
	})
}

// Audit runs a full audit with the given options.
func (c *Cluster) Audit(ctx context.Context, opts audit.Options) (*audit.Report, error) {
	a, err := c.NewAuditor()
	if err != nil {
		return nil, err
	}
	return a.Run(ctx, opts)
}

// Close shuts the cluster down: the termination service stops first, then
// any TCP endpoints are closed and drained.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.batcher.Close()
	c.mu.Lock()
	closers := c.closers
	c.closers = nil
	c.mu.Unlock()
	for _, cl := range closers {
		_ = cl.Close()
	}
}
