package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/identity"
	"repro/internal/lightclient"
	"repro/internal/peer"
	"repro/internal/server"
	"repro/internal/txn"
)

// lcCluster builds a small cluster for light-client tests.
func lcCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.NumServers == 0 {
		cfg.NumServers = 3
	}
	if cfg.ItemsPerShard == 0 {
		cfg.ItemsPerShard = 32
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	cfg.BatchWait = 500 * time.Microsecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestLightClientColdSyncAndVerifiedRead is the basic tentpole path: cold
// header sync, then proof-carrying reads whose values match what committed.
func TestLightClientColdSyncAndVerifiedRead(t *testing.T) {
	c := lcCluster(t, Config{})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	items := []txn.ItemID{ItemName(0, 1), ItemName(1, 2), ItemName(2, 3)}
	for i, it := range items {
		commitRW(t, ctx, cl, it, "v"+string(rune('a'+i)), true)
	}

	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	tip, err := lc.Sync(ctx)
	if err != nil {
		t.Fatalf("cold sync: %v", err)
	}
	if want := uint64(c.ServerAt(0).Log().Len()); tip != want {
		t.Fatalf("synced to %d, log at %d", tip, want)
	}

	vals, err := lc.ReadVerified(ctx, items...)
	if err != nil {
		t.Fatalf("verified read: %v", err)
	}
	for i, v := range vals {
		if want := "v" + string(rune('a'+i)); string(v.Value) != want {
			t.Fatalf("item %s: got %q, want %q", v.ID, v.Value, want)
		}
	}
	st := lc.Stats()
	if st.HeadersVerified == 0 || st.ReadsVerified != len(items) {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLightClientResumableSync checks sync resumes from a trusted
// checkpoint without re-reading history.
func TestLightClientResumableSync(t *testing.T) {
	c := lcCluster(t, Config{})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	item := ItemName(1, 4)
	commitRW(t, ctx, cl, item, "before", true)

	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	ckptHeight, ckptHash, ok := lc.Checkpoint()
	if !ok {
		t.Fatal("no checkpoint after sync")
	}

	commitRW(t, ctx, cl, item, "after", true)

	// A fresh light client resumes from the checkpoint: only the new
	// headers are fetched and verified.
	ident, err := identity.New("lc-resume", identity.RoleClient, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Registry().Register(ident.Public())
	ep, err := c.newEndpoint(ident, nil)
	if err != nil {
		t.Fatal(err)
	}
	lc2, err := lightclient.New(lightclient.Config{
		PeerConfig: peer.PeerConfig{
			Registry:  c.Registry(),
			Transport: ep,
			Servers:   c.Servers(),
		},
		Layout:           c.Directory(),
		CheckpointHeight: ckptHeight,
		CheckpointHash:   ckptHash,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc2.Sync(ctx); err != nil {
		t.Fatalf("resumed sync: %v", err)
	}
	if got, want := lc2.SyncedHeight(), uint64(c.ServerAt(0).Log().Len()); got != want {
		t.Fatalf("resumed to %d, want %d", got, want)
	}
	if verified := lc2.Stats().HeadersVerified; verified >= int(lc2.SyncedHeight()) {
		t.Fatalf("resumed client verified %d headers, should verify only the suffix", verified)
	}
	vals, err := lc2.ReadVerified(ctx, item)
	if err != nil {
		t.Fatalf("verified read after resume: %v", err)
	}
	if string(vals[0].Value) != "after" {
		t.Fatalf("got %q, want %q", vals[0].Value, "after")
	}

}

// TestSessionReadVerifiedCommits drives a Verified() read through a full
// transaction: the verified value enters the read set and the transaction
// commits like any other.
func TestSessionReadVerifiedCommits(t *testing.T) {
	c := lcCluster(t, Config{})
	ctx := context.Background()
	plain, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	item := ItemName(2, 7)
	commitRW(t, ctx, plain, item, "seed", true)

	cl, lc, err := c.NewVerifyingClient(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	s := cl.Begin()
	v, err := s.Read(ctx, item, client.Verified())
	if err != nil {
		t.Fatalf("session verified read: %v", err)
	}
	if string(v) != "seed" {
		t.Fatalf("got %q, want %q", v, "seed")
	}
	if err := s.Write(ctx, item, []byte("seed2")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatal("transaction with verified read aborted")
	}
	report, err := c.Audit(ctx, audit.Options{CheckDatastore: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("audit not clean: %v", report.Findings)
	}
}

// TestReadVerifiedCatchesStaleReadsAtReadTime is the trust-model upgrade
// the subsystem exists for (satellite 1): with the StaleReads fault
// enabled, the plain Read path silently accepts the lie — only a later
// audit maps it to FindingIncorrectRead — while ReadVerified rejects it
// immediately with ErrIncorrectRead.
func TestReadVerifiedCatchesStaleReadsAtReadTime(t *testing.T) {
	c := lcCluster(t, Config{NumServers: 4})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	victim := ItemName(1, 3) // owned by s01

	commitRW(t, ctx, cl, victim, "honest-1", true)
	commitRW(t, ctx, cl, victim, "honest-2", true)
	commitRW(t, ctx, cl, ItemName(2, 1), "bystander", true) // a root for the honest shard

	// s01 turns malicious: it serves the previous value with up-to-date
	// timestamps (paper §5 Scenario 1).
	c.ServerAt(1).SetFaults(server.Faults{StaleReads: true})

	// Plain read: the lie is accepted at read time...
	s := cl.Begin()
	got, err := s.Read(ctx, victim)
	if err != nil {
		t.Fatalf("plain read: %v", err)
	}
	if string(got) != "honest-1" {
		t.Fatalf("expected the stale lie %q from the faulty server, got %q", "honest-1", got)
	}
	// ...and only an audit of the poisoned log detects it (Lemma 1).
	if err := s.Write(ctx, victim, []byte("poisoned")); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Commit(ctx); err != nil || !res.Committed {
		t.Fatalf("poisoned commit: %v committed=%v", err, res != nil && res.Committed)
	}
	report, err := c.Audit(ctx, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.ByType(audit.FindingIncorrectRead)) == 0 {
		t.Fatalf("audit missed the incorrect read; findings: %v", report.Findings)
	}

	// Verified read: the same lie is rejected the moment it is served,
	// with the online analogue of that finding.
	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.ReadVerified(ctx, victim); !errors.Is(err, lightclient.ErrIncorrectRead) {
		t.Fatalf("verified read of stale value: got %v, want ErrIncorrectRead", err)
	}

	// An honest shard still reads fine through the same light client.
	if _, err := lc.ReadVerified(ctx, ItemName(2, 1)); err != nil {
		t.Fatalf("verified read from honest server: %v", err)
	}
}

// TestReadVerifiedCatchesCorruptedDatastore: a corrupted apply (Scenario 3)
// diverges the shard from its committed root, so proofs generated from the
// corrupted state fail against the header chain immediately — no
// CheckDatastore audit needed.
func TestReadVerifiedCatchesCorruptedDatastore(t *testing.T) {
	c := lcCluster(t, Config{NumServers: 4})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	victim := ItemName(2, 5)
	commitRW(t, ctx, cl, victim, "honest", true)

	c.ServerAt(2).SetFaults(server.Faults{CorruptApplyValue: []byte("evil")})
	commitRW(t, ctx, cl, victim, "target", true)

	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.ReadVerified(ctx, victim); !errors.Is(err, lightclient.ErrIncorrectRead) {
		t.Fatalf("verified read of corrupted item: got %v, want ErrIncorrectRead", err)
	}
}

// TestPinnedSnapshotReads: multi-versioned shards serve proof-carrying
// reads pinned at a historical height; the proof verifies against the root
// committed at that height and returns the then-current value.
func TestPinnedSnapshotReads(t *testing.T) {
	c := lcCluster(t, Config{MultiVersion: true})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	item := ItemName(0, 9)

	res1 := commitRW(t, ctx, cl, item, "epoch-1", true)
	commitRW(t, ctx, cl, item, "epoch-2", true)
	commitRW(t, ctx, cl, item, "epoch-3", true)

	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	// Current read sees the newest value.
	vals, err := lc.ReadVerified(ctx, item)
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0].Value) != "epoch-3" {
		t.Fatalf("current read: got %q", vals[0].Value)
	}

	// Pinned at the first commit's height: the then-current state.
	pin := res1.Block.Height
	old, err := lc.ReadPinned(ctx, pin, item)
	if err != nil {
		t.Fatalf("pinned read: %v", err)
	}
	if string(old[0].Value) != "epoch-1" {
		t.Fatalf("pinned read at %d: got %q, want %q", pin, old[0].Value, "epoch-1")
	}
	if old[0].Height != pin {
		t.Fatalf("pinned read authenticated at %d, want %d", old[0].Height, pin)
	}

	// Single-versioned shards refuse historical pins (served as an error,
	// not a lie).
	c2 := lcCluster(t, Config{})
	cl2, err := c2.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	commitRW(t, ctx, cl2, item, "sv-1", true)
	commitRW(t, ctx, cl2, item, "sv-2", true)
	lc2, err := c2.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc2.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lc2.ReadPinned(ctx, 0, item); err == nil {
		t.Fatal("single-versioned shard served a historical pinned read")
	}
}

// TestVerifiedReadBatch reads a batch from one shard and checks the proof
// amortization reaches the client (one response, one multiproof).
func TestVerifiedReadBatch(t *testing.T) {
	c := lcCluster(t, Config{})
	ctx := context.Background()
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	var batch []txn.ItemID
	for i := 0; i < 8; i++ {
		batch = append(batch, ItemName(0, i))
	}
	commitRW(t, ctx, cl, batch[0], "x", true) // establish a root for s00

	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	vals, err := lc.ReadVerified(ctx, batch...)
	if err != nil {
		t.Fatalf("batched read: %v", err)
	}
	if len(vals) != len(batch) {
		t.Fatalf("got %d values for %d items", len(vals), len(batch))
	}
	for i, v := range vals {
		if v.ID != batch[i] {
			t.Fatalf("result %d out of order: %s", i, v.ID)
		}
	}
	if st := lc.Stats(); st.ReadsVerified != len(batch) {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLightClientOverTCPDetectsTampering is the end-to-end acceptance test
// over real TCP: a light client cold-syncs headers, performs verified
// reads matching a concurrent audit's view, then each of the three
// tampering classes — value, proof, header — is detected with its own
// distinct error.
func TestLightClientOverTCPDetectsTampering(t *testing.T) {
	c, err := NewCluster(Config{
		NumServers:    3,
		ItemsPerShard: 32,
		BatchSize:     2,
		BatchWait:     time.Millisecond,
		TCP:           true,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	ctx := context.Background()

	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	items := []txn.ItemID{ItemName(0, 3), ItemName(1, 5), ItemName(2, 7)}
	want := map[txn.ItemID]string{}
	for i, it := range items {
		val := "tcp-" + string(rune('a'+i))
		commitRW(t, ctx, cl, it, val, true)
		want[it] = val
	}

	// Cold sync over TCP.
	lc, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	tip, err := lc.Sync(ctx)
	if err != nil {
		t.Fatalf("cold sync over tcp: %v", err)
	}
	if wantTip := uint64(c.ServerAt(0).Log().Len()); tip != wantTip {
		t.Fatalf("synced %d, want %d", tip, wantTip)
	}

	// Verified reads agree with a concurrent audit's authoritative view.
	vals, err := lc.ReadVerified(ctx, items...)
	if err != nil {
		t.Fatalf("verified reads over tcp: %v", err)
	}
	for _, v := range vals {
		if want[v.ID] != string(v.Value) {
			t.Fatalf("item %s: got %q, want %q", v.ID, v.Value, want[v.ID])
		}
	}
	report, err := c.Audit(ctx, audit.Options{CheckDatastore: true})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("audit found: %v", report.Findings)
	}
	if got := uint64(len(report.Authoritative)); got != tip {
		t.Fatalf("audit sees %d blocks, light client synced %d", got, tip)
	}

	// (1) Tampered value: the server serves a superseded value under a
	// valid proof of the real state → ErrIncorrectRead (and specifically
	// not a proof-shape or header error).
	c.ServerAt(1).SetFaults(server.Faults{StaleReads: true})
	if _, err := lc.ReadVerified(ctx, items[1]); !errors.Is(err, lightclient.ErrIncorrectRead) {
		t.Fatalf("tampered value: got %v, want ErrIncorrectRead", err)
	}
	c.ServerAt(1).SetFaults(server.Faults{})

	// (2) Tampered proof → ErrBadProof: the proof shape contradicts the
	// layout the client derives independently.
	c.ServerAt(1).SetFaults(server.Faults{TamperVerifiedProof: true})
	if _, err := lc.ReadVerified(ctx, items[1]); !errors.Is(err, lightclient.ErrBadProof) {
		t.Fatalf("tampered proof: got %v, want ErrBadProof", err)
	}
	c.ServerAt(1).SetFaults(server.Faults{})

	// (3) Tampered header → ErrBadHeader from sync, cache unmoved.
	c.ServerAt(0).SetFaults(server.Faults{TamperHeaders: true})
	fresh, err := c.NewLightClient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Sync(ctx); !errors.Is(err, lightclient.ErrBadHeader) {
		t.Fatalf("tampered headers: got %v, want ErrBadHeader", err)
	}
	if fresh.SyncedHeight() != 0 {
		t.Fatalf("tampered headers advanced the cache to %d", fresh.SyncedHeight())
	}
	// An honest source recovers the same client.
	if _, err := fresh.SyncFrom(ctx, ServerName(1)); err != nil {
		t.Fatalf("sync from honest source: %v", err)
	}
	c.ServerAt(0).SetFaults(server.Faults{})

	// The cluster still works end to end after all faults are cleared.
	if _, err := lc.ReadVerified(ctx, items...); err != nil {
		t.Fatalf("verified reads after recovery: %v", err)
	}
}
