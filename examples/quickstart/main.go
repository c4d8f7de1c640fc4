// Command quickstart is the smallest end-to-end Fides program: start a
// five-server cluster on untrusted infrastructure, run a couple of
// distributed transactions through TFCommit, inspect the collectively
// signed log, and finish with a clean audit.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	fides "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// Five untrusted servers, one shard of 1000 items each; the first
	// server doubles as the designated TFCommit coordinator (paper §4.1).
	cluster, err := fides.NewCluster(fides.Config{
		NumServers:    5,
		ItemsPerShard: 1000,
		BatchSize:     4,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	client, err := cluster.NewClient()
	if err != nil {
		return err
	}

	// Transaction 1: a distributed read-modify-write across two shards.
	s := client.Begin()
	x := fides.ItemName(0, 7) // stored on server s00
	y := fides.ItemName(3, 9) // stored on server s03
	if _, err := s.Read(ctx, x); err != nil {
		return err
	}
	if err := s.Write(ctx, x, []byte("100")); err != nil {
		return err
	}
	if err := s.Write(ctx, y, []byte("250")); err != nil {
		return err
	}
	res, err := s.Commit(ctx)
	if err != nil {
		return err
	}
	if !res.Committed {
		return fmt.Errorf("txn %s aborted", s.ID())
	}
	fmt.Printf("txn %s: committed=%v at %s in block %d (co-signed by %d servers)\n",
		s.ID(), res.Committed, res.TS, res.Block.Height, len(res.Block.Signers))

	// Transaction 2: read back what transaction 1 wrote.
	s2 := client.Begin()
	v, err := s2.Read(ctx, y)
	if err != nil {
		return err
	}
	res2, err := s2.Commit(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("txn %s: read %s=%q, committed=%v\n", s2.ID(), y, v, res2.Committed)
	if string(v) != "250" {
		return fmt.Errorf("read %s=%q, want the value transaction 1 wrote", y, v)
	}

	// Every server replicated the same tamper-proof log.
	for _, id := range cluster.Servers() {
		fmt.Printf("server %s holds %d log blocks\n", id, cluster.Server(id).Log().Len())
	}

	// An external audit verifies v-ACID end to end (paper Theorem 1).
	report, err := cluster.Audit(ctx, fides.AuditOptions{CheckDatastore: true})
	if err != nil {
		return err
	}
	fmt.Printf("audit: clean=%v, findings=%d, authoritative log=%d blocks (from %s)\n",
		report.Clean(), len(report.Findings), len(report.Authoritative), report.AuthoritativeFrom)
	if !report.Clean() {
		return fmt.Errorf("audit of an honest run found %v", report.Findings)
	}
	return nil
}
