package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/session"
	"repro/internal/traj"
)

// splitDS carves ds into n contiguous batches.
func splitDS(ds traj.Dataset, n int) []traj.Dataset {
	per := len(ds.Trajectories) / n
	var out []traj.Dataset
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = len(ds.Trajectories)
		}
		out = append(out, traj.Dataset{Trajectories: ds.Trajectories[lo:hi]})
	}
	return out
}

// TestServerCrashRecovery kills a durable server mid-stream (Abort —
// no final checkpoint) and reopens over the same data directory: the
// recovered server must hold exactly the acknowledged batches, reject
// their trajectory ids as duplicates, serve an identical clustering,
// and report the recovery in /v1/stats' persistence block.
func TestServerCrashRecovery(t *testing.T) {
	g, ds := testSetup(t)
	bs := splitDS(ds, 4)
	dir := t.TempDir()
	cfg := Config{DataNodes: 3, Persist: &persist.Options{Dir: dir, CheckpointEvery: 2}}
	ctx := context.Background()

	s1, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := httptest.NewServer(s1.Handler())
	c1 := NewClient(h1.URL, h1.Client())
	for i, b := range bs[:3] {
		if _, err := c1.Ingest(ctx, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	want, err := c1.Clusters(ctx, ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantStats, err := c1.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h1.Close()
	s1.Abort() // crash: WAL holds batch 2 past the seq-2 checkpoint

	s2, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.RecoveredBatches(); got != 3 {
		t.Fatalf("recovered %d batches, want 3", got)
	}
	if rec := s2.PersistStats().Recovery; rec.Replayed != 1 {
		t.Fatalf("replayed %d WAL records, want 1 (checkpoint covers 2 of 3)", rec.Replayed)
	}
	h2 := httptest.NewServer(s2.Handler())
	defer h2.Close()
	c2 := NewClient(h2.URL, h2.Client())

	stats, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trajectories != wantStats.Trajectories || stats.TotalFragments != wantStats.TotalFragments {
		t.Fatalf("recovered dataset differs: %d trajs / %d frags, want %d / %d",
			stats.Trajectories, stats.TotalFragments, wantStats.Trajectories, wantStats.TotalFragments)
	}
	if stats.Persistence == nil {
		t.Fatal("durable server reported no persistence block")
	}
	if stats.Persistence.RecoveredBatches != 3 || stats.Persistence.CheckpointSeq != 2 {
		t.Fatalf("persistence block = %+v", stats.Persistence)
	}
	if stats.Robustness.StaleServed != 0 {
		t.Fatalf("recovery served %d stale responses", stats.Robustness.StaleServed)
	}

	// A recovered server still owns the ingested ids.
	if _, err := c2.Ingest(ctx, bs[0]); err == nil {
		t.Fatal("re-ingesting recovered trajectories succeeded")
	}
	got, err := c2.Clusters(ctx, ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(want.Clusters) || len(got.Flows) != len(want.Flows) {
		t.Fatalf("recovered clustering differs: %d clusters / %d flows, want %d / %d",
			len(got.Clusters), len(got.Flows), len(want.Clusters), len(want.Flows))
	}
	for i := range got.Flows {
		if len(got.Flows[i].Route) != len(want.Flows[i].Route) {
			t.Fatalf("flow %d route length differs", i)
		}
		for j := range got.Flows[i].Route {
			if got.Flows[i].Route[j] != want.Flows[i].Route[j] {
				t.Fatalf("flow %d route differs at hop %d", i, j)
			}
		}
	}

	// The stream keeps going: the unacknowledged batch ingests cleanly.
	if _, err := c2.Ingest(ctx, bs[3]); err != nil {
		t.Fatal(err)
	}
}

// TestServerCleanRestartReplaysNothing pins the clean-shutdown path:
// Close writes a final checkpoint, so reopening replays zero WAL
// records, and an in-memory server (New) has no persistence surface
// at all.
func TestServerCleanRestartReplaysNothing(t *testing.T) {
	g, ds := testSetup(t)
	bs := splitDS(ds, 2)
	dir := t.TempDir()
	cfg := Config{Persist: &persist.Options{Dir: dir, CheckpointEvery: -1}}
	ctx := context.Background()

	s1, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := httptest.NewServer(s1.Handler())
	c1 := NewClient(h1.URL, h1.Client())
	if _, err := c1.Ingest(ctx, bs[0]); err != nil {
		t.Fatal(err)
	}
	h1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredBatches() != 1 {
		t.Fatalf("recovered %d batches, want 1", s2.RecoveredBatches())
	}
	if rec := s2.PersistStats().Recovery; rec.Replayed != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", rec.Replayed)
	}

	mem := New(g, Config{Persist: &persist.Options{Dir: dir}})
	if mem.PersistStats().Dir != "" || mem.persistenceDTO() != nil {
		t.Fatal("New (in-memory constructor) opened a store")
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableSessionsLabelWALMetrics pins the per-tenant WAL and
// checkpoint series: with two durable sessions and ingest into only
// one, /metrics must attribute the appends to that session alone
// rather than summing every tenant's store into one unlabeled series.
func TestDurableSessionsLabelWALMetrics(t *testing.T) {
	g, ds := testSetup(t)
	reg := obs.NewRegistry()
	s, err := Open(g, Config{Obs: reg, Persist: &persist.Options{Dir: t.TempDir(), CheckpointEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := s.Sessions().Create(name, g, session.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	if _, err := NewClient(h.URL, h.Client()).Session("a").Ingest(context.Background(), ds); err != nil {
		t.Fatal(err)
	}

	// Scrape before any lookup: Registry.Counter would create the
	// series it asks about.
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`neat_wal_appends_total{session="a"} 1`,
		`neat_wal_appends_total{session="b"} 0`,
		`neat_wal_appends_total{session="default"} 0`,
		`neat_checkpoint_seq{session="a"} 1`,
		`neat_checkpoint_seq{session="b"} 0`,
	} {
		if !bytes.Contains(expo.Bytes(), []byte(want)) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if bytes.Contains(expo.Bytes(), []byte("\nneat_wal_appends_total ")) {
		t.Error("/metrics still exports an unlabeled neat_wal_appends_total shared by every tenant")
	}
}
