package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/traj"
)

func testSetup(t testing.TB) (*roadnet.Graph, traj.Dataset) {
	t.Helper()
	g, err := mapgen.Generate(mapgen.Config{
		Name:            "srv",
		TargetJunctions: 250,
		TargetSegments:  350,
		AvgSegLenM:      150,
		MaxDegree:       6,
		Seed:            77,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := mobisim.New(g).Simulate(mobisim.DefaultConfig("srv", 60, 9))
	if err != nil {
		t.Fatal(err)
	}
	return g, ds
}

func TestIngestAndCluster(t *testing.T) {
	g, ds := testSetup(t)
	srv := httptest.NewServer(New(g, Config{DataNodes: 3}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	ing, err := c.Ingest(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 60 {
		t.Errorf("accepted = %d", ing.Accepted)
	}
	if ing.Fragments == 0 || ing.TotalFragments != ing.Fragments {
		t.Errorf("fragments = %d total = %d", ing.Fragments, ing.TotalFragments)
	}

	res, err := c.Clusters(ctx, ClusterQuery{Level: "opt", Epsilon: 1500, MinCard: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != "opt-NEAT" {
		t.Errorf("level = %q", res.Level)
	}
	if res.BaseClusters == 0 || len(res.Flows) == 0 || len(res.Clusters) == 0 {
		t.Errorf("empty result: %+v", res)
	}
	for _, f := range res.Flows {
		if len(f.Route) == 0 || f.Cardinality < 3 {
			t.Errorf("bad flow %+v", f)
		}
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trajectories != 60 || stats.DataNodes != 3 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Segments != g.NumSegments() {
		t.Errorf("stats segments = %d", stats.Segments)
	}
}

func TestIngestShardingMatchesSerial(t *testing.T) {
	// The sharded preprocessing must produce exactly the fragments a
	// serial partitioner would, in request order.
	g, ds := testSetup(t)
	s := New(g, Config{DataNodes: 8})
	body, err := json.Marshal(FromDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	_, trajs, _, err := decodeIngest(body, len(ds.Trajectories))
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Sessions().Default()
	got, gotTrajs, err := sess.Preprocess(context.Background(), len(trajs), func(i int) (traj.Trajectory, error) {
		return trajs[i], checkTrajectory(g, trajs[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotTrajs) != len(ds.Trajectories) {
		t.Fatalf("preprocess returned %d trajectories, want %d", len(gotTrajs), len(ds.Trajectories))
	}
	serial, err := traj.NewPartitioner(g, shortest.New(g, nil)).PartitionDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(serial) {
		t.Fatalf("sharded %d fragments, serial %d", len(got), len(serial))
	}
	for i := range got {
		if got[i].Traj != serial[i].Traj || got[i].Seg != serial[i].Seg || got[i].Index != serial[i].Index {
			t.Fatalf("fragment %d differs: %v vs %v", i, got[i], serial[i])
		}
	}
}

func TestClusterBeforeIngest(t *testing.T) {
	g, _ := testSetup(t)
	srv := httptest.NewServer(New(g, Config{}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if _, err := c.Clusters(context.Background(), ClusterQuery{}); err == nil {
		t.Error("clustering with no data succeeded")
	}
}

func TestIngestValidation(t *testing.T) {
	g, ds := testSetup(t)
	srv := httptest.NewServer(New(g, Config{MaxBatch: 5}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	// Batch too large.
	if _, err := c.Ingest(ctx, ds); err == nil {
		t.Error("oversized batch accepted")
	}
	// Empty batch.
	if _, err := c.Ingest(ctx, traj.Dataset{}); err == nil {
		t.Error("empty batch accepted")
	}
	// Bad segment id.
	bad := traj.Dataset{Trajectories: []traj.Trajectory{{
		ID:     1,
		Points: []traj.Location{traj.Sample(roadnet.SegID(1<<20), ds.Trajectories[0].Points[0].Pt, 0)},
	}}}
	if _, err := c.Ingest(ctx, bad); err == nil {
		t.Error("bad segment id accepted")
	}
}

func TestBadQueries(t *testing.T) {
	g, ds := testSetup(t)
	srv := httptest.NewServer(New(g, Config{}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	if _, err := c.Ingest(ctx, ds); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clusters(ctx, ClusterQuery{Level: "bogus"}); err == nil {
		t.Error("bogus level accepted")
	}
	// Raw query with bad eps.
	resp, err := srv.Client().Get(srv.URL + "/v1/clusters?eps=-3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("negative eps accepted")
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	g, ds := testSetup(t)
	srv := httptest.NewServer(New(g, Config{DataNodes: 4}).Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	// Split the dataset into 6 concurrent batches while querying.
	var wg sync.WaitGroup
	batch := len(ds.Trajectories) / 6
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := i*batch, (i+1)*batch
			if i == 5 {
				hi = len(ds.Trajectories)
			}
			sub := traj.Dataset{Trajectories: ds.Trajectories[lo:hi]}
			if _, err := c.Ingest(ctx, sub); err != nil {
				t.Errorf("batch %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	res, err := c.Clusters(ctx, ClusterQuery{Level: "flow", Epsilon: 1500, MinCard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) == 0 {
		t.Error("no flows after concurrent ingestion")
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trajectories != len(ds.Trajectories) {
		t.Errorf("trajectories = %d, want %d", stats.Trajectories, len(ds.Trajectories))
	}
}
