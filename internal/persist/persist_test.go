package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// testBatch builds a small dataset whose floats exercise full float64
// precision (the CSV codecs would quantize these; persist must not).
func testBatch(seed int) traj.Dataset {
	mk := func(id traj.ID) traj.Trajectory {
		tr := traj.Trajectory{ID: id}
		for k := 0; k < 4; k++ {
			f := float64(seed*31+int(id)*7+k) + math.Pi/float64(k+1)
			tr.Points = append(tr.Points, traj.Location{
				Seg:      roadnet.SegID(seed + k),
				Pt:       geo.Point{X: f * 1e3, Y: -f / 3},
				Time:     float64(k) + 0.1234567890123,
				Junction: roadnet.NoNode,
			})
		}
		return tr
	}
	return traj.Dataset{
		Name:         "batch",
		Trajectories: []traj.Trajectory{mk(traj.ID(seed * 10)), mk(traj.ID(seed*10 + 1))},
	}
}

func TestDatasetCodecExactRoundTrip(t *testing.T) {
	ds := testBatch(3)
	// Values the quantizing CSV codec cannot carry.
	ds.Trajectories[0].Points[0].Pt.X = 1e-300
	ds.Trajectories[0].Points[1].Pt.Y = math.Copysign(0, -1)
	ds.Trajectories[0].Points[2].Time = 1.0000000000000002
	got, err := DecodeDataset(EncodeDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, ds)
	}
	if math.Signbit(got.Trajectories[0].Points[1].Pt.Y) != true {
		t.Error("negative zero lost its sign bit")
	}
}

func TestDatasetDecodeRejectsCorruption(t *testing.T) {
	b := EncodeDataset(testBatch(1))
	if _, err := DecodeDataset(b[:len(b)-3]); err == nil {
		t.Error("truncated dataset decoded")
	}
	if _, err := DecodeDataset(append(append([]byte(nil), b...), 0xEE)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A hostile trajectory count must not allocate. The count sits
	// right after the length-prefixed name.
	hostile := append([]byte(nil), b...)
	off := 4 + len("batch")
	for i := 0; i < 4; i++ {
		hostile[off+i] = 0xFF
	}
	if _, err := DecodeDataset(hostile); err == nil {
		t.Error("implausible count accepted")
	}
}

func TestWALAppendReplayAndRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	want := make([]traj.Dataset, n)
	for i := 0; i < n; i++ {
		want[i] = testBatch(i)
		if err := s.AppendBatch(uint64(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation at SegmentBytes=256, got %d segment(s)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovery.Records != n || st.Recovery.TornTails != 0 {
		t.Fatalf("recovery stats = %+v, want %d clean records", st.Recovery, n)
	}
	var seqs []uint64
	err = s2.Replay(0, func(seq uint64, ds traj.Dataset) error {
		if !reflect.DeepEqual(ds, want[seq]) {
			t.Errorf("record %d body diverged", seq)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("replay order %v", seqs)
		}
	}
	if len(seqs) != n {
		t.Fatalf("replayed %d records, want %d", len(seqs), n)
	}
	// Replay from the middle: only the tail.
	count := 0
	if err := s2.Replay(4, func(uint64, traj.Dataset) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("Replay(4) visited %d records, want 2", count)
	}
}

// lastSegment returns the path and records of the final segment.
func lastSegment(t *testing.T, dir string) SegmentInfo {
	t.Helper()
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) == 0 {
		t.Fatal("no segments")
	}
	return rep.Segments[len(rep.Segments)-1]
}

func TestTornFinalRecordDroppedOnly(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort() // simulated kill -9

	// Tear the final record: cut the file inside its frame.
	si := lastSegment(t, dir)
	last := si.Records[len(si.Records)-1]
	if err := os.Truncate(si.Path, last.Offset+last.Len/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovery.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", st.Recovery.TornTails)
	}
	if st.Recovery.Records != 2 {
		t.Fatalf("surviving records = %d, want 2 (only the torn final record drops)", st.Recovery.Records)
	}
	// The log keeps working: the dropped sequence number is reusable.
	if err := s2.AppendBatch(2, testBatch(2)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s2.Replay(0, func(uint64, traj.Dataset) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("replay after re-append visited %d records, want 3", count)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) < 2 {
		t.Fatal("need at least two segments for this test")
	}
	// Flip a payload byte in the first (sealed) segment: that is not a
	// crash signature, so Open must refuse rather than silently drop
	// acknowledged records.
	first := rep.Segments[0]
	data, err := os.ReadFile(first.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[first.Records[0].Offset+frameHeader+5] ^= 0xFF
	if err := os.WriteFile(first.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

func TestCheckpointWriteLoadPruneFallback(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, KeepCheckpoints: 2}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		payload := EncodeServerState(ServerState{Batches: seq})
		if err := s.WriteCheckpoint(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("prune kept %d checkpoints, want 2", len(rep.Checkpoints))
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, payload, ok := s2.Checkpoint()
	if !ok || seq != 4 {
		t.Fatalf("loaded checkpoint seq %d ok=%v, want 4", seq, ok)
	}
	st, err := DecodeServerState(payload)
	if err != nil || st.Batches != 4 {
		t.Fatalf("payload decode: %+v, %v", st, err)
	}
	s2.Close()

	// Corrupt the newest checkpoint: recovery must fall back to seq 3,
	// not cold-start.
	newest := filepath.Join(dir, ckptName(4))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	seq, _, ok = s3.Checkpoint()
	if !ok || seq != 3 {
		t.Fatalf("fallback checkpoint seq %d ok=%v, want 3", seq, ok)
	}
	if s3.Stats().Recovery.SkippedCheckpoints != 1 {
		t.Fatalf("skipped = %d, want 1", s3.Stats().Recovery.SkippedCheckpoints)
	}
}

func TestCheckpointCompactsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().Segments
	if before < 3 {
		t.Fatalf("need >= 3 segments, got %d", before)
	}
	if err := s.WriteCheckpoint(8, EncodeServerState(ServerState{Batches: 8})); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Segments
	if after != 1 {
		t.Fatalf("compaction left %d segments, want 1 (the active one)", after)
	}
	// Nothing the checkpoint does not cover was lost: replay from 8 is
	// empty, and appends continue.
	if err := s.Replay(8, func(seq uint64, _ traj.Dataset) error {
		t.Errorf("unexpected record %d after full compaction", seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(8, testBatch(8)); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedFaultsRollBackCleanly(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(fault.Config{Seed: 7, Points: map[fault.Point]fault.Spec{
		fault.WALAppend:       {ErrProb: 1},
		fault.CheckpointWrite: {ErrProb: 1},
	}})
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways, Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(0, testBatch(0)); !fault.IsInjected(err) {
		t.Fatalf("append error = %v, want injected", err)
	}
	if err := s.WriteCheckpoint(1, []byte("x")); !fault.IsInjected(err) {
		t.Fatalf("checkpoint error = %v, want injected", err)
	}
	if st := s.Stats(); st.Appends != 0 || st.Checkpoints != 0 || st.LastCheckpointError == "" {
		t.Fatalf("stats after injected failures: %+v", st)
	}
	in.SetEnabled(false)
	if err := s.AppendBatch(0, testBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LastCheckpointError != "" {
		t.Fatalf("checkpoint error not cleared: %q", st.LastCheckpointError)
	}

	// A failed fsync under FsyncAlways rewinds the segment too: the
	// record must not exist for a batch the caller rolled back.
	in2 := fault.New(fault.Config{Seed: 9, Points: map[fault.Point]fault.Spec{
		fault.WALFsync: {ErrProb: 1},
	}})
	dir2 := t.TempDir()
	s2, err := Open(Options{Dir: dir2, Fsync: FsyncAlways, Fault: in2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AppendBatch(0, testBatch(0)); !fault.IsInjected(err) {
		t.Fatalf("fsync-failed append error = %v, want injected", err)
	}
	in2.SetEnabled(false)
	if err := s2.AppendBatch(0, testBatch(0)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s2.Replay(0, func(uint64, traj.Dataset) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("log holds %d records after one rolled-back and one committed append, want 1", count)
	}
}

func TestStoreMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(0, testBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(1, []byte("p")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"neat_wal_appends_total 1",
		"neat_wal_fsyncs_total 1",
		"neat_wal_segments 1",
		"neat_checkpoint_writes_total 1",
		"neat_checkpoint_seq 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// testFlow builds a structurally valid flow without a pipeline run.
func testFlow(segs ...roadnet.SegID) *neat.FlowCluster {
	members := make([]*neat.BaseCluster, len(segs))
	route := make(roadnet.Route, len(segs))
	for i, sg := range segs {
		frag := traj.TFragment{
			Traj: traj.ID(i), Seg: sg, Index: i,
			Points: []traj.Location{{Seg: sg, Pt: geo.Point{X: float64(sg), Y: math.Sqrt2}, Time: float64(i), Junction: roadnet.NoNode}},
		}
		members[i] = neat.RestoreBaseCluster(sg, []traj.TFragment{frag})
		route[i] = sg
	}
	f, err := neat.RestoreFlow(members, route, 1, 2)
	if err != nil {
		panic(err)
	}
	return f
}

func TestStreamStateCodecIdempotent(t *testing.T) {
	st := StreamState{
		Batch: 5,
		Entries: []StreamEntry{
			{Batch: 3, Flow: testFlow(4, 7)},
			{Batch: 4, Flow: testFlow(9)},
		},
		Adjacency:  [][]int{{1}, {0}},
		CacheScope: "fp|undirected|dijkstra",
		Cache:      []CacheEntry{{Key: 42, Dist: 1234.5, Bound: math.Inf(1)}},
	}
	b1 := EncodeStreamState(st)
	got, err := DecodeStreamState(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := EncodeStreamState(got)
	if !bytes.Equal(b1, b2) {
		t.Fatal("stream state encode∘decode is not idempotent")
	}
	if got.Batch != 5 || len(got.Entries) != 2 || got.Entries[0].Flow.Cardinality() != 2 {
		t.Fatalf("decoded state diverged: %+v", got)
	}

	// Structural validation: out-of-range adjacency rejects.
	bad := st
	bad.Adjacency = [][]int{{7}, {0}}
	if _, err := DecodeStreamState(EncodeStreamState(bad)); err == nil {
		t.Error("out-of-range adjacency neighbor accepted")
	}
	// Standing batches must precede the batch index.
	bad = st
	bad.Entries = []StreamEntry{{Batch: 9, Flow: testFlow(1)}}
	if _, err := DecodeStreamState(EncodeStreamState(bad)); err == nil {
		t.Error("standing entry from the future accepted")
	}
}

func TestServerStateCodecIdempotent(t *testing.T) {
	ds := testBatch(2)
	st := ServerState{
		Batches: 9,
		Trajs:   ds.Trajectories,
		Fragments: []traj.TFragment{{
			Traj: 20, Seg: 3, Index: 0,
			Points: []traj.Location{{Seg: 3, Pt: geo.Point{X: 1, Y: 2}, Time: 0, Junction: roadnet.NoNode}},
		}},
	}
	b1 := EncodeServerState(st)
	got, err := DecodeServerState(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, EncodeServerState(got)) {
		t.Fatal("server state encode∘decode is not idempotent")
	}
	if got.Batches != 9 || len(got.Trajs) != 2 || len(got.Fragments) != 1 {
		t.Fatalf("decoded server state diverged: %+v", got)
	}
}

// TestInspectLeavesDebris pins Inspect's read-only contract: the stray
// .tmp a crashed checkpoint write leaves is reported, not deleted, and
// only Open cleans it up.
func TestInspectLeavesDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(1, EncodeServerState(ServerState{Batches: 1})); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	tmp := filepath.Join(dir, ckptName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Debris, []string{tmp}) {
		t.Errorf("Inspect debris = %q, want [%s]", rep.Debris, tmp)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("Inspect deleted %s: %v", filepath.Base(tmp), err)
	}
	s2, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open left %s behind (stat err %v)", filepath.Base(tmp), err)
	}
}
