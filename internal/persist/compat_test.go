package persist

import (
	"bytes"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/neat"
	"repro/internal/traj"
)

// The reference encoders below are the original byte-at-a-time
// implementation of the on-disk formats, kept only so the presized
// encoders can be held to byte-equal output. A checkpoint or WAL record
// written for a given state must not change across versions: ckptVersion
// 1 readers in the field depend on it.

type refEnc struct{ b []byte }

func (e *refEnc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *refEnc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *refEnc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *refEnc) i32(v int32)   { e.u32(uint32(v)) }
func (e *refEnc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *refEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func refLocation(e *refEnc, l traj.Location) {
	e.i32(int32(l.Seg))
	e.i32(int32(l.Junction))
	e.f64(l.Pt.X)
	e.f64(l.Pt.Y)
	e.f64(l.Time)
}

func refTrajectory(e *refEnc, tr traj.Trajectory) {
	e.i32(int32(tr.ID))
	e.u32(uint32(len(tr.Points)))
	for _, p := range tr.Points {
		refLocation(e, p)
	}
}

func refFragment(e *refEnc, f traj.TFragment) {
	e.i32(int32(f.Traj))
	e.i32(int32(f.Seg))
	e.i32(int32(f.Index))
	e.u32(uint32(len(f.Points)))
	for _, p := range f.Points {
		refLocation(e, p)
	}
}

func refFlow(e *refEnc, f *neat.FlowCluster) {
	e.u32(uint32(len(f.Members)))
	for _, m := range f.Members {
		e.i32(int32(m.Seg))
		e.u32(uint32(len(m.Fragments)))
		for _, fr := range m.Fragments {
			refFragment(e, fr)
		}
	}
	e.u32(uint32(len(f.Route)))
	for _, s := range f.Route {
		e.i32(int32(s))
	}
	front, back := f.Endpoints()
	e.i32(int32(front))
	e.i32(int32(back))
}

func refEncodeDataset(ds traj.Dataset) []byte {
	var e refEnc
	e.str(ds.Name)
	e.u32(uint32(len(ds.Trajectories)))
	for _, tr := range ds.Trajectories {
		refTrajectory(&e, tr)
	}
	return e.b
}

func refEncodeStreamState(st StreamState) []byte {
	var e refEnc
	e.u64(uint64(st.Batch))
	e.u32(uint32(len(st.Entries)))
	for _, en := range st.Entries {
		e.u64(uint64(en.Batch))
		refFlow(&e, en.Flow)
	}
	if st.Adjacency == nil {
		e.u8(0)
	} else {
		e.u8(1)
		for _, row := range st.Adjacency {
			e.u32(uint32(len(row)))
			for _, j := range row {
				e.i32(int32(j))
			}
		}
	}
	e.str(st.CacheScope)
	e.u32(uint32(len(st.Cache)))
	for _, c := range st.Cache {
		e.u64(c.Key)
		e.f64(c.Dist)
		e.f64(c.Bound)
	}
	return e.b
}

func refEncodeServerState(st ServerState) []byte {
	var e refEnc
	e.u64(st.Batches)
	e.u32(uint32(len(st.Trajs)))
	for _, tr := range st.Trajs {
		refTrajectory(&e, tr)
	}
	e.u32(uint32(len(st.Fragments)))
	for _, f := range st.Fragments {
		refFragment(&e, f)
	}
	return e.b
}

func refFrameRecord(buf []byte, seq uint64, body []byte) []byte {
	var p refEnc
	p.u8(recBatch)
	p.u64(seq)
	p.b = append(p.b, body...)
	f := refEnc{b: buf}
	f.u32(uint32(len(p.b)))
	f.u32(crc32.Checksum(p.b, crcTable))
	f.b = append(f.b, p.b...)
	return f.b
}

func refEncodeCheckpoint(seq uint64, payload []byte) []byte {
	var e refEnc
	e.b = append(e.b, ckptMagic...)
	e.u32(ckptVersion)
	e.u64(seq)
	e.u32(uint32(len(payload)))
	e.u32(crc32.Checksum(payload, crcTable))
	e.b = append(e.b, payload...)
	return e.b
}

// frameRecord appends one framed record carrying body to buf, sealed
// by the WAL's own sealFrame (the fuzzers frame arbitrary bodies).
func frameRecord(buf []byte, seq uint64, body []byte) []byte {
	start := len(buf)
	e := enc{b: append(buf, make([]byte, frameHeader)...)}
	e.u8(recBatch)
	e.u64(seq)
	e.b = append(e.b, body...)
	sealFrame(e.b[start:])
	return e.b
}

// encodeCheckpoint is a checkpoint file's bytes in one buffer.
func encodeCheckpoint(seq uint64, payload []byte) []byte {
	return append(checkpointHeader(seq, payload), payload...)
}

// fixtureFragments cuts every trajectory of ds into one fragment per
// consecutive point pair, the shape Phase 1 leaves.
func fixtureFragments(ds traj.Dataset) []traj.TFragment {
	var out []traj.TFragment
	for _, tr := range ds.Trajectories {
		for i := 0; i+1 < len(tr.Points); i++ {
			out = append(out, traj.TFragment{Traj: tr.ID, Seg: tr.Points[i].Seg, Index: i, Points: tr.Points[i : i+2]})
		}
	}
	return out
}

// fixtureState is the server state after ingesting testBatch(0) …
// testBatch(batches-1).
func fixtureState(batches int) ServerState {
	st := ServerState{Batches: uint64(batches)}
	for i := 0; i < batches; i++ {
		ds := testBatch(i)
		st.Trajs = append(st.Trajs, ds.Trajectories...)
		st.Fragments = append(st.Fragments, fixtureFragments(ds)...)
	}
	return st
}

func TestEncodersMatchReference(t *testing.T) {
	datasets := map[string]traj.Dataset{
		"empty":        {},
		"named-empty":  {Name: "n", Trajectories: []traj.Trajectory{}},
		"no-points":    {Name: "x", Trajectories: []traj.Trajectory{{ID: -3}}},
		"batch":        testBatch(1),
		"hostile-vals": {Trajectories: []traj.Trajectory{{ID: math.MaxInt32, Points: testBatch(7).Trajectories[0].Points}}},
	}
	for name, ds := range datasets {
		if got, want := EncodeDataset(ds), refEncodeDataset(ds); !bytes.Equal(got, want) {
			t.Errorf("EncodeDataset(%s) differs from the reference encoder", name)
		}
		if got, want := frameRecord(nil, 3, EncodeDataset(ds)), refFrameRecord(nil, 3, refEncodeDataset(ds)); !bytes.Equal(got, want) {
			t.Errorf("frameRecord of %s differs from the reference framing", name)
		}
		for _, seq := range []uint64{0, 7, math.MaxUint64} {
			if got, want := recordFrame(seq, ds), refFrameRecord(nil, seq, refEncodeDataset(ds)); !bytes.Equal(got, want) {
				t.Errorf("recordFrame(%d, %s) differs from the reference framing", seq, name)
			}
		}
	}

	servers := map[string]ServerState{
		"empty":    {},
		"batches":  {Batches: 12},
		"no-frags": {Batches: 1, Trajs: testBatch(3).Trajectories},
		"fixture":  fixtureState(4),
		"frags-only": {Batches: 2, Fragments: []traj.TFragment{
			{Traj: 1, Seg: 2, Index: 3},
			{Traj: -1, Seg: -2, Index: -3, Points: testBatch(5).Trajectories[1].Points},
		}},
	}
	for name, st := range servers {
		got, want := EncodeServerState(st), refEncodeServerState(st)
		if !bytes.Equal(got, want) {
			t.Errorf("EncodeServerState(%s) differs from the reference encoder", name)
		}
		if !bytes.Equal(encodeCheckpoint(9, got), refEncodeCheckpoint(9, want)) {
			t.Errorf("checkpoint framing of %s differs from the reference", name)
		}
	}

	full := StreamState{
		Batch: 5,
		Entries: []StreamEntry{
			{Batch: 3, Flow: testFlow(4, 7)},
			{Batch: 4, Flow: testFlow(9, 2, 11)},
		},
		Adjacency:  [][]int{{1}, {0}},
		CacheScope: "fp|undirected|dijkstra",
		Cache:      []CacheEntry{{Key: 42, Dist: 1234.5, Bound: math.Inf(1)}, {Key: 7, Dist: math.NaN(), Bound: math.Copysign(0, -1)}},
	}
	dirty := full
	dirty.Adjacency = nil // ε-graph dirty or disabled: recovery rebuilds it
	noCache := full
	noCache.CacheScope, noCache.Cache = "", nil
	isolated := full
	isolated.Adjacency = [][]int{{}, {}}
	streams := map[string]StreamState{
		"empty":         {},
		"empty-adj":     {Batch: 1, Adjacency: [][]int{}},
		"full":          full,
		"dirty-graph":   dirty,
		"cache-off":     noCache,
		"isolated-rows": isolated,
	}
	for name, st := range streams {
		if got, want := EncodeStreamState(st), refEncodeStreamState(st); !bytes.Equal(got, want) {
			t.Errorf("EncodeStreamState(%s) differs from the reference encoder", name)
		}
	}
}

// TestParentDataDirRecovers opens a data directory written by the
// byte-at-a-time encoders (testdata/v1-server: checkpoints at seq 1 and
// 2, WAL records 0–3, abandoned without a final checkpoint) and checks
// it recovers to the state that wrote it, and that today's encoders
// reproduce its files byte for byte.
func TestParentDataDirRecovers(t *testing.T) {
	src := filepath.Join("testdata", "v1-server")
	dir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, d.Name()), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, seq := range []uint64{1, 2} {
		data, err := os.ReadFile(filepath.Join(dir, ckptName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		payload := EncodeServerState(fixtureState(int(seq)))
		if !bytes.Equal(encodeCheckpoint(seq, payload), data) {
			t.Errorf("checkpoint %d is not byte-identical to today's encoding", seq)
		}
	}
	seg := []byte(segMagic)
	for i := 0; i < 4; i++ {
		seg = append(seg, recordFrame(uint64(i), testBatch(i))...)
	}
	if data, err := os.ReadFile(filepath.Join(dir, segName(0))); err != nil || !bytes.Equal(data, seg) {
		t.Errorf("WAL segment is not byte-identical to today's framing (read err %v)", err)
	}

	s, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := s.Stats().Recovery
	if rec.CheckpointSeq != 2 || rec.Records != 4 || rec.TornTails != 0 || rec.SkippedCheckpoints != 0 {
		t.Fatalf("recovery stats = %+v, want checkpoint 2 over 4 clean records", rec)
	}
	seq, payload, ok := s.Checkpoint()
	if !ok || seq != 2 {
		t.Fatalf("checkpoint seq %d ok=%v, want 2", seq, ok)
	}
	st, err := DecodeServerState(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, fixtureState(2)) {
		t.Fatal("recovered checkpoint state diverged from the state that wrote it")
	}
	var replayed []uint64
	err = s.Replay(seq, func(seq uint64, ds traj.Dataset) error {
		if !reflect.DeepEqual(ds, testBatch(int(seq))) {
			t.Errorf("replayed batch %d diverged", seq)
		}
		replayed = append(replayed, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, []uint64{2, 3}) {
		t.Fatalf("replayed %v, want [2 3]", replayed)
	}
}
