package persist

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// benchServerState is sized like the server state an ATL scale-1
// session checkpoints after 40 batches of 50 trips: 2,000 trajectories
// of ~200 samples and ~160k two-point t-fragments, a ~25 MB payload
// split about evenly between the two.
func benchServerState() ServerState {
	const trajs, trajPoints, frags = 2000, 197, 160000
	loc := func(i int) traj.Location {
		return traj.Location{
			Seg:      roadnet.SegID(i % 9187),
			Pt:       geo.Point{X: float64(i) * 1.25, Y: -float64(i) / 3},
			Time:     float64(i) / 7,
			Junction: roadnet.NoNode,
		}
	}
	st := ServerState{Batches: 40, Trajs: make([]traj.Trajectory, trajs), Fragments: make([]traj.TFragment, frags)}
	for i := range st.Trajs {
		pts := make([]traj.Location, trajPoints)
		for k := range pts {
			pts[k] = loc(i*trajPoints + k)
		}
		st.Trajs[i] = traj.Trajectory{ID: traj.ID(i), Points: pts}
	}
	for i := range st.Fragments {
		st.Fragments[i] = traj.TFragment{
			Traj: traj.ID(i % trajs), Seg: roadnet.SegID(i % 9187), Index: i % 80,
			Points: []traj.Location{loc(i), loc(i + 1)},
		}
	}
	return st
}

// BenchmarkCheckpoint times one synchronous server checkpoint as the
// session takes it inside its ingest critical section: EncodeServerState
// plus WriteCheckpoint (write, fsync, rename, prune, compaction) into a
// directory that already holds KeepCheckpoints full-size checkpoints.
// encode-ms and write-ms split the time between the two calls.
func BenchmarkCheckpoint(b *testing.B) {
	st := benchServerState()
	s, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	seq := uint64(0)
	for ; seq < defaultKeepCheckpoints; seq++ {
		if err := s.WriteCheckpoint(seq, EncodeServerState(st)); err != nil {
			b.Fatal(err)
		}
	}
	var encode, write time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		payload := EncodeServerState(st)
		t1 := time.Now()
		if err := s.WriteCheckpoint(seq, payload); err != nil {
			b.Fatal(err)
		}
		encode += t1.Sub(t0)
		write += time.Since(t1)
		b.SetBytes(int64(len(payload)))
		seq++
	}
	b.ReportMetric(float64(encode.Microseconds())/1e3/float64(b.N), "encode-ms/op")
	b.ReportMetric(float64(write.Microseconds())/1e3/float64(b.N), "write-ms/op")
}
