package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The durability codecs are exact, not textual: floats travel as their
// IEEE-754 bit patterns, so a recovered clusterer re-ingests byte-for-
// byte the samples the original saw. The CSV codecs in internal/traj
// quantize coordinates to three decimals — fine for interchange, fatal
// for the crash-recovery byte-identity contract — which is why persist
// does not reuse them.
//
// All integers are little-endian and fixed-width. Every decoder is
// written against hostile input: element counts are validated against
// the bytes actually remaining before any allocation, so a corrupt
// length prefix is an error, never an OOM or a panic (FuzzWALReplay
// and FuzzCheckpointDecode pin this).

// enc is a little-endian encoder over a buffer its caller presizes.
// Encoders that know their exact output size (datasets, server state)
// allocate it once. The stream state does not size its flows first, so
// its buffer grows as it goes, geometrically (append, slices.Grow):
// encoding stays linear.
type enc struct{ b []byte }

// grab extends the buffer by n bytes and returns them, for fixed-offset
// Put* writes.
func (e *enc) grab(n int) []byte {
	e.b = slices.Grow(e.b, n)
	off := len(e.b)
	e.b = e.b[:off+n]
	return e.b[off:]
}

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec is a bounds-checked little-endian decoder. The first failed read
// latches err; subsequent reads return zero values, so call sites can
// decode a whole structure and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("persist: truncated input at offset %d (need %d of %d bytes)", d.off, n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := d.u32()
	p := d.take(int(n))
	return string(p)
}

// count reads an element count and validates it against the remaining
// bytes, given a minimum per-element encoded size. This is the OOM
// guard: a hostile count can never exceed remaining/minElemSize.
func (d *dec) count(minElemSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if max := (len(d.b) - d.off) / minElemSize; int(n) > max {
		d.fail("persist: implausible element count %d at offset %d (only %d bytes left)", n, d.off, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *dec) rest() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("persist: %d trailing bytes after decode", len(d.b)-d.off)
	}
	return nil
}

// --- trajectory data ---

// Encoded sizes used for count validation.
const (
	locSize  = 4 + 4 + 8 + 8 + 8 // seg, junction, x, y, t
	minTraj  = 4 + 4             // id + point count
	minFrag  = 4 + 4 + 4 + 4     // traj, seg, index, point count
	minEntry = 8 + minFlow       // batch + flow
	minFlow  = 4 + 4 + 4 + 4 + 4 // member count, route count, front, back, (one empty member would add more; this is a floor)
)

func putLocation(p []byte, l traj.Location) {
	_ = p[locSize-1]
	binary.LittleEndian.PutUint32(p, uint32(int32(l.Seg)))
	binary.LittleEndian.PutUint32(p[4:], uint32(int32(l.Junction)))
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(l.Pt.X))
	binary.LittleEndian.PutUint64(p[16:], math.Float64bits(l.Pt.Y))
	binary.LittleEndian.PutUint64(p[24:], math.Float64bits(l.Time))
}

func getLocation(p []byte) traj.Location {
	_ = p[locSize-1]
	return traj.Location{
		Seg:      roadnet.SegID(int32(binary.LittleEndian.Uint32(p))),
		Junction: roadnet.NodeID(int32(binary.LittleEndian.Uint32(p[4:]))),
		Pt: geo.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		},
		Time: math.Float64frombits(binary.LittleEndian.Uint64(p[24:])),
	}
}

// putPoints writes a point count and the points at the front of p,
// which must hold 4 + locSize*len(pts) bytes.
func putPoints(p []byte, pts []traj.Location) {
	binary.LittleEndian.PutUint32(p, uint32(len(pts)))
	p = p[4:]
	for i, l := range pts {
		putLocation(p[i*locSize:], l)
	}
}

// points reads a point count and the points. The count is validated
// against the remaining bytes first, so one take covers all of them.
func (d *dec) points() []traj.Location {
	n := d.count(locSize)
	if d.err != nil {
		return nil
	}
	p := d.take(n * locSize)
	pts := make([]traj.Location, n)
	for i := range pts {
		pts[i] = getLocation(p[i*locSize:])
	}
	return pts
}

func trajSize(tr traj.Trajectory) int { return minTraj + locSize*len(tr.Points) }
func fragSize(f traj.TFragment) int   { return minFrag + locSize*len(f.Points) }

func encTrajectory(e *enc, tr traj.Trajectory) {
	p := e.grab(trajSize(tr))
	binary.LittleEndian.PutUint32(p, uint32(int32(tr.ID)))
	putPoints(p[4:], tr.Points)
}

func decTrajectory(d *dec) traj.Trajectory {
	var tr traj.Trajectory
	tr.ID = traj.ID(d.i32())
	tr.Points = d.points()
	return tr
}

func datasetSize(ds traj.Dataset) int {
	n := 4 + len(ds.Name) + 4
	for _, tr := range ds.Trajectories {
		n += trajSize(tr)
	}
	return n
}

// EncodeDataset serializes ds exactly (full float64 precision); the
// WAL stores one encoded dataset per ingested batch.
func EncodeDataset(ds traj.Dataset) []byte {
	e := enc{b: make([]byte, 0, datasetSize(ds))}
	encDataset(&e, ds)
	return e.b
}

func encDataset(e *enc, ds traj.Dataset) {
	e.str(ds.Name)
	e.u32(uint32(len(ds.Trajectories)))
	for _, tr := range ds.Trajectories {
		encTrajectory(e, tr)
	}
}

// DecodeDataset inverts EncodeDataset. Corrupt or truncated input is
// an error, never a panic.
func DecodeDataset(b []byte) (traj.Dataset, error) {
	d := &dec{b: b}
	ds := decDataset(d)
	return ds, d.rest()
}

func decDataset(d *dec) traj.Dataset {
	var ds traj.Dataset
	ds.Name = d.str()
	n := d.count(minTraj)
	if d.err != nil {
		return ds
	}
	ds.Trajectories = make([]traj.Trajectory, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ds.Trajectories = append(ds.Trajectories, decTrajectory(d))
	}
	return ds
}

func encFragment(e *enc, f traj.TFragment) {
	p := e.grab(fragSize(f))
	binary.LittleEndian.PutUint32(p, uint32(int32(f.Traj)))
	binary.LittleEndian.PutUint32(p[4:], uint32(int32(f.Seg)))
	binary.LittleEndian.PutUint32(p[8:], uint32(int32(f.Index)))
	putPoints(p[12:], f.Points)
}

func decFragment(d *dec) traj.TFragment {
	var f traj.TFragment
	f.Traj = traj.ID(d.i32())
	f.Seg = roadnet.SegID(d.i32())
	f.Index = int(d.i32())
	f.Points = d.points()
	return f
}

// --- flow clusters ---

func encFlow(e *enc, f *neat.FlowCluster) {
	e.u32(uint32(len(f.Members)))
	for _, m := range f.Members {
		e.i32(int32(m.Seg))
		e.u32(uint32(len(m.Fragments)))
		for _, fr := range m.Fragments {
			encFragment(e, fr)
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

func decFlow(d *dec) *neat.FlowCluster {
	nm := d.count(4 + 4) // seg + fragment count per member
	if d.err != nil {
		return nil
	}
	members := make([]*neat.BaseCluster, 0, nm)
	for i := 0; i < nm && d.err == nil; i++ {
		seg := roadnet.SegID(d.i32())
		nf := d.count(minFrag)
		if d.err != nil {
			break
		}
		frags := make([]traj.TFragment, 0, nf)
		for j := 0; j < nf && d.err == nil; j++ {
			frags = append(frags, decFragment(d))
		}
		if d.err == nil {
			members = append(members, neat.RestoreBaseCluster(seg, frags))
		}
	}
	nr := d.count(4)
	if d.err != nil {
		return nil
	}
	route := make(roadnet.Route, nr)
	for i := range route {
		route[i] = roadnet.SegID(d.i32())
	}
	front := roadnet.NodeID(d.i32())
	back := roadnet.NodeID(d.i32())
	if d.err != nil {
		return nil
	}
	f, err := neat.RestoreFlow(members, route, front, back)
	if err != nil {
		d.fail("persist: %v", err)
		return nil
	}
	return f
}

// --- checkpoint payloads ---

// StreamEntry is one standing flow with the batch index it arrived in
// (the sliding-window eviction key).
type StreamEntry struct {
	Batch int
	Flow  *neat.FlowCluster
}

// CacheEntry is one warm distance-cache entry carried by a checkpoint
// (see distcache.Entry; duplicated here so the codec layer does not
// leak distcache's representation into the file format).
type CacheEntry struct {
	Key   uint64
	Dist  float64
	Bound float64
}

// StreamState is the full recoverable state of a stream.Clusterer: the
// batch index, the standing flow set in window order, the maintained
// ε-graph's adjacency rows (nil when the graph was dirty or disabled —
// recovery then rebuilds it, byte-identically), and optionally the
// warm distance-cache entries with the scope they are valid under.
type StreamState struct {
	Batch      int
	Entries    []StreamEntry
	Adjacency  [][]int // row i lists the ε-neighbors of Entries[i]; nil = rebuild
	CacheScope string
	Cache      []CacheEntry
}

// EncodeStreamState serializes a checkpoint payload for the streaming
// clusterer.
func EncodeStreamState(st StreamState) []byte {
	var e enc
	e.u64(uint64(st.Batch))
	e.u32(uint32(len(st.Entries)))
	for _, en := range st.Entries {
		e.u64(uint64(en.Batch))
		encFlow(&e, en.Flow)
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

// DecodeStreamState inverts EncodeStreamState, validating structural
// invariants (adjacency indices in range, batches non-decreasing and
// below the batch index) so a recovered clusterer never holds state an
// uncrashed one could not have reached.
func DecodeStreamState(b []byte) (StreamState, error) {
	d := &dec{b: b}
	var st StreamState
	st.Batch = int(d.u64())
	n := d.count(minEntry)
	if d.err != nil {
		return st, d.err
	}
	st.Entries = make([]StreamEntry, 0, n)
	prevBatch := -1
	for i := 0; i < n && d.err == nil; i++ {
		en := StreamEntry{Batch: int(d.u64())}
		en.Flow = decFlow(d)
		if d.err != nil {
			break
		}
		if en.Batch < prevBatch || en.Batch >= st.Batch {
			d.fail("persist: standing entry %d has batch %d outside [%d, %d)", i, en.Batch, prevBatch, st.Batch)
			break
		}
		prevBatch = en.Batch
		st.Entries = append(st.Entries, en)
	}
	if d.err != nil {
		return st, d.err
	}
	if d.u8() == 1 {
		st.Adjacency = make([][]int, len(st.Entries))
		for i := range st.Adjacency {
			rn := d.count(4)
			if d.err != nil {
				break
			}
			row := make([]int, rn)
			for k := range row {
				j := int(d.i32())
				if d.err == nil && (j < 0 || j >= len(st.Entries) || j == i) {
					d.fail("persist: adjacency row %d has out-of-range neighbor %d", i, j)
					break
				}
				row[k] = j
			}
			st.Adjacency[i] = row
		}
	}
	st.CacheScope = d.str()
	cn := d.count(8 + 8 + 8)
	if d.err != nil {
		return st, d.err
	}
	st.Cache = make([]CacheEntry, 0, cn)
	for i := 0; i < cn && d.err == nil; i++ {
		st.Cache = append(st.Cache, CacheEntry{Key: d.u64(), Dist: d.f64(), Bound: d.f64()})
	}
	return st, d.rest()
}

// ServerState is the recoverable state of the HTTP server's trajectory
// store: how many batches it accepted, plus the accumulated
// trajectories and t-fragments (the inputs of every clustering
// request).
type ServerState struct {
	Batches   uint64
	Trajs     []traj.Trajectory
	Fragments []traj.TFragment
}

// EncodeServerState serializes a server checkpoint payload into one
// buffer of exactly its encoded size.
func EncodeServerState(st ServerState) []byte {
	n := 8 + 4 + 4
	for _, tr := range st.Trajs {
		n += trajSize(tr)
	}
	for _, f := range st.Fragments {
		n += fragSize(f)
	}
	e := enc{b: make([]byte, 0, n)}
	e.u64(st.Batches)
	e.u32(uint32(len(st.Trajs)))
	for _, tr := range st.Trajs {
		encTrajectory(&e, tr)
	}
	e.u32(uint32(len(st.Fragments)))
	for _, f := range st.Fragments {
		encFragment(&e, f)
	}
	return e.b
}

// DecodeServerState inverts EncodeServerState.
func DecodeServerState(b []byte) (ServerState, error) {
	d := &dec{b: b}
	var st ServerState
	st.Batches = d.u64()
	n := d.count(minTraj)
	if d.err != nil {
		return st, d.err
	}
	st.Trajs = make([]traj.Trajectory, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		st.Trajs = append(st.Trajs, decTrajectory(d))
	}
	fn := d.count(minFrag)
	if d.err != nil {
		return st, d.err
	}
	st.Fragments = make([]traj.TFragment, 0, fn)
	for i := 0; i < fn && d.err == nil; i++ {
		st.Fragments = append(st.Fragments, decFragment(d))
	}
	return st, d.rest()
}
