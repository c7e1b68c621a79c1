package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/traj"
)

// WAL on-disk layout. A log is a directory of segment files named
//
//	wal-%016x.seg
//
// where the hex field is the sequence number of the segment's first
// record, so lexicographic file order is sequence order. Each segment
// opens with an 8-byte magic and then holds back-to-back records
// framed as
//
//	u32le payloadLen | u32le crc32c(payload) | payload
//
// with payload = u8 recordType | u64le seq | body. A crash can leave
// the final segment with a torn tail — a partially written frame, or a
// frame whose CRC does not match — and recovery treats the first
// invalid frame of the final segment as the end of the log (the etcd
// convention): everything before it replays, everything from it on is
// counted torn and truncated away on Open. An invalid frame in any
// earlier segment cannot be explained by a crash (later segments were
// written after it was sealed) and is reported as corruption.

const (
	segMagic    = "NEATWAL1"
	segSuffix   = ".seg"
	segPrefix   = "wal-"
	frameHeader = 8 // payloadLen + crc
	recHeader   = 1 + 8

	// recBatch is the only record type so far: one ingested trajectory
	// batch. The type byte leaves room for future record kinds without
	// a format break.
	recBatch = 1

	// maxRecordBytes bounds a single record's payload; a length prefix
	// beyond it is treated as an invalid frame, not an allocation.
	maxRecordBytes = 1 << 28

	// defaultSegmentBytes rotates segments at ~4 MiB.
	defaultSegmentBytes = 4 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment describes one WAL segment file.
type segment struct {
	path     string
	firstSeq uint64
	// size is the byte length of the valid frames (plus magic); for a
	// torn final segment, the offset the file was truncated to.
	size int64
	// records is how many valid frames the segment holds.
	records int
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// recordFrame frames one batch record for seq. The dataset is encoded
// in place behind the frame and record headers, into a buffer of
// exactly the frame's size, so the body is never copied.
func recordFrame(seq uint64, ds traj.Dataset) []byte {
	e := enc{b: make([]byte, frameHeader, frameHeader+recHeader+datasetSize(ds))}
	e.u8(recBatch)
	e.u64(seq)
	encDataset(&e, ds)
	sealFrame(e.b)
	return e.b
}

// sealFrame fills in the length and CRC of the frame whose payload
// follows its frameHeader bytes.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
}

// Record is one decoded WAL record, with its position inside its
// segment (the crash tests and `neatcli wal` use the offsets to name
// kill points).
type Record struct {
	// Seq is the record's sequence number (the batch index it logged).
	Seq uint64
	// Offset is the byte offset of the frame's first byte in its
	// segment file.
	Offset int64
	// Len is the full frame length (header + payload).
	Len int64
	// Body is the record body (the encoded dataset). Nil when scanned
	// with bodies discarded.
	Body []byte
}

// ScanResult describes how a segment scan ended.
type ScanResult struct {
	// Valid is the byte length of the valid prefix (magic + whole
	// frames).
	Valid int64
	// Torn reports that bytes followed the valid prefix that did not
	// form a valid frame (a torn tail — or corruption, if the segment
	// was not the last).
	Torn bool
	// TornBytes is how many bytes the torn tail spans.
	TornBytes int64
	// Err describes the first invalid frame; nil for a cleanly ended
	// segment.
	Err error
}

// scanSegment parses one segment's bytes. It never panics on hostile
// input and stops at the first invalid frame. keepBodies controls
// whether record bodies are retained (replay needs them; statting does
// not).
func scanSegment(data []byte, keepBodies bool) ([]Record, ScanResult) {
	var res ScanResult
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		res.Torn = len(data) > 0
		res.TornBytes = int64(len(data))
		res.Err = fmt.Errorf("persist: bad segment magic")
		return nil, res
	}
	off := int64(len(segMagic))
	var recs []Record
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeader {
			res.Err = fmt.Errorf("persist: torn frame header at offset %d", off)
			break
		}
		d := &dec{b: rest[:frameHeader]}
		plen := int64(d.u32())
		sum := d.u32()
		if plen < recHeader || plen > maxRecordBytes || int64(len(rest))-frameHeader < plen {
			res.Err = fmt.Errorf("persist: torn or invalid frame at offset %d (payload length %d, %d bytes left)",
				off, plen, int64(len(rest))-frameHeader)
			break
		}
		payload := rest[frameHeader : frameHeader+plen]
		if crc32.Checksum(payload, crcTable) != sum {
			res.Err = fmt.Errorf("persist: CRC mismatch at offset %d", off)
			break
		}
		pd := &dec{b: payload}
		kind := pd.u8()
		seq := pd.u64()
		if kind != recBatch {
			res.Err = fmt.Errorf("persist: unknown record type %d at offset %d", kind, off)
			break
		}
		r := Record{Seq: seq, Offset: off, Len: frameHeader + plen}
		if keepBodies {
			r.Body = payload[recHeader:]
		}
		recs = append(recs, r)
		off += frameHeader + plen
	}
	res.Valid = off
	if off < int64(len(data)) {
		res.Torn = true
		res.TornBytes = int64(len(data)) - off
	}
	return recs, res
}

// loadSegments lists, orders, and validates the log's segments,
// truncating a torn tail off the final one (tolerated — it is what a
// crash leaves) and failing on an invalid frame anywhere else
// (corruption — a crash cannot explain it). It returns the segment
// metadata and how many torn records were dropped.
func loadSegments(dir string) ([]segment, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), firstSeq: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	var torn int64
	for i := range segs {
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			return nil, 0, err
		}
		recs, res := scanSegment(data, false)
		last := i == len(segs)-1
		if res.Torn && !last {
			return nil, 0, fmt.Errorf("persist: segment %s: %w (not the final segment; log is corrupt)", segs[i].path, res.Err)
		}
		if res.Torn {
			// A torn tail holds at most one whole record's worth of
			// frames in practice, but whatever it holds was never
			// acknowledged under FsyncAlways; count it and cut it off so
			// the next append starts on a frame boundary.
			torn++
			if err := os.Truncate(segs[i].path, res.Valid); err != nil {
				return nil, 0, fmt.Errorf("persist: truncate torn tail of %s: %w", segs[i].path, err)
			}
		}
		segs[i].size = res.Valid
		segs[i].records = len(recs)
	}
	return segs, torn, nil
}
