package persist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint on-disk layout. A checkpoint file ckpt-%016x.ck (hex
// field = the sequence number it covers: the state after applying
// records [0, seq)) holds
//
//	"NEATCKP1" | u32le version | u64le seq | u32le payloadLen |
//	u32le crc32c(payload) | payload
//
// and is written atomically: encode to a .tmp file in the same
// directory, fsync it, rename over the final name, fsync the
// directory. A reader therefore never observes a half-written
// checkpoint under its final name; a crash mid-write leaves a .tmp
// that Open deletes. The version field gates payload evolution — a
// reader rejects versions it does not know rather than misparsing
// them.

const (
	ckptMagic   = "NEATCKP1"
	ckptSuffix  = ".ck"
	ckptPrefix  = "ckpt-"
	ckptVersion = 1

	// defaultKeepCheckpoints retains the newest N checkpoints so one
	// corrupt newest file (torn disk, cosmic ray) falls back instead of
	// cold-starting.
	defaultKeepCheckpoints = 2
)

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ckptHeaderSize is the framing in front of a checkpoint payload.
const ckptHeaderSize = len(ckptMagic) + 4 + 8 + 4 + 4

// checkpointHeader returns the framing that precedes payload in the
// checkpoint file for seq.
func checkpointHeader(seq uint64, payload []byte) []byte {
	e := enc{b: make([]byte, 0, ckptHeaderSize)}
	e.b = append(e.b, ckptMagic...)
	e.u32(ckptVersion)
	e.u64(seq)
	e.u32(uint32(len(payload)))
	e.u32(crc32.Checksum(payload, crcTable))
	return e.b
}

// decodeCheckpoint validates a checkpoint file's framing and returns
// the covered sequence number and payload. Hostile input is an error,
// never a panic or an over-allocation.
func decodeCheckpoint(data []byte) (uint64, []byte, error) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, fmt.Errorf("persist: bad checkpoint magic")
	}
	d := &dec{b: data, off: len(ckptMagic)}
	version := d.u32()
	seq := d.u64()
	plen := d.u32()
	sum := d.u32()
	if d.err != nil {
		return 0, nil, d.err
	}
	if version != ckptVersion {
		return 0, nil, fmt.Errorf("persist: unsupported checkpoint version %d (have %d)", version, ckptVersion)
	}
	payload := d.take(int(plen))
	if d.err != nil {
		return 0, nil, d.err
	}
	if err := d.rest(); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return 0, nil, fmt.Errorf("persist: checkpoint CRC mismatch")
	}
	return seq, payload, nil
}

// CheckpointInfo describes one checkpoint file on disk.
type CheckpointInfo struct {
	Path  string
	Seq   uint64
	Bytes int64
	// Err is non-nil when the file failed validation; recovery skips
	// such files.
	Err error
}

// checkpointFiles lists the directory's checkpoint files by name
// alone, newest (highest seq) first, with only Path and Seq set. debris
// holds the paths of stray .tmp files a crashed write left behind.
func checkpointFiles(dir string) (cks []CheckpointInfo, debris []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, ckptPrefix) {
			debris = append(debris, filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseCkptName(name); ok {
			cks = append(cks, CheckpointInfo{Path: filepath.Join(dir, name), Seq: seq})
		}
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].Seq > cks[j].Seq })
	return cks, debris, nil
}

// readCheckpoint reads and validates the file ci names, filling in
// ci.Bytes and ci.Err, and returns its payload when it is valid.
func readCheckpoint(ci *CheckpointInfo) ([]byte, bool) {
	data, err := os.ReadFile(ci.Path)
	if err != nil {
		ci.Err = err
		return nil, false
	}
	ci.Bytes = int64(len(data))
	seq, payload, err := decodeCheckpoint(data)
	switch {
	case err != nil:
		ci.Err = err
	case seq != ci.Seq:
		ci.Err = fmt.Errorf("persist: checkpoint %s claims seq %d", filepath.Base(ci.Path), seq)
	default:
		return payload, true
	}
	return nil, false
}

// newestCheckpoint reads the files of cks (newest first) until one is
// valid, so each file is read at most once and none past the one
// recovery uses. skipped counts the invalid files passed over.
func newestCheckpoint(cks []CheckpointInfo) (ci CheckpointInfo, payload []byte, skipped int, ok bool) {
	for _, ci := range cks {
		if payload, ok := readCheckpoint(&ci); ok {
			return ci, payload, skipped, true
		}
		skipped++
	}
	return CheckpointInfo{}, nil, skipped, false
}

// writeCheckpointFile writes the framed checkpoint atomically and
// returns the file's final path.
func writeCheckpointFile(dir string, seq uint64, payload []byte) (string, error) {
	final := filepath.Join(dir, ckptName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	// Header and payload go out as two writes: framing them into one
	// buffer would copy the whole payload.
	for _, b := range [][]byte{checkpointHeader(seq, payload), payload} {
		if _, err := f.Write(b); err != nil {
			f.Close()
			os.Remove(tmp)
			return "", err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(dir)
	return final, nil
}

// syncDir fsyncs a directory so a rename (or segment create/delete)
// survives power loss; best-effort on filesystems that reject
// directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
