package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/persist"
)

// cmdWAL inspects a durability data directory (the -data-dir of
// neatserver, or a stream clusterer's Persist.Dir): every checkpoint
// and WAL segment is listed with its validation state. With -verify
// the command exits non-zero on any damage recovery could not absorb —
// a torn tail on the final segment is tolerated (recovery drops only
// that record) and reported as a warning instead.
func cmdWAL(args []string) error {
	fs := newFlagSet("wal")
	dir := fs.String("dir", "", "data directory to inspect (required)")
	verify := fs.Bool("verify", false, "exit non-zero on unrecoverable damage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-dir is required")
	}
	rep, err := persist.Inspect(*dir)
	if err != nil {
		return err
	}

	var fatal, warn int
	fmt.Printf("%s: %d checkpoints, %d WAL segments\n", *dir, len(rep.Checkpoints), len(rep.Segments))
	validCkpt := false
	for _, ck := range rep.Checkpoints {
		if ck.Err != nil {
			fmt.Printf("  checkpoint %-28s INVALID: %v\n", filepath.Base(ck.Path), ck.Err)
			warn++
			continue
		}
		state := "ok"
		if !validCkpt {
			state = "ok (recovery starts here)"
			validCkpt = true
		}
		fmt.Printf("  checkpoint %-28s seq %-6d %8d bytes  %s\n", filepath.Base(ck.Path), ck.Seq, ck.Bytes, state)
	}
	for _, path := range rep.Debris {
		fmt.Printf("  debris     %-28s warning: left by an interrupted checkpoint write; the next open deletes it\n", filepath.Base(path))
		warn++
	}
	if len(rep.Checkpoints) > 0 && !validCkpt {
		// Checkpoints exist but none decodes: recovery falls back to a
		// full WAL replay only if the log still starts at sequence 0.
		if len(rep.Segments) == 0 || rep.Segments[0].FirstSeq != 0 {
			fmt.Println("  ERROR: no valid checkpoint and the WAL does not start at seq 0")
			fatal++
		}
	}
	var records int
	for i, sg := range rep.Segments {
		last := i == len(rep.Segments)-1
		records += len(sg.Records)
		status := "ok"
		switch {
		case sg.Err != nil && !sg.Torn:
			status = fmt.Sprintf("ERROR: %v", sg.Err)
			fatal++
		case sg.Torn && !last:
			status = fmt.Sprintf("ERROR: torn mid-log (%d bytes): %v", sg.TornBytes, sg.Err)
			fatal++
		case sg.Torn:
			status = fmt.Sprintf("warning: torn tail (%d bytes, dropped on recovery)", sg.TornBytes)
			warn++
		}
		fmt.Printf("  segment    %-28s seq %-6d %8d bytes  %4d records  %s\n",
			filepath.Base(sg.Path), sg.FirstSeq, sg.Bytes, len(sg.Records), status)
	}
	fmt.Printf("  total: %d replayable records", records)
	if warn > 0 {
		fmt.Printf(", %d warnings", warn)
	}
	fmt.Println()
	if *verify {
		if fatal > 0 {
			return fmt.Errorf("verify: %d unrecoverable errors in %s", fatal, *dir)
		}
		fmt.Fprintln(os.Stderr, "wal: verify passed")
	}
	return nil
}
