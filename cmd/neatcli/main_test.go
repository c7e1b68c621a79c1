package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/neat"
)

// TestCLIWorkflow drives the whole toolchain through run(): generate a
// map, simulate traces (matched and raw), map-match, cluster, run the
// baseline, export GeoJSON, and print stats.
func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "map.csv")
	tracesPath := filepath.Join(dir, "traces.csv")
	rawPath := filepath.Join(dir, "raw.csv")
	matchedPath := filepath.Join(dir, "matched.csv")
	svgPath := filepath.Join(dir, "out.svg")
	geojsonPath := filepath.Join(dir, "flows.geojson")

	steps := [][]string{
		{"genmap", "-region", "ATL", "-scale", "0.02", "-out", mapPath},
		{"gentraces", "-map", mapPath, "-objects", "25", "-out", tracesPath},
		{"gentraces", "-map", mapPath, "-objects", "8", "-noise", "6", "-out", rawPath},
		{"match", "-map", mapPath, "-raw", rawPath, "-noise", "6", "-out", matchedPath},
		{"cluster", "-map", mapPath, "-traces", tracesPath, "-eps", "800", "-mincard", "3", "-svg", svgPath, "-json", filepath.Join(dir, "res.json")},
		{"cluster", "-map", mapPath, "-traces", tracesPath, "-level", "flow", "-weights", "balanced"},
		{"traclus", "-traces", tracesPath, "-eps", "10", "-minlns", "2"},
		{"export", "-map", mapPath, "-traces", tracesPath, "-what", "flows", "-mincard", "2", "-out", geojsonPath},
		{"stats", "-map", mapPath},
		{"selftest", "-seed", "500", "-n", "3"},
	}
	for _, args := range steps {
		if err := run(args); err != nil {
			t.Fatalf("neatcli %s: %v", strings.Join(args, " "), err)
		}
	}
	for _, p := range []string{mapPath, tracesPath, rawPath, matchedPath, svgPath, geojsonPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing artifact %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", p)
		}
	}
	svg, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Error("svg artifact is not an SVG")
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		nil,            // no subcommand
		{"frobnicate"}, // unknown subcommand
		{"genmap", "-region", "XX"},
		{"gentraces"}, // missing -map
		{"cluster"},   // missing both files
		{"cluster", "-map", "nope.csv", "-traces", "nope.csv"},
		{"traclus"}, // missing traces
		{"stats"},   // missing map
		{"export"},  // missing map
		{"match"},   // missing both
		{"gentraces", "-map", "nope.csv", "-model", "warp"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("neatcli %v succeeded, want error", args)
		}
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

func TestParseHelpers(t *testing.T) {
	if l, err := parseLevel("base"); err != nil || l != neat.LevelBase {
		t.Errorf("parseLevel(base) = %v, %v", l, err)
	}
	if l, err := parseLevel("FLOW"); err != nil || l != neat.LevelFlow {
		t.Errorf("parseLevel(FLOW) = %v, %v", l, err)
	}
	if l, err := parseLevel("opt"); err != nil || l != neat.LevelOpt {
		t.Errorf("parseLevel(opt) = %v, %v", l, err)
	}
	if _, err := parseLevel("turbo"); err == nil {
		t.Error("parseLevel(turbo) accepted")
	}
	for name, want := range map[string]neat.Weights{
		"flow":       neat.WeightsFlowOnly,
		"density":    neat.WeightsDensityOnly,
		"speed":      neat.WeightsSpeedOnly,
		"balanced":   neat.WeightsBalanced,
		"monitoring": neat.WeightsTrafficMonitoring,
	} {
		got, err := parseWeights(name)
		if err != nil || got != want {
			t.Errorf("parseWeights(%s) = %v, %v", name, got, err)
		}
	}
	if _, err := parseWeights("everything"); err == nil {
		t.Error("parseWeights(everything) accepted")
	}
}

// TestWALInspectIsReadOnly: `neatcli wal` must not change the directory
// it inspects, even the .tmp debris of an interrupted checkpoint write.
func TestWALInspectIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "ckpt-0000000000000001.ck.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"wal", "-dir", dir, "-verify"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("neatcli wal deleted the debris it inspected: %v", err)
	}
}
