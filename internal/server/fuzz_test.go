package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// FuzzServerIngest throws arbitrary bodies at POST /v1/trajectories:
// the decoder must reject malformed, hostile, or truncated input with
// a 4xx — never panic, never crash the handler, never commit partial
// state that poisons a later valid ingest.
func FuzzServerIngest(f *testing.F) {
	g, ds := testSetup(f)
	h := New(g, Config{DataNodes: 2, MaxBatch: 64}).Handler()

	valid, err := json.Marshal(FromDataset(ds))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"trajectories":[]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1,"points":[{"sid":0,"x":1,"y":2,"t":3}]}]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1,"points":[{"sid":-5,"x":1,"y":2,"t":3}]}]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1},{"trid":1}]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1,"points":[{"sid":999999,"x":0,"y":0,"t":0}]}]}`))
	f.Add([]byte(`{"trajectories": [{"trid": 2, "points": [{"sid": 0, "x": 1e308, "y": -1e308, "t": 1e308}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"trajectories":`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
			http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}

// referenceDecode is the ingest decode as encoding/json performs it —
// the wire DTOs, then one traj.Trajectory per DTO — kept as the oracle
// decodeIngest must agree with.
func referenceDecode(body []byte) ([]traj.ID, []traj.Trajectory, error) {
	var req IngestRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, nil, err
	}
	ids := make([]traj.ID, len(req.Trajectories))
	trajs := make([]traj.Trajectory, len(req.Trajectories))
	for i, dto := range req.Trajectories {
		ids[i] = traj.ID(dto.ID)
		trajs[i].ID = traj.ID(dto.ID)
		for _, p := range dto.Points {
			trajs[i].Points = append(trajs[i].Points, traj.Sample(roadnet.SegID(p.Seg), geo.Pt(p.X, p.Y), p.Time))
		}
	}
	return ids, trajs, nil
}

// sameDecode reports where two decodes differ ("" when they agree bit
// for bit: -0 and 0 differ).
func sameDecode(ids []traj.ID, trajs []traj.Trajectory, wantIDs []traj.ID, want []traj.Trajectory) string {
	if len(ids) != len(wantIDs) || len(trajs) != len(want) {
		return "trajectory counts differ"
	}
	for i := range want {
		g, w := trajs[i], want[i]
		if ids[i] != wantIDs[i] || g.ID != w.ID {
			return "trajectory ids differ"
		}
		if len(g.Points) != len(w.Points) {
			return "point counts differ"
		}
		for j, p := range w.Points {
			q := g.Points[j]
			if q.Seg != p.Seg || q.Junction != p.Junction ||
				math.Float64bits(q.Pt.X) != math.Float64bits(p.Pt.X) ||
				math.Float64bits(q.Pt.Y) != math.Float64bits(p.Pt.Y) ||
				math.Float64bits(q.Time) != math.Float64bits(p.Time) {
				return "points differ"
			}
		}
	}
	return ""
}

// ingestDecodeSeeds are bodies that exercise every corner of the
// encoding/json contract decodeIngest reproduces.
func ingestDecodeSeeds() []string {
	deep := func(n int) string {
		return `{"trajectories":[{"trid":1,"points":[{"sid":0}]}],"u":` +
			strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	return []string{
		``, ` `, " \t\r\n ", `{}`, `null`, ` null trailing`, `nul`, `[]`, `1`, `"s"`, `true`,
		`{"trajectories":[]}`, `{"trajectories":null}`, `{"trajectories":{}}`, `{"trajectories":1}`,
		`{"trajectories":[{"trid":1,"points":[{"sid":0,"x":1,"y":2,"t":3}]}]}`,
		// Mixed-case and escaped keys; folding beyond ASCII.
		`{"TRAJECTORIES":[{"TrId":1,"Points":[{"SID":0,"X":1,"Y":2,"T":3}]}]}`,
		`{"\u0074rajectories":[{"\u0074rid":1,"p\u006fints":[{"s\u0069d":0,"\u0078":1,"\u0059":2,"\u0074":3}]}]}`,
		`{"trajectories":[{"trid":1,"points":[{"\u017fid":4,"ſid":5}]}]}`,
		`{"trajectories":[{"tr\u0130d":1,"tr\u0131d":2,"trıd":3,"points":[]}]}`,
		`{"trajectories":[{"t\ud834\udd1erid":1,"\ud800trid":2,"tri\u0064\/":3,"trid":4}]}`,
		// Unknown scalar, array and object members at every level.
		`{"v":1,"trajectories":[{"a":"s","trid":1,"b":[1,{"c":null}],"points":[{"d":{"e":[true,false]},"sid":0,"x":-0,"y":1e-400,"t":0.5E+2}]}],"w":{}}`,
		// Nesting at encoding/json's depth limit, and one past it.
		deep(9999), deep(10000),
		// null at every level.
		`{"trajectories":[null,{"trid":null,"points":null},{"trid":2,"points":[null,{"sid":null,"x":null,"y":null,"t":null}]}]}`,
		// Duplicate keys: the last wins, repeated arrays merge into the
		// elements an earlier one left.
		`{"trajectories":[{"trid":1,"trid":2,"points":[{"sid":1,"x":1},{"sid":2}],"points":[{"y":3}]}]}`,
		`{"trajectories":[{"trid":1,"points":[{"sid":1,"x":1},{"sid":2},{"sid":3}],"points":[{"y":3}],"points":[{"t":1},{},{}]}]}`,
		`{"trajectories":[{"trid":1},{"trid":2},{"trid":3}],"trajectories":[{"points":[]}],"trajectories":[{},{},{},{}]}`,
		`{"trajectories":[{"trid":1},{"trid":2}],"trajectories":[],"trajectories":[{},{}]}`,
		// int32 and float64 range and grammar.
		`{"trajectories":[{"trid":2147483647,"points":[{"sid":-2147483648}]}]}`,
		`{"trajectories":[{"trid":2147483648}]}`,
		`{"trajectories":[{"trid":-2147483649}]}`,
		`{"trajectories":[{"trid":1,"points":[{"sid":1.0}]}]}`,
		`{"trajectories":[{"trid":1e2}]}`,
		`{"trajectories":[{"trid":"1"}]}`,
		`{"trajectories":[{"trid":1,"points":[{"x":1e400}]}]}`,
		`{"trajectories":[{"trid":1,"points":[{"x":-1e308,"y":4.9e-324,"t":1.7976931348623157e308}]}]}`,
		`{"trajectories":[{"trid":01}]}`, `{"trajectories":[{"trid":-}]}`, `{"trajectories":[{"trid":1.}]}`,
		`{"trajectories":[{"trid":1,"points":[{"x":.5}]}]}`, `{"trajectories":[{"trid":1,"points":[{"x":1e}]}]}`,
		`{"trajectories":[{"trid":1,"points":[{"x":+1}]}]}`, `{"trajectories":[{"trid":1,"points":[{"x":NaN}]}]}`,
		// Strings: escapes and control characters.
		`{"u":"a\"b\\c\/d\b\f\n\r\t\u00e9","trajectories":[{"trid":1}]}`,
		"{\"u\":\"a\tb\",\"trajectories\":[{\"trid\":1}]}",
		`{"u":"\x41","trajectories":[{"trid":1}]}`, `{"u":"\u12G4"}`, `{"u":"\u12`,
		"{\"u\":\"\xff\xfe\",\"trajectories\":[{\"trid\":1}]}",
		// Trailing bytes after the first value are ignored; truncation
		// and bad separators are not.
		`{"trajectories":[{"trid":1,"points":[{"sid":0}]}]} garbage {`,
		`{"trajectories":[{"trid":1}]}]`,
		`{"trajectories":[{"trid":1},]}`, `{"trajectories":[{"trid":1}`, `{"trajectories":[{"trid":1} {"trid":2}]}`,
		`{"trajectories" [] }`, `{"trajectories":[],}`, `{,}`, `{"a"}`, `{1:2}`,
	}
}

// FuzzIngestDecode is the differential check of the ingest decoder:
// for any body, decodeIngest and encoding/json (referenceDecode) both
// succeed or both fail, and on success every id and every float agrees
// bit for bit. A batch cap either leaves the decode unchanged or stops
// it with errBatchTooLarge, and always stops a decode that would
// exceed it.
func FuzzIngestDecode(f *testing.F) {
	_, ds := testSetup(f)
	valid, err := json.Marshal(FromDataset(ds))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, s := range ingestDecodeSeeds() {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		wantIDs, want, wantErr := referenceDecode(body)
		ids, got, points, err := decodeIngest(body, math.MaxInt)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeIngest error %v, encoding/json error %v, body %q", err, wantErr, body)
		}
		if err != nil {
			return
		}
		if diff := sameDecode(ids, got, wantIDs, want); diff != "" {
			t.Fatalf("decodeIngest and encoding/json disagree (%s) on body %q", diff, body)
		}
		n := 0
		for _, tr := range want {
			n += len(tr.Points)
		}
		if points != n {
			t.Fatalf("decodeIngest counted %d points, want %d", points, n)
		}

		const limit = 2
		ids, capped, _, err := decodeIngest(body, limit)
		switch {
		case errors.Is(err, errBatchTooLarge):
		case err != nil:
			t.Fatalf("capped decode failed with %v where the uncapped one succeeded", err)
		case len(want) > limit:
			t.Fatalf("capped decode accepted %d trajectories (limit %d)", len(capped), limit)
		default:
			if diff := sameDecode(ids, capped, wantIDs, want); diff != "" {
				t.Fatalf("capped decode differs (%s)", diff)
			}
		}
	})
}
