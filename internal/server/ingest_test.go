package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mapgen"
	"repro/internal/mobisim"
	"repro/internal/obs"
)

// TestIngestOversizeBatchRejectedEarly pins the early 413: a body
// opening trajectory MaxBatch+1 is refused as soon as that element
// opens, so the garbage after it is never read as JSON, and the session
// neither commits nor counts anything but the rejection.
func TestIngestOversizeBatchRejectedEarly(t *testing.T) {
	g, ds := testSetup(t)
	const maxBatch = 4
	reg := obs.NewRegistry()
	s := New(g, Config{DataNodes: 2, MaxBatch: maxBatch, Obs: reg})
	h := s.Handler()
	sess := s.Sessions().Default()

	wire := FromDataset(ds)
	wire.Trajectories = wire.Trajectories[:maxBatch+1]
	valid, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the body inside trajectory MaxBatch+1 and append garbage.
	last, err := json.Marshal(wire.Trajectories[maxBatch])
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndex(valid, last) + 1
	body := append(valid[:cut:cut], "\x00 not json ]]]"...)

	before := sess.Current()
	req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", rec.Code, rec.Body)
	}
	if after := sess.Current(); after != before {
		t.Fatalf("snapshot moved: version %d -> %d", before.Version, after.Version)
	}
	m := sess.Metrics()
	if m.IngestTrajs.Value() != 0 || m.IngestFrags.Value() != 0 || m.ShedPointBudget.Value() != 0 {
		t.Fatalf("ingest counters moved: trajectories %d, fragments %d, point sheds %d",
			m.IngestTrajs.Value(), m.IngestFrags.Value(), m.ShedPointBudget.Value())
	}
	if got := m.IngestRejected.Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// The same prefix cut before trajectory MaxBatch+1 opens is a plain
	// decode error, and exactly MaxBatch trajectories still ingest.
	cut = bytes.LastIndex(valid, last) - 1
	req = httptest.NewRequest(http.MethodPost, "/v1/trajectories", bytes.NewReader(append(valid[:cut:cut], " ]]]"...)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated batch: status %d (%s), want 400", rec.Code, rec.Body)
	}
	wire.Trajectories = wire.Trajectories[:maxBatch]
	full, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trajectories", bytes.NewReader(full)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch of MaxBatch: status %d (%s), want 200", rec.Code, rec.Body)
	}
}

// TestIngestStatusOrder pins the order of the ingest rejections the
// decoder feeds: a malformed body, an empty batch and a bad segment id
// each get their own status, whatever else is wrong later in the body.
func TestIngestStatusOrder(t *testing.T) {
	g, _ := testSetup(t)
	h := New(g, Config{DataNodes: 2, MaxBatch: 2}).Handler()
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"trajectories":[{"trid":1,"points":[{"sid":0}]}`, http.StatusBadRequest},
		{`{"trajectories":[]}`, http.StatusBadRequest},
		{`null`, http.StatusBadRequest},
		{`{"trajectories":[{"trid":1},{"trid":1},{"trid":1}]}`, http.StatusRequestEntityTooLarge},
		{`{"trajectories":[{"trid":1,"points":[{"sid":0}]},{"trid":1,"points":[{"sid":0}]}]}`, http.StatusConflict},
		{`{"trajectories":[{"trid":1,"points":[{"sid":-1}]}]}`, http.StatusBadRequest},
		{`{"trajectories":[{"trid":1,"points":[{"sid":0,"x":1,"y":2,"t":3}]}]} trailing`, http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trajectories", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.body, rec.Code, rec.Body, tc.code)
		}
	}
}

// BenchmarkIngestDecode times the ingest body decode on one
// 50-trajectory batch over the ATL preset at scale 1 (the perfbench
// batch shape), against the encoding/json decode it replaced.
func BenchmarkIngestDecode(b *testing.B) {
	g, err := mapgen.Generate(mapgen.Presets()["ATL"])
	if err != nil {
		b.Fatal(err)
	}
	ds, _, err := mobisim.New(g).Simulate(mobisim.DefaultConfig("ATL", 50, 1))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(FromDataset(ds))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("onepass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := decodeIngest(body, len(ds.Trajectories)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := referenceDecode(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
