package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/geo"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/session"
	"repro/internal/traj"
	"repro/internal/viz"
)

// Config parameterizes a Server.
type Config struct {
	// DataNodes is the number of preprocessing workers each session's
	// ingestion path shards trajectories across (the paper's data
	// nodes). Zero selects 4.
	DataNodes int
	// MaxBatch caps the number of trajectories per ingest request.
	// Zero selects 10000.
	MaxBatch int
	// Workers is the Phase 3 refinement worker count passed through to
	// neat.RefineConfig.Workers: 0 keeps the serial paper-exact scan,
	// negative uses all CPUs. The clustering output is identical either
	// way, so it does not key the result cache.
	Workers int
	// Shards is the road-network shard count passed through to
	// neat.Config.Shards: clustering requests then execute Phases 1-2
	// per graph region. Like Workers it changes only the execution
	// shape — output is byte-identical — so it does not key the result
	// cache. 0 or 1 disables.
	Shards int
	// CacheEntries sizes the junction-pair distance cache budget shared
	// by every session (internal/distcache): each session keeps its own
	// cache instance — scoped to its graph by fingerprint — but all of
	// them draw on one entry budget, so N tenants never multiply the
	// cache memory. 0 selects the default budget, a negative value
	// disables caching. Like Workers it changes only the work
	// performed, never the response bytes.
	CacheEntries int
	// Obs is the metrics registry the server records into: request
	// latency/status per route, result-cache hits and misses, ingest
	// volume (all session-labeled, with bounded cardinality), and the
	// clustering pipeline's own series. Nil (the default) disables all
	// instrumentation at zero cost; responses are byte-identical either
	// way.
	Obs *obs.Registry
	// MaxInflight bounds concurrently served requests across all
	// sessions (global admission control): up to MaxInflight requests
	// run, up to another MaxInflight wait for a slot, and beyond that
	// requests are shed immediately with 429 and a Retry-After header.
	// A waiter whose deadline expires before a slot frees is shed with
	// 503. Zero selects 16; negative disables admission control
	// entirely.
	MaxInflight int
	// SessionMaxInflight bounds concurrently served requests per
	// session, underneath the global cap, so one tenant cannot occupy
	// every slot. Zero selects MaxInflight (which never binds with a
	// single session — the global cap saturates first, keeping the
	// default session's behavior identical to the pre-session server);
	// negative disables the per-session bound. The value seeds each
	// session's adaptive (AIMD) admission window: the window starts
	// here and halves on deadline misses and sheds, so a hot tenant
	// shrinks its own footprint instead of monopolizing the global
	// queue (see internal/guard).
	SessionMaxInflight int
	// Guard is the per-session isolation template applied to every
	// session (the default session included): token-bucket ingest rate
	// limits, circuit-breaker trip policy, and the ingest watchdog.
	// Individual sessions can be overridden at runtime through the
	// /v1/sessions/limits admin endpoint. The zero value disables all
	// of it, preserving pre-guard behavior exactly.
	Guard guard.Config
	// MaxSessions caps live sessions (the default session included);
	// Create beyond it is rejected. Zero selects 16. The per-session
	// metric label space is capped at the same count — overflow
	// sessions aggregate into session="other" series.
	MaxSessions int
	// RequestTimeout is the per-request deadline attached to every
	// request context; work in flight observes it cooperatively (the
	// clustering pipeline polls it pair-by-pair). Zero selects 30s;
	// negative disables deadlines.
	RequestTimeout time.Duration
	// Fault is an optional fault injector threaded into the ingest
	// path (slow/failed ingests), the clustering pipeline (shortest-
	// path faults), and the distance caches (pressure). It applies to
	// the default session and to created sessions that do not bring
	// their own injector. With a nil or disabled injector the server's
	// responses are byte-identical to an un-faulted build.
	Fault *fault.Injector
	// Persist makes the ingested datasets durable: every acknowledged
	// ingest batch is appended to a per-session write-ahead log under
	// Persist.Dir (the default session keeps the root itself, named
	// sessions live in sessions/<name> beneath it, with their road
	// network persisted alongside), datasets are checkpointed every
	// Persist.CheckpointEvery batches and on Close, and Open recovers
	// every namespace found on boot. Requires the Open constructor; New
	// ignores it. Persist.Obs and Persist.Fault default to Config.Obs
	// and Config.Fault.
	Persist *persist.Options
}

func (c Config) withDefaults() Config {
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 16
	}
	if c.SessionMaxInflight == 0 {
		c.SessionMaxInflight = c.MaxInflight
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is the NEAT trajectory-clustering service: a registry of
// isolated sessions (each one road network + dataset + pipeline +
// distance cache + durability namespace) behind one HTTP API. Requests
// route to a session via ?session=; without the parameter they target
// the default session, which behaves exactly like the pre-session
// single-tenant server. It is safe for concurrent use: ingest is
// serialized per session and concurrent across sessions, and every
// read path serves from an immutable published snapshot without ever
// taking an ingest lock.
type Server struct {
	cfg Config
	reg *session.Registry

	// Global admission control (nil channels when cfg.MaxInflight < 0):
	// queued bounds admitted-plus-waiting requests, inflight bounds
	// concurrently served ones. Both are chan-semaphores so waiters
	// can give up on context expiry.
	queued   chan struct{}
	inflight chan struct{}

	// Shed counters surfaced in /v1/stats (global — shedding happens
	// before a session is resolved).
	shedQueueFull  atomic.Int64
	shedTimeout    atomic.Int64
	mShedQueueFull *obs.Counter
	mShedTimeout   *obs.Counter
}

// New creates an in-memory Server over g; Config.Persist is ignored
// (use Open for a durable server — it is the constructor that can
// fail).
func New(g *roadnet.Graph, cfg Config) *Server {
	cfg.Persist = nil
	s, _ := Open(g, cfg)
	return s
}

// Open creates a Server over g (the default session's road network),
// recovering every session from Config.Persist's data directory when
// set (see Config.Persist).
func Open(g *roadnet.Graph, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		mShedQueueFull: cfg.Obs.Counter("neat_shed_requests_total", obs.L("reason", "queue_full")),
		mShedTimeout:   cfg.Obs.Counter("neat_shed_requests_total", obs.L("reason", "timeout")),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
		s.queued = make(chan struct{}, 2*cfg.MaxInflight)
	}
	reg, err := session.NewRegistry(session.Options{
		Graph: g,
		Session: session.Config{
			DataNodes:   cfg.DataNodes,
			MaxBatch:    cfg.MaxBatch,
			Workers:     cfg.Workers,
			Shards:      cfg.Shards,
			MaxInflight: cfg.SessionMaxInflight,
			Guard:       cfg.Guard,
			Obs:         cfg.Obs,
			Fault:       cfg.Fault,
		},
		CacheEntries: cfg.CacheEntries,
		MaxSessions:  cfg.MaxSessions,
		Persist:      cfg.Persist,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.reg = reg
	return s, nil
}

// Sessions exposes the session registry (tests, chaos scenarios, and
// cmd/neatserver boot reporting use it; the HTTP API is the public
// surface).
func (s *Server) Sessions() *session.Registry { return s.reg }

// Routes returns the API paths the server responds on; the obs
// middleware uses this closed set as its route label space.
func (s *Server) Routes() []string {
	return []string{
		"/v1/trajectories",
		"/v1/clusters",
		"/v1/stats",
		"/v1/network",
		"/v1/trajectories/query",
		"/v1/sessions",
		"/v1/sessions/limits",
	}
}

// Handler returns the HTTP handler exposing the API. Requests pass
// through admission control (load shedding and per-request deadlines;
// see Config.MaxInflight and Config.RequestTimeout) and, when the
// server was configured with a metrics registry, the obs middleware —
// outermost, so shed requests are counted per route and status too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trajectories", s.withSession(s.handleIngest))
	mux.HandleFunc("/v1/clusters", s.withSession(s.handleClusters))
	mux.HandleFunc("/v1/stats", s.withSession(s.handleStats))
	mux.HandleFunc("/v1/network", s.withSession(s.handleNetwork))
	mux.HandleFunc("/v1/trajectories/query", s.withSession(s.handleQuery))
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/limits", s.handleSessionLimits)
	return obs.Middleware(s.cfg.Obs, s.admission(mux), s.Routes()...)
}

// admission is the global load-shedding middleware: a bounded queue in
// front of a bounded in-flight pool, plus the per-request deadline. An
// overloaded server answers immediately — 429 when even the queue is
// full, 503 when the deadline expires while queued — always with a
// Retry-After header, and never hangs a client or surfaces a timeout
// as a 500.
func (s *Server) admission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if s.inflight == nil {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		select {
		case s.queued <- struct{}{}:
			defer func() { <-s.queued }()
		default:
			s.shedQueueFull.Add(1)
			s.mShedQueueFull.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server overloaded: admission queue full")
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		case <-ctx.Done():
			s.shedTimeout.Add(1)
			s.mShedTimeout.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server overloaded: no slot within deadline")
			return
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withSession resolves the ?session= query parameter (default session
// without it) and takes a per-session admission slot underneath the
// global cap, so one tenant's slow requests cannot occupy every global
// slot. An unknown session is a typed 404 with a JSON body.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *session.Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.reg.Get(r.URL.Query().Get("session"))
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		if !sess.Acquire(r.Context()) {
			// A per-tenant shed, not a global one: record it under the
			// session's own capped label and reason so /metrics can tell
			// which tenant ran out of window (the session's AIMD guard
			// has already counted the congestion signal).
			sess.Metrics().ShedSessionSlot.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "session %q overloaded: no session slot within deadline", sess.Name())
			return
		}
		defer sess.Release()
		h(w, r, sess)
	}
}

// handleQuery answers spatio-temporal range queries over the ingested
// trajectories: GET /v1/trajectories/query?x0=&y0=&x1=&y1=&t0=&t1=.
// It serves from a SETI-style index built lazily per published
// snapshot — wait-free with respect to ingest.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	parse := func(name string) (float64, bool) {
		v, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad %s %q", name, q.Get(name))
			return 0, false
		}
		return v, true
	}
	x0, ok := parse("x0")
	if !ok {
		return
	}
	y0, ok := parse("y0")
	if !ok {
		return
	}
	x1, ok := parse("x1")
	if !ok {
		return
	}
	y1, ok := parse("y1")
	if !ok {
		return
	}
	t0, ok := parse("t0")
	if !ok {
		return
	}
	t1, ok := parse("t1")
	if !ok {
		return
	}
	idx, err := sess.Current().Index(sess.Graph())
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	ids := idx.Query(geo.RectFromPoints(geo.Pt(x0, y0), geo.Pt(x1, y1)), t0, t1)
	out := QueryResponse{Count: len(ids)}
	for _, id := range ids {
		out.IDs = append(out.IDs, int32(id))
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfter formats a duration for the Retry-After header (whole
// seconds, at least 1).
func retryAfter(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Rate-limit gate 1: the per-session request bucket, consulted
	// before the body is even decoded so an abusive tenant costs the
	// server nothing but this check.
	if ok, retry := sess.Guard().AllowRequest(); !ok {
		sess.Metrics().ShedRateLimit.Inc()
		w.Header().Set("Retry-After", retryAfter(retry))
		writeError(w, http.StatusTooManyRequests, "session %q rate limited: ingest QPS budget exhausted", sess.Name())
		return
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// The decoder enforces the batch cap itself, stopping at the first
	// trajectory past it, so an oversize batch is never decoded.
	ids, trajs, points, err := decodeIngest(body, sess.MaxBatch())
	if errors.Is(err, errBatchTooLarge) {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds limit %d", sess.MaxBatch())
		return
	}
	if err != nil {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(ids) == 0 {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusBadRequest, "no trajectories")
		return
	}
	// Rate-limit gate 2: the point budget, now that the batch size is
	// known — still before any pipeline work.
	if ok, retry := sess.Guard().AllowPoints(points); !ok {
		sess.Metrics().ShedPointBudget.Inc()
		w.Header().Set("Retry-After", retryAfter(retry))
		writeError(w, http.StatusTooManyRequests, "session %q rate limited: point budget exhausted (%d points)", sess.Name(), points)
		return
	}
	st, err := sess.Ingest(r.Context(), ids, func(i int) (traj.Trajectory, error) {
		if err := checkTrajectory(sess.Graph(), trajs[i]); err != nil {
			return traj.Trajectory{}, err
		}
		return trajs[i], nil
	})
	if err != nil {
		var dup *session.DuplicateError
		var quar *guard.QuarantinedError
		var pan *guard.PanicError
		switch {
		case errors.As(err, &dup):
			writeError(w, http.StatusConflict, "%s", dup)
		case errors.As(err, &quar):
			// The session's breaker is open: writes shed until the
			// cooldown elapses and a probe succeeds; reads keep serving
			// the last-good snapshot.
			sess.Metrics().ShedQuarantined.Inc()
			w.Header().Set("Retry-After", retryAfter(quar.RetryAfter))
			writeError(w, http.StatusServiceUnavailable, "%v", quar)
		case errors.As(err, &pan):
			// A contained ingest panic: the batch rolled back atomically
			// and the breaker counted a failure; the batch is retryable.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "ingest unavailable: %v", pan)
		case errors.Is(err, guard.ErrStuck):
			sess.Guard().OnCongestion()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "ingest unavailable: %v", err)
		case errors.Is(err, session.ErrNotDurable):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, session.ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case fault.IsInjected(err):
			// Simulated ingest-path outage: nothing is committed, the
			// session flags itself degraded, and the client may retry.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "ingest unavailable: %v", err)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Timed out mid-preprocess: nothing was committed (the
			// session's commit is atomic), so the batch is safely
			// retryable — but the server is degraded, not the request
			// malformed.
			sess.Guard().OnCongestion()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "preprocess: %v", err)
		default:
			writeError(w, http.StatusBadRequest, "preprocess: %v", err)
		}
		return
	}
	sess.Guard().OnSuccess()
	writeJSON(w, http.StatusOK, IngestResponse{
		Accepted:       st.Accepted,
		Fragments:      st.Fragments,
		TotalFragments: st.TotalFragments,
	})
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	level := neat.LevelOpt
	switch strings.ToLower(q.Get("level")) {
	case "", "opt":
	case "flow":
		level = neat.LevelFlow
	case "base":
		level = neat.LevelBase
	default:
		writeError(w, http.StatusBadRequest, "unknown level %q", q.Get("level"))
		return
	}
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 5},
		Refine: neat.RefineConfig{Epsilon: 6500, UseELB: true, Bounded: true, Workers: sess.Workers(), Cache: sess.Cache(), Fault: sess.Injector()},
		Shards: sess.Shards(),
	}
	if v := q.Get("eps"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || eps <= 0 {
			writeError(w, http.StatusBadRequest, "bad eps %q", v)
			return
		}
		cfg.Refine.Epsilon = eps
	}
	if v := q.Get("mincard"); v != "" {
		mc, err := strconv.Atoi(v)
		if err != nil || mc < 0 {
			writeError(w, http.StatusBadRequest, "bad mincard %q", v)
			return
		}
		cfg.Flow.MinCard = mc
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}
	plan, err := neat.NewPlan(cfg, level, neat.FromFragments, neat.Exec{})
	if err != nil {
		writeError(w, http.StatusBadRequest, "plan: %v", err)
		return
	}

	// The published snapshot is the whole read state: no ingest lock,
	// no copying — the fragment slice is immutable by construction and
	// the pipeline only reads it.
	sn := sess.Current()
	if len(sn.Fragments) == 0 {
		writeError(w, http.StatusConflict, "no trajectories ingested yet")
		return
	}

	cacheKey := fmt.Sprintf("%d|%g|%d", level, cfg.Refine.Epsilon, cfg.Flow.MinCard)
	if sess.Quarantined() {
		// A quarantined session still answers reads, but only from its
		// last-good state, explicitly flagged stale: the pipeline is not
		// trusted until the breaker's probe sequence heals it.
		s.degradeClusters(w, sess, cacheKey, fmt.Errorf("session %q quarantined", sess.Name()))
		return
	}
	if hit, ok := sn.Result(cacheKey); ok {
		sess.Metrics().CacheHits.Inc()
		writeJSON(w, http.StatusOK, hit.(ClusterResponse))
		return
	}
	sess.Metrics().CacheMisses.Inc()

	start := time.Now()
	res, err := sess.RunPlan(r.Context(), plan, neat.Input{Fragments: sn.Fragments})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || fault.IsInjected(err) {
			if !fault.IsInjected(err) {
				// A deadline miss under load is the AIMD congestion
				// signal; injected faults are not load.
				sess.Guard().OnCongestion()
			}
			s.degradeClusters(w, sess, cacheKey, err)
			return
		}
		writeError(w, http.StatusInternalServerError, "clustering: %v", err)
		return
	}
	sess.Guard().OnSuccess()
	resp := ClusterResponse{
		Level:        res.Level.String(),
		BaseClusters: len(res.BaseClusters),
		ElapsedMs:    float64(time.Since(start).Microseconds()) / 1000,
	}
	for _, f := range res.Flows {
		resp.Flows = append(resp.Flows, flowDTO(sess.Graph(), f))
	}
	for _, c := range res.Clusters {
		dto := ClusterDTO{Cardinality: c.Cardinality()}
		for _, f := range c.Flows {
			dto.Flows = append(dto.Flows, flowDTO(sess.Graph(), f))
		}
		resp.Clusters = append(resp.Clusters, dto)
	}
	// Memoize on the snapshot (publication of the successor is the
	// invalidation) and keep it as the degraded-mode fallback.
	sn.StoreResult(cacheKey, resp)
	sess.SetLastGood(cacheKey, resp)
	writeJSON(w, http.StatusOK, resp)
}

// degradeClusters is the graceful-degradation tail of handleClusters:
// when a fresh clustering cannot be computed (deadline expired, or an
// injected fault downed the shortest-path engines), serve the last
// successfully computed response for the same parameters — flagged
// Stale, possibly predating recent ingests — or shed with 503 and
// Retry-After when no last-good state exists. A timeout is never a
// 500: the condition is the server's load, not a server bug.
func (s *Server) degradeClusters(w http.ResponseWriter, sess *session.Session, cacheKey string, cause error) {
	if v, ok := sess.LastGood(cacheKey); ok {
		snap := v.(ClusterResponse)
		snap.Stale = true
		sess.NoteStale()
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "clustering unavailable: %v", cause)
}

// handleNetwork serves the session's road network as GeoJSON so
// clients can render clustering results over it.
func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/geo+json")
	if err := viz.WriteNetworkGeoJSON(w, sess.Graph()); err != nil {
		// Headers are out; nothing more to do than log via the error
		// path of the connection.
		return
	}
}

func flowDTO(g *roadnet.Graph, f *neat.FlowCluster) FlowDTO {
	dto := FlowDTO{
		RouteLength: f.RouteLength(g),
		Cardinality: f.Cardinality(),
		Density:     f.Density(),
	}
	for _, seg := range f.Route {
		dto.Route = append(dto.Route, int32(seg))
	}
	return dto
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	sn := sess.Current()
	var dc *DistCacheDTO
	if cache := sess.Cache(); cache != nil {
		st := cache.CacheStats()
		dc = &DistCacheDTO{
			Entries:   st.Entries,
			Capacity:  st.Capacity,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			HitRate:   st.HitRate(),
		}
	}
	degraded, lastErr := sess.Health()
	rb := RobustnessDTO{
		MaxInflight:      s.cfg.MaxInflight,
		RequestTimeoutMs: float64(s.cfg.RequestTimeout.Microseconds()) / 1000,
		Degraded:         degraded,
		LastIngestError:  lastErr,
		StaleServed:      sess.StaleServed(),
		ShedQueueFull:    s.shedQueueFull.Load(),
		ShedTimeout:      s.shedTimeout.Load(),
		FaultsEnabled:    sess.Injector().Enabled(),
	}
	gd := guardDTO(sess)
	g := sess.Graph()
	writeJSON(w, http.StatusOK, StatsResponse{
		Junctions:      g.NumNodes(),
		Segments:       g.NumSegments(),
		TotalLengthKm:  g.TotalLength() / 1000,
		Trajectories:   len(sn.Trajs),
		TotalFragments: len(sn.Fragments),
		DataNodes:      s.cfg.DataNodes,
		RefineWorkers:  s.cfg.Workers,
		Shards:         s.cfg.Shards,
		DistCache:      dc,
		Robustness:     rb,
		Guard:          &gd,
		Persistence:    persistenceDTO(sess),
		Build:          buildDTO(),
		Session:        sess.Name(),
		Sessions:       s.reg.Len(),
	})
}

func buildDTO() BuildDTO {
	b := obs.BuildInfo()
	return BuildDTO{
		GoVersion: b.GoVersion,
		Module:    b.Module,
		Version:   b.Version,
		Revision:  b.Revision,
		Time:      b.Time,
		Dirty:     b.Dirty,
	}
}
