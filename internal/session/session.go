// Package session implements the multi-tenant core of the NEAT
// service: a registry of isolated clustering sessions, each owning its
// own road network, preprocessing pool, clustering pipeline, distance
// cache, durability namespace, and robustness state. Ingest is
// serialized per session and fully concurrent across sessions; reads
// never touch the ingest lock at all — every committed ingest
// publishes an immutable Snapshot through an atomic pointer, so query
// handlers stay wait-free even while another session replays its WAL
// or rides out a fault storm.
package session

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/traj"
)

// ErrClosed is returned by Ingest after Close; test with errors.Is.
var ErrClosed = errors.New("session closed")

// ErrNotDurable wraps a WAL append failure: the batch was rolled back
// in memory and can be retried; the session never acknowledges a batch
// the log does not hold. Test with errors.Is.
var ErrNotDurable = errors.New("ingest not durable")

// DuplicateError reports a trajectory id the session already holds, or
// one repeated within the same batch. Its Error text is the API error
// body the server has always used for duplicate rejections.
type DuplicateError struct {
	ID      traj.ID
	InBatch bool
}

func (e *DuplicateError) Error() string {
	if e.InBatch {
		return fmt.Sprintf("trajectory %d repeated in batch", e.ID)
	}
	return fmt.Sprintf("trajectory %d already ingested", e.ID)
}

// Config parameterizes one Session. The zero value is usable; see the
// field docs for defaults.
type Config struct {
	// DataNodes is the number of preprocessing workers ingest shards
	// trajectories across (the paper's data nodes). Zero selects 4.
	DataNodes int
	// MaxBatch caps trajectories per ingest batch (enforced by the
	// server's handler; exposed through MaxBatch). Zero selects 10000.
	MaxBatch int
	// Workers is the Phase 3 refinement worker count (0 serial,
	// negative all CPUs); output-identical either way.
	Workers int
	// Shards is the road-network shard count for Phases 1-2;
	// output-identical. 0 or 1 disables.
	Shards int
	// MaxInflight bounds concurrently served requests for this session
	// (per-session admission; the server keeps its own global cap on
	// top). 0 or negative disables the per-session bound. It seeds the
	// guard's AIMD ceiling when Guard.Limits.MaxConcurrency is unset,
	// so existing configurations keep their static limit until the
	// first congestion signal shrinks the window.
	MaxInflight int
	// Guard configures the session's isolation layer: token-bucket
	// rate limits, adaptive concurrency, circuit breaker, watchdog.
	// The zero value admits everything (no breaker, no limits), which
	// is the exact pre-guard behavior.
	Guard guard.Config
	// CacheEntries sizes the session's junction-pair distance cache: 0
	// selects the default budget, negative disables the cache.
	CacheEntries int
	// Budget, when non-nil, makes the distance cache draw on an entry
	// budget shared across sessions (see distcache.Budget), so N
	// tenants never hold more than one budget of entries in total.
	Budget *distcache.Budget
	// Obs is the metrics registry; nil disables instrumentation.
	Obs *obs.Registry
	// Label is the bounded-cardinality session label the session's
	// series carry (see obs.LabelCap). The zero Label defaults to
	// {session=<name>} — callers building sessions through a Registry
	// get the capped label instead.
	Label obs.Label
	// Fault is an optional per-session fault injector threaded into
	// ingest, the clustering pipeline, and the distance cache.
	Fault *fault.Injector
	// Persist makes the session durable: Dir must already be the
	// session's own namespace (the Registry resolves it). Nil keeps the
	// session in-memory.
	Persist *persist.Options
}

func (c Config) withDefaults(name string) Config {
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.Label == (obs.Label{}) {
		c.Label = obs.L("session", name)
	}
	return c
}

// Metrics are the session's pre-resolved per-tenant series handles;
// every field is nil without a registry, making recording a no-op.
// The server records its own pre-session rejections (decode errors,
// oversized batches) through the resolved session's handles too.
type Metrics struct {
	CacheHits      *obs.Counter
	CacheMisses    *obs.Counter
	IngestTrajs    *obs.Counter
	IngestFrags    *obs.Counter
	IngestRejected *obs.Counter
	StaleServed    *obs.Counter

	// Per-tenant shed series: neat_shed_requests_total with a reason
	// and the session's capped label, so /metrics distinguishes which
	// tenant was shed and why (the server's global queue_full/timeout
	// series carry no session label and are unchanged).
	ShedSessionSlot *obs.Counter
	ShedRateLimit   *obs.Counter
	ShedPointBudget *obs.Counter
	ShedQuarantined *obs.Counter
}

// IngestStats reports what one committed ingest produced.
type IngestStats struct {
	Accepted       int
	Fragments      int
	TotalFragments int
}

// Session is one isolated clustering tenant: a road network, the
// ingested dataset, a single-flight clustering pipeline, a distance
// cache, a durability namespace, and degraded-mode state. All methods
// are safe for concurrent use; ingest is serialized internally.
type Session struct {
	name string
	g    *roadnet.Graph
	cfg  Config

	// snap is the published read state. Readers Load it and never
	// block; ingest builds the successor under ingestMu and Stores it
	// after the commit (including the WAL append) succeeded.
	snap atomic.Pointer[Snapshot]

	// ingestMu serializes ingest, recovery replay, checkpointing, and
	// Close. It guards every field below it. Readers never take it.
	ingestMu   sync.Mutex
	seenIDs    map[traj.ID]struct{}
	fragments  []traj.TFragment // live backing array; published views are prefixes
	trajs      []traj.Trajectory
	version    uint64
	closed     bool
	recovering bool
	store      *persist.Store
	lastCkpt   uint64
	recovered  uint64

	// One partitioner per data node; a channel semaphore since
	// partitioners are not concurrency-safe.
	nodes chan *traj.Partitioner

	// The session's single-flight clustering pipeline (a Pipeline is
	// not safe for concurrent use; the chan lets a waiter abandon the
	// wait on context expiry). Sharing one instance per session keeps
	// its graph-partition cache warm across requests when Shards is on.
	pipeSem  chan struct{}
	pipeline *neat.Pipeline

	// guard is the session's isolation layer: rate limits, AIMD
	// admission (the successor of the static inflight semaphore),
	// circuit breaker, and watchdog. Never nil.
	guard *guard.Guard

	// distCache memoizes junction-pair network distances across this
	// session's clustering requests; nil when CacheEntries < 0.
	distCache *distcache.Cache

	// lastGood holds, per parameter combination, the most recent
	// successfully computed clustering response regardless of version —
	// the degraded-mode state served (flagged stale) when a fresh
	// clustering cannot be computed in time.
	lastGoodMu sync.Mutex
	lastGood   map[string]any

	// Degraded-mode bookkeeping surfaced in /v1/stats.
	degMu         sync.Mutex
	lastIngestErr string
	staleServed   atomic.Int64

	m Metrics
}

// New creates a Session named name over g, recovering its dataset from
// cfg.Persist's directory when set.
func New(name string, g *roadnet.Graph, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults(name)
	s := &Session{
		name:     name,
		g:        g,
		cfg:      cfg,
		seenIDs:  make(map[traj.ID]struct{}),
		lastGood: make(map[string]any),
		nodes:    make(chan *traj.Partitioner, cfg.DataNodes),
		pipeSem:  make(chan struct{}, 1),
	}
	s.snap.Store(&Snapshot{})
	gcfg := cfg.Guard
	if gcfg.Limits.MaxConcurrency == 0 {
		// Back-compat: the static per-session inflight cap becomes the
		// AIMD ceiling (<= 0 stays unbounded, as before).
		gcfg.Limits.MaxConcurrency = cfg.MaxInflight
	}
	s.guard = guard.New(gcfg)
	s.guard.Instrument(cfg.Obs, cfg.Label)
	for i := 0; i < cfg.DataNodes; i++ {
		s.nodes <- traj.NewPartitioner(g, shortest.New(g, nil))
	}
	s.pipeline = neat.NewPipeline(g)
	s.pipeline.Instrument(cfg.Obs)
	if cfg.CacheEntries >= 0 {
		s.distCache = distcache.NewShared(cfg.CacheEntries, cfg.Budget)
		s.distCache.Instrument(cfg.Obs, cfg.Label)
		s.distCache.InjectFaults(cfg.Fault)
	}
	cfg.Fault.Instrument(cfg.Obs)
	s.m = Metrics{
		CacheHits:      cfg.Obs.Counter("server_cache_hits_total", cfg.Label),
		CacheMisses:    cfg.Obs.Counter("server_cache_misses_total", cfg.Label),
		IngestTrajs:    cfg.Obs.Counter("server_ingest_trajectories_total", cfg.Label),
		IngestFrags:    cfg.Obs.Counter("server_ingest_fragments_total", cfg.Label),
		IngestRejected: cfg.Obs.Counter("server_ingest_rejected_total", cfg.Label),
		StaleServed:    cfg.Obs.Counter("server_stale_served_total", cfg.Label),

		ShedSessionSlot: cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "session_slot")),
		ShedRateLimit:   cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "rate_limit")),
		ShedPointBudget: cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "point_budget")),
		ShedQuarantined: cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "quarantined")),
	}
	if cfg.Persist != nil {
		o := *cfg.Persist
		if o.Obs == nil {
			o.Obs = cfg.Obs
		}
		if o.Label == (obs.Label{}) {
			o.Label = cfg.Label
		}
		if o.Fault == nil {
			o.Fault = cfg.Fault
		}
		store, err := persist.Open(o)
		if err != nil {
			return nil, fmt.Errorf("session %q: open persistence: %w", name, err)
		}
		s.store = store
		if err := s.recover(); err != nil {
			store.Close()
			return nil, fmt.Errorf("session %q: recover: %w", name, err)
		}
	}
	return s, nil
}

// Name returns the session's registry name.
func (s *Session) Name() string { return s.name }

// Graph returns the session's road network.
func (s *Session) Graph() *roadnet.Graph { return s.g }

// Cache returns the session's distance cache (nil when disabled).
func (s *Session) Cache() *distcache.Cache { return s.distCache }

// Injector returns the session's fault injector (possibly nil; the
// fault package is nil-safe throughout).
func (s *Session) Injector() *fault.Injector { return s.cfg.Fault }

// Metrics returns the session's metric handles.
func (s *Session) Metrics() *Metrics { return &s.m }

// MaxBatch returns the per-ingest trajectory cap.
func (s *Session) MaxBatch() int { return s.cfg.MaxBatch }

// Workers returns the Phase 3 refinement worker configuration.
func (s *Session) Workers() int { return s.cfg.Workers }

// Shards returns the road-network shard configuration.
func (s *Session) Shards() int { return s.cfg.Shards }

// Current returns the published snapshot. It never blocks and never
// observes a partially committed ingest; before the first ingest it is
// the empty snapshot (Version 0).
func (s *Session) Current() *Snapshot { return s.snap.Load() }

// Acquire takes a per-session admission slot from the guard's AIMD
// window, giving up when ctx expires (false = shed this request). A
// shed is a congestion signal: the window halves, so a tenant whose
// requests keep timing out in the queue shrinks its own footprint
// instead of monopolizing the shared inflight budget. A no-op true
// when the session has no concurrency bound. Pair with Release.
func (s *Session) Acquire(ctx context.Context) bool {
	if err := s.guard.Acquire(ctx); err != nil {
		s.guard.OnCongestion()
		return false
	}
	return true
}

// Release returns the slot taken by a successful Acquire.
func (s *Session) Release() { s.guard.Release() }

// Guard exposes the session's isolation layer (never nil).
func (s *Session) Guard() *guard.Guard { return s.guard }

// Quarantined reports whether the session's breaker currently rejects
// writes (reads are still served, flagged stale).
func (s *Session) Quarantined() bool { return s.guard.Breaker().Quarantined() }

// RunPlan executes plan over in on the session's single-flight
// pipeline. Waiting for the pipeline observes ctx, so a request whose
// deadline expires while queued degrades instead of blocking.
func (s *Session) RunPlan(ctx context.Context, plan *neat.Plan, in neat.Input) (*neat.Result, error) {
	select {
	case s.pipeSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.pipeSem }()
	return s.pipeline.RunPlanCtx(ctx, plan, in)
}

// Ingest commits one batch: ids[i] names the trajectory convert(i)
// yields (the two-step shape lets the server convert wire DTOs inside
// the data-node pool without this package knowing about DTOs; WAL
// replay passes identity converts). The whole batch commits atomically
// or not at all: duplicate ids, a conversion/partition error, context
// expiry, or a WAL append failure leave the session exactly as it was
// and publish nothing. On success the new snapshot is visible to
// readers before Ingest returns.
func (s *Session) Ingest(ctx context.Context, ids []traj.ID, convert func(int) (traj.Trajectory, error)) (IngestStats, error) {
	br := s.guard.Breaker()
	decision, retry := br.Allow()
	if decision == guard.Reject {
		return IngestStats{}, &guard.QuarantinedError{Session: s.name, RetryAfter: retry}
	}
	st, err := s.ingestContained(ctx, ids, convert)
	if err != nil {
		s.m.IngestRejected.Inc()
	}
	if breakerFailure(err) {
		br.Failure()
	} else if br.Success() {
		// The breaker just closed after its probe sequence: rebuild the
		// session from checkpoint + WAL replay so whatever a fault storm
		// left behind in memory is discarded and the healed state is
		// byte-identical to a never-faulted run over the same log.
		s.healFromWAL()
	}
	return st, err
}

// breakerFailure classifies an ingest error for the circuit breaker:
// infrastructure faults (injected failures, contained panics, watchdog
// abandonment, a WAL that will not accept writes) count toward the
// trip threshold; client mistakes (duplicates, validation errors) and
// the client's own context expiry say nothing about session health and
// instead count as successes, clearing the consecutive-failure run.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	var pe *guard.PanicError
	return fault.IsInjected(err) ||
		errors.As(err, &pe) ||
		errors.Is(err, guard.ErrStuck) ||
		errors.Is(err, ErrNotDurable)
}

// ingestContained runs one locked ingest under the guard's containment
// layer: a panic anywhere in the ingest path is recovered, the
// partially applied batch rolled back, and the panic converted into a
// typed *guard.PanicError; a watchdog deadline (when configured)
// bounds how long the pipeline may stall while the client still waits.
func (s *Session) ingestContained(ctx context.Context, ids []traj.ID, convert func(int) (traj.Trajectory, error)) (st IngestStats, err error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	wctx := ctx
	if d := s.guard.Watchdog(); d > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// Rollback bookkeeping for panic containment. wasSeen records which
	// ids were already present at entry: a panic can fire before the
	// duplicate check, so blind deletion would unregister trajectories
	// committed by earlier batches.
	savedVersion := s.version
	savedFrags, savedTrajs := len(s.fragments), len(s.trajs)
	wasSeen := make([]bool, len(ids))
	for i, id := range ids {
		_, wasSeen[i] = s.seenIDs[id]
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.guard.NotePanic()
		// If the batch already published (the panic fired after the
		// commit completed), the state is consistent and durable: keep
		// it. Otherwise roll back every partial mutation.
		if s.snap.Load().Version == savedVersion {
			for i, id := range ids {
				if !wasSeen[i] {
					delete(s.seenIDs, id)
				}
			}
			s.fragments = s.fragments[:savedFrags]
			s.trajs = s.trajs[:savedTrajs]
			s.version = savedVersion
		}
		st = IngestStats{}
		err = &guard.PanicError{Value: r, Stack: debug.Stack()}
		s.setIngestHealth(err)
	}()

	st, err = s.ingestLocked(wctx, ids, convert)
	if err != nil && wctx.Err() != nil && ctx.Err() == nil {
		// The watchdog expired, not the client: the ingest was stuck.
		s.guard.NoteStuck()
		err = fmt.Errorf("%w: %v", guard.ErrStuck, err)
		s.setIngestHealth(err)
	}
	return st, err
}

func (s *Session) ingestLocked(ctx context.Context, ids []traj.ID, convert func(int) (traj.Trajectory, error)) (IngestStats, error) {
	if s.closed {
		return IngestStats{}, ErrClosed
	}
	if !s.recovering {
		// WAL replay must not draw from the fault stream: replayed
		// ingests already "happened".
		s.cfg.Fault.Sleep(fault.Ingest)
		if err := s.cfg.Fault.Inject(fault.Ingest); err != nil {
			s.setIngestHealth(err)
			return IngestStats{}, err
		}
		if s.cfg.Fault.Hit(fault.IngestPanic) {
			// Deliberately a raw panic: the containment layer in
			// ingestContained must catch it, roll back, and convert it
			// into a typed error. (Hit consumes no rng draws unless the
			// point is configured, so existing seeded scenarios see an
			// unchanged decision stream.)
			panic(fmt.Sprintf("fault: injected %s", fault.IngestPanic))
		}
	}
	// Reject duplicate trajectory ids up front: downstream structures
	// (netflow, the spatio-temporal index) key by trid. Ingest is
	// serialized, so this single check is authoritative.
	batch := make(map[traj.ID]struct{}, len(ids))
	for _, id := range ids {
		if _, ok := s.seenIDs[id]; ok {
			return IngestStats{}, &DuplicateError{ID: id}
		}
		if _, ok := batch[id]; ok {
			return IngestStats{}, &DuplicateError{ID: id, InBatch: true}
		}
		batch[id] = struct{}{}
	}
	frags, trajs, err := s.preprocess(ctx, len(ids), convert)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.setIngestHealth(err)
		}
		return IngestStats{}, err
	}
	// Commit. The appends write only indices at or beyond every
	// published snapshot's view (or a fresh array after reallocation),
	// so readers of prior snapshots are unaffected.
	for id := range batch {
		s.seenIDs[id] = struct{}{}
	}
	s.fragments = append(s.fragments, frags...)
	s.trajs = append(s.trajs, trajs...)
	s.version++
	// The batch is committed in memory; make it durable before
	// acknowledging (and before publishing — readers must never see a
	// batch the log does not hold). An append failure rolls the whole
	// commit back so the client can retry.
	if s.store != nil && !s.recovering {
		if err := s.store.AppendBatch(s.version-1, traj.Dataset{Trajectories: trajs}); err != nil {
			for id := range batch {
				delete(s.seenIDs, id)
			}
			s.fragments = s.fragments[:len(s.fragments)-len(frags)]
			s.trajs = s.trajs[:len(s.trajs)-len(trajs)]
			s.version--
			s.setIngestHealth(err)
			return IngestStats{}, fmt.Errorf("%w: %v", ErrNotDurable, err)
		}
	}
	s.publishLocked()
	if s.store != nil && !s.recovering {
		if every := s.store.CheckpointEvery(); every > 0 && s.version-s.lastCkpt >= uint64(every) {
			// Best-effort: a failed checkpoint only delays WAL
			// compaction; the error surfaces in the stats persistence
			// block.
			_ = s.checkpointLocked()
		}
	}
	s.setIngestHealth(nil)
	if !s.recovering {
		s.m.IngestTrajs.Add(int64(len(trajs)))
		s.m.IngestFrags.Add(int64(len(frags)))
	}
	return IngestStats{
		Accepted:       len(trajs),
		Fragments:      len(frags),
		TotalFragments: len(s.fragments),
	}, nil
}

// publishLocked freezes the live dataset into a new Snapshot and
// publishes it. The three-index views prevent any snapshot consumer's
// own append from writing into the shared backing arrays.
func (s *Session) publishLocked() {
	s.snap.Store(&Snapshot{
		Version:   s.version,
		Fragments: s.fragments[:len(s.fragments):len(s.fragments)],
		Trajs:     s.trajs[:len(s.trajs):len(s.trajs)],
	})
}

// Preprocess shards trajectory conversion and t-fragment extraction
// across the data nodes: convert(i) produces trajectory i, a
// partitioner cuts it. Output preserves index order so ingestion stays
// deterministic; the context is observed before each trajectory is
// claimed, so an expired request stops promptly (all goroutines are
// always joined) and reports the ctx error. Exported for tests; Ingest
// is the transactional entry point.
func (s *Session) Preprocess(ctx context.Context, n int, convert func(int) (traj.Trajectory, error)) ([]traj.TFragment, []traj.Trajectory, error) {
	return s.preprocess(ctx, n, convert)
}

func (s *Session) preprocess(ctx context.Context, n int, convert func(int) (traj.Trajectory, error)) ([]traj.TFragment, []traj.Trajectory, error) {
	type result struct {
		tr    traj.Trajectory
		frags []traj.TFragment
		err   error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	sem := s.nodes
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				// A panic in a data-node worker (a hostile convert, a
				// corrupt trajectory) must not kill the process: contain
				// it to this trajectory's slot as a typed error.
				if r := recover(); r != nil {
					results[i] = result{err: &guard.PanicError{Value: r, Stack: debug.Stack()}}
				}
			}()
			node := <-sem
			defer func() { sem <- node }()
			if err := ctx.Err(); err != nil {
				results[i] = result{err: err}
				return
			}
			tr, err := convert(i)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			frags, err := node.Partition(tr)
			results[i] = result{tr: tr, frags: frags, err: err}
		}(i)
	}
	wg.Wait()
	// Deterministic error selection: ctx expiry first, else the first
	// trajectory (in request order) that failed.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var out []traj.TFragment
	var trajs []traj.Trajectory
	for _, res := range results {
		if res.err != nil {
			return nil, nil, res.err
		}
		out = append(out, res.frags...)
		trajs = append(trajs, res.tr)
	}
	return out, trajs, nil
}

// recover restores the dataset from the newest valid checkpoint and
// re-runs the WAL tail through the normal ingest path (sharded
// t-fragment extraction, which is deterministic), so the recovered
// fragment set is byte-identical to the one the session held when each
// batch was first acknowledged.
func (s *Session) recover() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.recoverLocked(false)
}

// recoverLocked rebuilds the dataset from checkpoint + WAL with
// ingestMu held. reload selects the checkpoint source: false reads the
// payload cached at Open (boot-time recovery), true re-reads the
// newest checkpoint from disk (a mid-life heal, where Open's payload
// has long been superseded by periodic checkpoints that compacted the
// WAL under it).
func (s *Session) recoverLocked(reload bool) error {
	ckpt := s.store.Checkpoint
	if reload {
		ckpt = s.store.ReloadCheckpoint
	}
	if seq, payload, ok := ckpt(); ok {
		st, err := persist.DecodeServerState(payload)
		if err != nil {
			return fmt.Errorf("checkpoint seq %d: %w", seq, err)
		}
		s.trajs = st.Trajs
		s.fragments = st.Fragments
		s.version = st.Batches
		s.lastCkpt = st.Batches
		for _, tr := range st.Trajs {
			s.seenIDs[tr.ID] = struct{}{}
		}
	}
	s.recovering = true
	defer func() { s.recovering = false }()
	err := s.store.Replay(s.version, func(seq uint64, ds traj.Dataset) error {
		if seq != s.version {
			return fmt.Errorf("wal gap: expected batch %d, log has %d", s.version, seq)
		}
		ids := make([]traj.ID, len(ds.Trajectories))
		for i, tr := range ds.Trajectories {
			ids[i] = tr.ID
		}
		if _, err := s.ingestLocked(context.Background(), ids, func(i int) (traj.Trajectory, error) {
			return ds.Trajectories[i], nil
		}); err != nil {
			return fmt.Errorf("replay batch %d: %w", seq, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.recovered = s.version
	s.publishLocked()
	return nil
}

// healFromWAL rebuilds the session's entire in-memory state from its
// newest checkpoint plus full WAL replay. The breaker calls this once
// its probe sequence closes it: whatever inconsistency a fault storm,
// panic, or stuck pipeline left in memory is discarded wholesale, and
// because every acknowledged batch is in the log (and only
// acknowledged batches are — failed appends roll back before the ack),
// the rebuilt state is byte-identical to a session that never faulted.
// In-memory sessions have no log to heal from and keep their state. A
// failed rebuild restores the pre-heal state rather than losing
// acknowledged data, and leaves the error in the health block.
func (s *Session) healFromWAL() {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.store == nil || s.closed {
		return
	}
	oldSeen, oldFrags, oldTrajs := s.seenIDs, s.fragments, s.trajs
	oldVersion, oldCkpt := s.version, s.lastCkpt
	s.seenIDs = make(map[traj.ID]struct{})
	s.fragments, s.trajs = nil, nil
	s.version, s.lastCkpt = 0, 0
	if err := s.recoverLocked(true); err != nil {
		s.seenIDs, s.fragments, s.trajs = oldSeen, oldFrags, oldTrajs
		s.version, s.lastCkpt = oldVersion, oldCkpt
		s.publishLocked()
		s.setIngestHealth(fmt.Errorf("heal replay failed, serving pre-heal state: %v", err))
	}
}

// checkpointLocked persists the full dataset as of the current batch
// sequence; ingestMu held (the snapshot-encoding read is consistent by
// construction).
func (s *Session) checkpointLocked() error {
	st := persist.ServerState{Batches: s.version, Trajs: s.trajs, Fragments: s.fragments}
	if err := s.store.WriteCheckpoint(st.Batches, persist.EncodeServerState(st)); err != nil {
		return err
	}
	if st.Batches > s.lastCkpt {
		s.lastCkpt = st.Batches
	}
	return nil
}

// Close shuts the session down: further ingests fail with ErrClosed,
// and with durability enabled a final checkpoint covering every
// acknowledged batch is written before the WAL is flushed and closed.
// Read accessors keep serving the final snapshot. Idempotent.
func (s *Session) Close() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.store == nil {
		return nil
	}
	var err error
	if s.version > s.lastCkpt {
		err = s.checkpointLocked()
	}
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the durability layer without flushing or checkpointing
// — the process-internal equivalent of kill -9, for crash-recovery
// tests.
func (s *Session) Abort() {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.closed = true
	if s.store != nil {
		s.store.Abort()
	}
}

// Durable reports whether the session has a persistence store.
func (s *Session) Durable() bool { return s.store != nil }

// PersistStats snapshots the durability layer's counters; the zero
// Stats when persistence is disabled.
func (s *Session) PersistStats() persist.Stats {
	if s.store == nil {
		return persist.Stats{}
	}
	return s.store.Stats()
}

// RecoveredBatches reports how many acknowledged ingest batches New
// restored (checkpoint plus WAL replay); 0 for an in-memory session or
// a fresh namespace.
func (s *Session) RecoveredBatches() uint64 { return s.recovered }

// LastGood returns the degraded-mode response stored under key.
func (s *Session) LastGood(key string) (any, bool) {
	s.lastGoodMu.Lock()
	defer s.lastGoodMu.Unlock()
	v, ok := s.lastGood[key]
	return v, ok
}

// SetLastGood stores the most recent successfully computed response
// for key (bounded like the result cache).
func (s *Session) SetLastGood(key string, v any) {
	s.lastGoodMu.Lock()
	if len(s.lastGood) >= maxResults {
		s.lastGood = make(map[string]any)
	}
	s.lastGood[key] = v
	s.lastGoodMu.Unlock()
}

// NoteStale counts one degraded-mode response served from last-good.
func (s *Session) NoteStale() {
	s.staleServed.Add(1)
	s.m.StaleServed.Inc()
}

// StaleServed returns the degraded-mode response count.
func (s *Session) StaleServed() int64 { return s.staleServed.Load() }

// Health reports the ingest path's degradation state: degraded is true
// while the most recent ingest attempt failed (fault or timeout), with
// the error text; the next successful ingest clears it.
func (s *Session) Health() (degraded bool, lastErr string) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	return s.lastIngestErr != "", s.lastIngestErr
}

func (s *Session) setIngestHealth(err error) {
	s.degMu.Lock()
	if err != nil {
		s.lastIngestErr = err.Error()
	} else {
		s.lastIngestErr = ""
	}
	s.degMu.Unlock()
}
