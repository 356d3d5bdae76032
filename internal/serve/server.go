package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nassim/internal/obsreport"
	"nassim/internal/telemetry"
)

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_serve_requests_total", "Admitted serve requests, by outcome (miss, inflight, cache, shed, draining, invalid).")
	reg.SetHelp("nassim_serve_executions_total", "Pipeline executions the serve queue dispatched.")
	reg.SetHelp("nassim_serve_queue_depth", "Current serve queue depth.")
	reg.SetHelp("nassim_serve_inflight", "Jobs currently queued or executing.")
	reg.SetHelp("nassim_serve_request_seconds", "Wall time from admission to response, per request.")
}

// Admission errors. The HTTP layer maps ErrDraining to 503 and the
// other three to 429 with a Retry-After header.
var (
	ErrDraining    = errors.New("serve: server is draining")
	ErrQueueFull   = errors.New("serve: job queue full")
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
	ErrQuota       = errors.New("serve: tenant in-flight quota exceeded")
)

// Dedup provenance values, sent as the X-Nassim-Dedup header: "miss"
// executed the pipeline, "inflight" attached to a running job, "cache"
// re-served stored bytes.
const (
	DedupMiss     = "miss"
	DedupInflight = "inflight"
	DedupCache    = "cache"
)

// StageObserver observes actual pipeline stage executions: called
// before a stage executes, and the returned func (which may be nil) runs
// when the execution finishes. It mirrors nassim.Options.StageHook with
// plain strings so the server does not depend on pipeline stage types.
type StageObserver func(vendor, stage string) func()

// Runner executes one normalized request and returns the encoded
// response document. The default runner (NewRunner) drives
// nassim.AssimilateInputs; tests substitute counting or blocking runners.
type Runner func(ctx context.Context, req Request, observe StageObserver) ([]byte, error)

// Config tunes a Server. The zero value serves with 2 workers, a
// 16-deep queue, no rate limiting, and a 1024-result cache.
type Config struct {
	// Workers is the job worker pool size; QueueDepth bounds the backlog
	// behind it. A submit that finds the queue full is shed with 429.
	Workers    int
	QueueDepth int
	// RatePerSec and Burst configure the per-tenant token bucket;
	// RatePerSec <= 0 disables rate limiting. MaxInflight caps how many
	// unfinished jobs one tenant may be attached to (0 = unlimited).
	RatePerSec  float64
	Burst       int
	MaxInflight int
	// RetryAfter is the hint returned with shed requests (default 1s).
	RetryAfter time.Duration
	// MaxResults bounds the completed-result byte cache (FIFO eviction).
	MaxResults int
	// Runner executes requests; required.
	Runner Runner
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 1024
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	return c
}

// Event is one item of a job's progress stream.
type Event struct {
	// Type is queued, started, stage, stage_done, done, or error.
	Type   string `json:"type"`
	Seq    int    `json:"seq"`
	Vendor string `json:"vendor,omitempty"`
	Stage  string `json:"stage,omitempty"`
	Err    string `json:"err,omitempty"`
}

// job is one in-flight pipeline execution plus everyone watching it.
type job struct {
	key string
	req Request

	mu     sync.Mutex
	seq    int
	events []Event       // replay buffer for late subscribers
	subs   []chan Event  // live subscribers (non-blocking sends)
	done   chan struct{} // closed after result/err are set
	result []byte
	err    error

	// tenants holds one entry per attached request; their in-flight
	// quotas release when the job completes.
	tenants []string
}

func (j *job) broadcast(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	ev.Seq = j.seq
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			// A slow subscriber drops events; completion is signaled by
			// the done channel, so nothing is lost that matters.
		}
	}
}

// subscribe returns the replay of everything broadcast so far plus a
// live channel, and a cancel func that detaches the channel.
func (j *job) subscribe() ([]Event, <-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := append([]Event(nil), j.events...)
	ch := make(chan Event, 64)
	j.subs = append(j.subs, ch)
	cancel := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
	return replay, ch, cancel
}

// tenantState is one tenant's token bucket and in-flight count.
type tenantState struct {
	tokens   float64
	last     time.Time
	inflight int
}

// Server is the singleflight serving core: request keys map to at most
// one running job; completed results serve from a byte cache with zero
// JSON work on the warm path; a bounded queue with per-tenant admission
// control shields the worker pool.
type Server struct {
	cfg Config

	mu        sync.Mutex
	flight    map[string]*job   // key -> running or queued job
	done      map[string][]byte // key -> completed response bytes
	doneOrder []string          // FIFO eviction order for done
	tenants   map[string]*tenantState
	queue     chan *job
	draining  bool

	wg        sync.WaitGroup
	collector *obsreport.Collector
	started   time.Time

	// stats
	requests      atomic.Int64
	executions    atomic.Int64
	dedupInflight atomic.Int64
	dedupCached   atomic.Int64
	shed          atomic.Int64
	failures      atomic.Int64
	queueMax      atomic.Int64

	mQueueDepth *telemetry.Gauge
	mInflight   *telemetry.Gauge
	mLatency    *telemetry.Histogram
}

// NewServer starts the worker pool. Callers must Shutdown the server to
// stop it.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Runner == nil {
		return nil, fmt.Errorf("serve: Config.Runner is required")
	}
	s := &Server{
		cfg:         cfg,
		flight:      map[string]*job{},
		done:        map[string][]byte{},
		tenants:     map[string]*tenantState{},
		queue:       make(chan *job, cfg.QueueDepth),
		collector:   obsreport.NewCollector(),
		started:     time.Now(),
		mQueueDepth: telemetry.GetGauge("nassim_serve_queue_depth"),
		mInflight:   telemetry.GetGauge("nassim_serve_inflight"),
		mLatency: telemetry.GetHistogram("nassim_serve_request_seconds",
			[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mQueueDepth.Dec()
		s.executions.Add(1)
		telemetry.GetCounter("nassim_serve_executions_total").Inc()
		j.broadcast(Event{Type: "started"})
		observe := func(vendor, stage string) func() {
			j.broadcast(Event{Type: "stage", Vendor: vendor, Stage: stage})
			return func() { j.broadcast(Event{Type: "stage_done", Vendor: vendor, Stage: stage}) }
		}
		// Jobs run to completion even during drain: Shutdown closes the
		// queue but lets the backlog finish, so every admitted request
		// gets an answer.
		result, err := s.cfg.Runner(context.Background(), j.req, observe)
		s.complete(j, result, err)
	}
}

// complete publishes a job's outcome: successful results enter the
// byte cache, failures do not (so a later identical request re-runs),
// and every attached tenant's in-flight quota releases.
func (s *Server) complete(j *job, result []byte, err error) {
	s.mu.Lock()
	delete(s.flight, j.key)
	if err == nil {
		if _, ok := s.done[j.key]; !ok {
			s.done[j.key] = result
			s.doneOrder = append(s.doneOrder, j.key)
			for len(s.doneOrder) > s.cfg.MaxResults {
				evict := s.doneOrder[0]
				s.doneOrder = s.doneOrder[1:]
				delete(s.done, evict)
			}
		}
	} else {
		s.failures.Add(1)
	}
	for _, tenant := range j.tenants {
		if ts := s.tenants[tenant]; ts != nil && ts.inflight > 0 {
			ts.inflight--
		}
	}
	s.mu.Unlock()
	s.mInflight.Dec()

	j.mu.Lock()
	j.result, j.err = result, err
	j.mu.Unlock()
	if err != nil {
		j.broadcast(Event{Type: "error", Err: err.Error()})
	} else {
		j.broadcast(Event{Type: "done"})
	}
	close(j.done)
}

// admitTenant applies the token bucket and in-flight quota. Caller
// holds s.mu. wantsSlot is false for requests that will be answered
// immediately from the result cache.
func (s *Server) admitTenant(tenant string, wantsSlot bool) error {
	ts := s.tenants[tenant]
	if ts == nil {
		ts = &tenantState{tokens: float64(s.cfg.Burst), last: time.Now()}
		s.tenants[tenant] = ts
	}
	if s.cfg.RatePerSec > 0 {
		now := time.Now()
		ts.tokens += now.Sub(ts.last).Seconds() * s.cfg.RatePerSec
		if max := float64(s.cfg.Burst); ts.tokens > max {
			ts.tokens = max
		}
		ts.last = now
		if ts.tokens < 1 {
			return ErrRateLimited
		}
		ts.tokens--
	}
	if wantsSlot && s.cfg.MaxInflight > 0 && ts.inflight >= s.cfg.MaxInflight {
		return ErrQuota
	}
	return nil
}

// Ticket is an admitted request: either an immediate cache hit
// (Result already set) or a handle on a live job.
type Ticket struct {
	Key   string
	Dedup string
	job   *job
	bytes []byte
	srv   *Server
	t0    time.Time
}

// Wait blocks until the result is available or ctx is done.
func (t *Ticket) Wait(ctx context.Context) ([]byte, error) {
	if t.job == nil {
		t.srv.mLatency.Observe(time.Since(t.t0).Seconds())
		return t.bytes, nil
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.job.done:
		t.srv.mLatency.Observe(time.Since(t.t0).Seconds())
		t.job.mu.Lock()
		defer t.job.mu.Unlock()
		return t.job.result, t.job.err
	}
}

// Events returns the job's progress replay plus a live channel, and a
// cancel func. Cache hits return a synthetic done event and a closed
// channel.
func (t *Ticket) Events() ([]Event, <-chan Event, func()) {
	if t.job == nil {
		ch := make(chan Event)
		close(ch)
		return []Event{{Type: "done", Seq: 1}}, ch, func() {}
	}
	return t.job.subscribe()
}

// Start admits a request: draining check, tenant admission, result
// cache, in-flight attach, then enqueue or shed — in that order. The
// returned Ticket resolves via Wait/Events.
func (s *Server) Start(req Request) (*Ticket, error) {
	if err := req.Check(); err != nil {
		telemetry.GetCounter("nassim_serve_requests_total", "outcome", "invalid").Inc()
		return nil, err
	}
	req = req.Normalize()
	key := req.Key()
	t0 := time.Now()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		telemetry.GetCounter("nassim_serve_requests_total", "outcome", "draining").Inc()
		return nil, ErrDraining
	}
	// Cache hits are answered immediately; they need a rate token but no
	// in-flight slot.
	if b, ok := s.done[key]; ok {
		if err := s.admitTenant(req.Tenant, false); err != nil {
			s.shed.Add(1)
			s.mu.Unlock()
			telemetry.GetCounter("nassim_serve_requests_total", "outcome", "shed").Inc()
			return nil, err
		}
		s.requests.Add(1)
		s.dedupCached.Add(1)
		s.mu.Unlock()
		telemetry.GetCounter("nassim_serve_requests_total", "outcome", DedupCache).Inc()
		return &Ticket{Key: key, Dedup: DedupCache, bytes: b, srv: s, t0: t0}, nil
	}
	if err := s.admitTenant(req.Tenant, true); err != nil {
		s.shed.Add(1)
		s.mu.Unlock()
		telemetry.GetCounter("nassim_serve_requests_total", "outcome", "shed").Inc()
		return nil, err
	}
	// Singleflight: attach to an identical in-flight job if one exists.
	if j, ok := s.flight[key]; ok {
		s.requests.Add(1)
		s.dedupInflight.Add(1)
		s.attachTenant(j, req.Tenant)
		s.mu.Unlock()
		telemetry.GetCounter("nassim_serve_requests_total", "outcome", DedupInflight).Inc()
		return &Ticket{Key: key, Dedup: DedupInflight, job: j, srv: s, t0: t0}, nil
	}
	// Miss: enqueue a new job, or shed if the queue is full. The send
	// happens under s.mu — the same mutex Shutdown holds while closing
	// the queue — so a send on a closed channel is impossible.
	j := &job{key: key, req: req, done: make(chan struct{})}
	select {
	case s.queue <- j:
	default:
		s.shed.Add(1)
		s.mu.Unlock()
		telemetry.GetCounter("nassim_serve_requests_total", "outcome", "shed").Inc()
		return nil, ErrQueueFull
	}
	s.flight[key] = j
	s.requests.Add(1)
	s.attachTenant(j, req.Tenant)
	if depth := int64(len(s.queue)); depth > s.queueMax.Load() {
		s.queueMax.Store(depth)
	}
	s.mu.Unlock()
	s.mQueueDepth.Inc()
	s.mInflight.Inc()
	telemetry.GetCounter("nassim_serve_requests_total", "outcome", DedupMiss).Inc()
	j.broadcast(Event{Type: "queued"})
	return &Ticket{Key: key, Dedup: DedupMiss, job: j, srv: s, t0: t0}, nil
}

// attachTenant records a tenant's interest in a job. Caller holds s.mu.
func (s *Server) attachTenant(j *job, tenant string) {
	j.tenants = append(j.tenants, tenant)
	if ts := s.tenants[tenant]; ts != nil {
		ts.inflight++
	}
}

// Submit is Start+Wait: the blocking request path.
func (s *Server) Submit(ctx context.Context, req Request) ([]byte, string, error) {
	t, err := s.Start(req)
	if err != nil {
		return nil, "", err
	}
	b, err := t.Wait(ctx)
	return b, t.Dedup, err
}

// Result returns a completed result's bytes from the cache.
func (s *Server) Result(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.done[key]
	return b, ok
}

// RetryAfter is the backoff hint for shed requests.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new submissions fail with ErrDraining
// immediately, queued and running jobs finish, and Shutdown returns
// when the worker pool has exited or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Stats is a point-in-time snapshot of the server's serving economy.
type Stats struct {
	Requests      int64 `json:"requests"`
	Executions    int64 `json:"executions"`
	DedupInflight int64 `json:"dedup_inflight"`
	DedupCached   int64 `json:"dedup_cached"`
	Shed          int64 `json:"shed"`
	Failures      int64 `json:"failures"`
	QueueMax      int64 `json:"queue_max"`
	Inflight      int   `json:"inflight"`
	CachedResults int   `json:"cached_results"`
	Tenants       int   `json:"tenants"`
	Workers       int   `json:"workers"`
	QueueDepth    int   `json:"queue_depth"`
	UptimeSec     int64 `json:"uptime_sec"`
}

// DedupHitRatio is the fraction of admitted requests answered without a
// fresh pipeline execution.
func (st Stats) DedupHitRatio() float64 {
	if st.Requests == 0 {
		return 0
	}
	return float64(st.DedupInflight+st.DedupCached) / float64(st.Requests)
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	inflight, cached, tenants := len(s.flight), len(s.done), len(s.tenants)
	s.mu.Unlock()
	return Stats{
		Requests:      s.requests.Load(),
		Executions:    s.executions.Load(),
		DedupInflight: s.dedupInflight.Load(),
		DedupCached:   s.dedupCached.Load(),
		Shed:          s.shed.Load(),
		Failures:      s.failures.Load(),
		QueueMax:      s.queueMax.Load(),
		Inflight:      inflight,
		CachedResults: cached,
		Tenants:       tenants,
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		UptimeSec:     int64(time.Since(s.started).Seconds()),
	}
}

// Manifest builds the daemon's run manifest: the standard observatory
// body (metrics delta, spans, cache economy since start) plus the Serve
// block.
func (s *Server) Manifest() *obsreport.Manifest {
	st := s.Stats()
	m := s.collector.Build(obsreport.RunInfo{Workers: s.cfg.Workers}, nil)
	m.Serve = &obsreport.ServeSummary{
		Requests:      st.Requests,
		Executions:    st.Executions,
		DedupInflight: st.DedupInflight,
		DedupCached:   st.DedupCached,
		DedupHitRatio: st.DedupHitRatio(),
		Shed:          st.Shed,
		QueueMax:      st.QueueMax,
		Workers:       st.Workers,
		QueueDepth:    st.QueueDepth,
		Tenants:       st.Tenants,
	}
	return m
}
