package device

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// ResilientOptions tunes DialResilient. Zero fields take defaults.
type ResilientOptions struct {
	// Retry is the per-exchange retry policy (DefaultRetryPolicy when
	// zero).
	Retry RetryPolicy
	// Breaker tunes the per-device circuit breaker.
	Breaker BreakerConfig
	// Seed drives backoff jitter; fixed seeds keep chaos runs
	// reproducible.
	Seed uint64
	// Dial, when set, replaces the default TCP DialContext with a custom
	// transport — the reconciler's net.Pipe fleets inject an in-process
	// dial here so device count is no longer bounded by the process's
	// file-descriptor limit. It must return a ready client (greeting
	// consumed, see NewClientConn); the addr passed to DialResilient then
	// serves only as the breaker identity and error label.
	Dial func(ctx context.Context) (*Client, error)
}

// maxEpochLines bounds the replayable enter chain. View nesting in real
// manuals is a handful of levels deep; the cap only guards a degenerate
// model.
const maxEpochLines = 1024

// ResilientClient is a device client hardened for flaky endpoints: it
// dials lazily, retries retryable exchange failures on a fresh connection
// with exponential backoff and jitter, fast-fails through a per-device
// circuit breaker, and — because a reconnected session restarts in the
// device's root view — replays the successfully executed command epoch
// (the EnterChain view navigation since the last "return") before
// retrying the failed line, so live validation resumes exactly where it
// left off.
//
// It implements the empirical package's Executor and ContextExecutor
// interfaces. Methods are serialized by an internal mutex: like the
// underlying CLI session, one client models one operator session.
type ResilientClient struct {
	addr    string
	policy  RetryPolicy
	breaker *Breaker
	dial    func(ctx context.Context) (*Client, error)

	mu      sync.Mutex
	cl      *Client
	rng     *rand.Rand
	epoch   []string // enter chain of the live session, one line per view level
	retries uint64   // lifetime count of counted (slept) retries, see Retries
	closed  bool
	// sleep is swappable in tests to avoid real backoff waits.
	sleep func(context.Context, time.Duration) error
}

// DialResilient returns a resilient client for addr. The connection is
// established lazily on the first exchange, so a dead device surfaces as
// exchange failures (and eventually an open breaker) rather than a
// constructor error.
func DialResilient(addr string, opts ResilientOptions) *ResilientClient {
	return &ResilientClient{
		addr:    addr,
		policy:  opts.Retry.withDefaults(),
		breaker: NewBreaker(addr, opts.Breaker),
		dial:    opts.Dial,
		rng:     rand.New(rand.NewPCG(opts.Seed, 0x5e5111e47)),
		sleep:   sleepCtx,
	}
}

// BreakerState exposes the circuit breaker's current state.
func (rc *ResilientClient) BreakerState() BreakerState { return rc.breaker.State() }

// Retries returns this client's lifetime count of counted retries (the ones
// that slept a backoff and incremented the retry telemetry). Fleet callers
// sample it around a probe to tell a clean success from one that needed
// reconnects, and to assert that settled-dead devices stop accruing retries.
func (rc *ResilientClient) Retries() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.retries
}

// Exec implements the Executor interface.
func (rc *ResilientClient) Exec(line string) (Response, error) {
	return rc.ExecContext(context.Background(), line)
}

// ExecContext sends one CLI line, retrying transient transport failures
// per the retry policy. An open breaker returns ErrBreakerOpen without
// touching the network.
func (rc *ResilientClient) ExecContext(ctx context.Context, line string) (Response, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.closed {
		return Response{}, errors.New("device: resilient client closed")
	}
	var lastErr error
	for attempt := 0; attempt < rc.policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return Response{}, err
		}
		if attempt > 0 {
			// A breaker the previous attempt just opened fast-fails here,
			// before the retry is counted or the backoff slept: a settled-dead
			// device costs its fleet one bounded half-open probe per cooldown,
			// not a retry-telemetry stream and a sleep per exchange.
			if rc.breaker.State() == BreakerOpen {
				return Response{}, fmt.Errorf("device: %s: %w", rc.addr, ErrBreakerOpen)
			}
			if rc.policy.Budget == 0 {
				break // lifetime retry budget spent
			}
			if rc.policy.Budget > 0 {
				rc.policy.Budget--
			}
			telRetries.Inc()
			rc.retries++
			if err := rc.sleep(ctx, rc.policy.backoff(attempt, rc.rng)); err != nil {
				return Response{}, err
			}
		}
		if err := rc.breaker.Allow(); err != nil {
			return Response{}, fmt.Errorf("device: %s: %w", rc.addr, err)
		}
		resp, err := rc.attempt(ctx, line)
		rc.breaker.Record(err)
		if err == nil {
			rc.noteLine(line, resp)
			return resp, nil
		}
		lastErr = err
		rc.dropConn()
		// A per-attempt deadline expiring is retryable as long as the
		// caller's own context is still live.
		if !Retryable(err) && !(errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil) {
			return Response{}, err
		}
	}
	return Response{}, fmt.Errorf("device: %s: retries exhausted: %w", rc.addr, lastErr)
}

// attempt runs one exchange under the per-attempt deadline, dialing and
// replaying the session epoch first when the connection is down.
func (rc *ResilientClient) attempt(ctx context.Context, line string) (Response, error) {
	actx := ctx
	if rc.policy.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rc.policy.AttemptTimeout)
		defer cancel()
	}
	if rc.cl == nil {
		var cl *Client
		var err error
		if rc.dial != nil {
			cl, err = rc.dial(actx)
		} else {
			cl, err = DialContext(actx, rc.addr)
		}
		if err != nil {
			return Response{}, err
		}
		rc.cl = cl
		if err := rc.replay(actx); err != nil {
			rc.dropConn()
			return Response{}, err
		}
	}
	start := time.Now()
	resp, err := rc.cl.ExecContext(actx, line)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	telExecAttempt(outcome).ObserveDuration(time.Since(start))
	return resp, err
}

// replay re-establishes the session's view stack on a fresh connection:
// navigate to the root, then re-issue the enter chain in order. The epoch
// holds only view-entering lines (noteLine keeps it in lockstep with the
// depth the device reports), so replay navigates without re-applying
// configuration side effects. Transport errors abort the attempt.
func (rc *ResilientClient) replay(ctx context.Context) error {
	if len(rc.epoch) == 0 {
		return nil
	}
	telReplays.Inc()
	if _, err := rc.cl.ExecContext(ctx, "return"); err != nil {
		return err
	}
	for _, l := range rc.epoch {
		if _, err := rc.cl.ExecContext(ctx, l); err != nil {
			return err
		}
	}
	return nil
}

// noteLine maintains the replay epoch — the enter chain from the root
// view to the session's current view — from the depth the device reports
// on each successful exchange: a line that deepened the stack is appended,
// navigation back up ("quit", "return") truncates to the reported depth,
// and commands that stay at the same depth are not recorded (the device's
// running config already holds their side effects; replaying them after a
// reconnect would duplicate state). Responses without a depth (DATA
// dumps) never alter the view stack.
func (rc *ResilientClient) noteLine(line string, resp Response) {
	if !resp.OK || resp.Depth < 0 {
		return
	}
	switch d := resp.Depth; {
	case d > len(rc.epoch) && len(rc.epoch) < maxEpochLines:
		rc.epoch = append(rc.epoch, line)
	case d < len(rc.epoch):
		rc.epoch = rc.epoch[:d]
	}
}

func (rc *ResilientClient) dropConn() {
	if rc.cl != nil {
		rc.cl.Close()
		rc.cl = nil
	}
}

// Close terminates the session; subsequent exchanges fail.
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.closed = true
	if rc.cl != nil {
		err := rc.cl.Close()
		rc.cl = nil
		return err
	}
	return nil
}
