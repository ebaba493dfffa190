// Package remote implements the paper's remote-inference extension (§5.1):
// a local client process acts as an RPC server for remote requests and
// transparently forwards them into the Paella dispatcher's shared-memory
// channels. Both ends use kernel-bypass networking in the paper (eRPC); the
// cost model here reflects that: a few µs of per-message CPU plus wire
// latency and bandwidth-limited tensor transfer.
//
// The gateway is fault-aware: ring-full submissions retry with seeded,
// jittered exponential backoff up to NetConfig.MaxAttempts; an optional
// NetConfig.RequestTimeout abandons (and cancels) requests the dispatcher
// never answered; and typed dispatcher failures (admission shed, kernel
// timeout, load failure) propagate back over the wire. All three surface as
// the error returned by Client.Wait.
package remote

import (
	"errors"
	"fmt"
	"math/rand"

	"paella/internal/core"
	"paella/internal/sim"
)

// Typed gateway-side failures, returned by Client.Wait. Dispatcher-side
// failures (core.ErrKernelTimeout etc.) pass through unchanged.
var (
	// ErrRingFull: the dispatcher's request ring stayed full through every
	// backoff attempt (NetConfig.MaxAttempts).
	ErrRingFull = errors.New("remote: submit retries exhausted (ring full)")
	// ErrGatewayTimeout: no response within NetConfig.RequestTimeout; the
	// gateway cancelled the request at the dispatcher and gave up.
	ErrGatewayTimeout = errors.New("remote: request timed out at gateway")
)

// NetConfig models the network between the remote client and the serving
// host, plus the gateway's retry/timeout policy.
type NetConfig struct {
	// RTT is the round-trip wire latency.
	RTT sim.Time
	// BytesPerNs is the link bandwidth (≈12.5 for 100 GbE).
	BytesPerNs float64
	// PerMsgCPU is the per-message CPU cost at each end (eRPC-class
	// kernel-bypass stacks spend ~1-2µs per message).
	PerMsgCPU sim.Time

	// RetryBase is the first backoff after a ring-full submit; subsequent
	// attempts double it, each with up-to-one-base of seeded jitter so
	// colliding gateways desynchronize (default 20µs).
	RetryBase sim.Time
	// MaxAttempts bounds submit attempts before the request fails with
	// ErrRingFull (default 8).
	MaxAttempts int
	// RequestTimeout, when positive, bounds the submit→response interval:
	// on expiry the gateway cancels the request at the dispatcher and the
	// client's Wait returns ErrGatewayTimeout. Zero disables the timeout.
	RequestTimeout sim.Time
	// Seed drives the retry jitter; runs with equal seeds are identical.
	Seed int64
}

// DefaultNet returns a 100 GbE kernel-bypass network: 10µs RTT, ~2µs of
// CPU per message end-to-end, 8 jittered submit attempts, no timeout.
func DefaultNet() NetConfig {
	return NetConfig{
		RTT:         10 * sim.Microsecond,
		BytesPerNs:  12.5,
		PerMsgCPU:   2 * sim.Microsecond,
		RetryBase:   20 * sim.Microsecond,
		MaxAttempts: 8,
	}
}

// transfer returns the one-way wire time for a message of the given size.
func (n NetConfig) transfer(bytes int) sim.Time {
	d := n.RTT / 2
	if n.BytesPerNs > 0 {
		d += sim.Time(float64(bytes) / n.BytesPerNs)
	}
	return d
}

// Gateway is the RPC server co-located with the dispatcher: it owns a
// local client connection and forwards remote requests into it. One
// gateway serves one remote client (mirroring the paper's per-client
// shared-memory regions).
type Gateway struct {
	env  *sim.Env
	net  NetConfig
	conn *core.ClientConn
	rng  *rand.Rand

	nextID  uint64
	pending map[uint64]*pendingReq
	// results holds the terminal error (nil on success) for each request
	// whose completion has fired, until the client's Wait collects it.
	results map[uint64]error
	// abandoned marks timed-out requests whose late completion or failure
	// must be swallowed rather than treated as unknown.
	abandoned map[uint64]bool
}

type pendingReq struct {
	outputBytes int
	done        *sim.Completion
}

// NewGateway connects a gateway to the dispatcher.
func NewGateway(env *sim.Env, d *core.Dispatcher, net NetConfig) *Gateway {
	g := &Gateway{
		env:       env,
		net:       net,
		conn:      d.Connect(),
		rng:       rand.New(rand.NewSource(net.Seed ^ 0x67617465)),
		pending:   make(map[uint64]*pendingReq),
		results:   make(map[uint64]error),
		abandoned: make(map[uint64]bool),
	}
	g.conn.OnComplete = g.onComplete
	g.conn.OnFailed = g.onFailed
	return g
}

func (g *Gateway) onComplete(reqID uint64) {
	if g.abandoned[reqID] {
		delete(g.abandoned, reqID)
		return
	}
	pr, ok := g.pending[reqID]
	if !ok {
		panic(fmt.Sprintf("remote: completion for unknown request %d", reqID))
	}
	delete(g.pending, reqID)
	g.results[reqID] = nil
	// Response: gateway CPU, then output tensor crosses the wire.
	g.env.After(g.net.PerMsgCPU+g.net.transfer(pr.outputBytes), pr.done.Fire)
}

// onFailed relays a typed dispatcher failure to the remote client. The
// error response is a small control message — no tensor payload.
func (g *Gateway) onFailed(reqID uint64, err error) {
	if g.abandoned[reqID] {
		delete(g.abandoned, reqID)
		return
	}
	g.fail(reqID, err)
}

// fail terminates a pending request with err and sends the (payload-free)
// error response over the wire.
func (g *Gateway) fail(reqID uint64, err error) {
	pr, ok := g.pending[reqID]
	if !ok {
		return
	}
	delete(g.pending, reqID)
	g.results[reqID] = err
	g.env.After(g.net.PerMsgCPU+g.net.transfer(0), pr.done.Fire)
}

// submit pushes the request into the dispatcher ring, backing off with
// seeded jitter while the ring is full. attempt is 1-based.
func (g *Gateway) submit(id uint64, modelName string, attempt int) {
	ok := g.conn.Submit(core.Request{
		ID:     id,
		Model:  modelName,
		Client: g.conn.ID,
		Submit: g.env.Now(),
	})
	if ok {
		return
	}
	max := g.net.MaxAttempts
	if max <= 0 {
		max = 8
	}
	if attempt >= max {
		g.fail(id, ErrRingFull)
		return
	}
	base := g.net.RetryBase
	if base <= 0 {
		base = 20 * sim.Microsecond
	}
	// Exponential backoff with up-to-one-base of seeded jitter: deterministic
	// per seed, desynchronized across gateways.
	backoff := base<<uint(attempt-1) + sim.Time(g.rng.Int63n(int64(base)))
	g.env.After(backoff, func() { g.submit(id, modelName, attempt+1) })
}

// Client is the remote inference client.
type Client struct {
	env *sim.Env
	gw  *Gateway

	// inflight holds each outstanding request's completion handle.
	inflight map[uint64]*sim.Completion
}

// NewClient returns a remote client bound to a gateway.
func NewClient(env *sim.Env, gw *Gateway) *Client {
	return &Client{env: env, gw: gw, inflight: make(map[uint64]*sim.Completion)}
}

// Predict submits a remote inference request for the named model with the
// given tensor sizes, returning a request handle. The input tensor is
// transferred over the wire before the gateway writes it into the
// dispatcher's shared-memory region.
func (c *Client) Predict(p *sim.Proc, modelName string, inputBytes, outputBytes int) uint64 {
	p.Sleep(c.gw.net.PerMsgCPU)
	g := c.gw
	g.nextID++
	id := g.nextID
	done := sim.NewCompletion(c.env)
	c.inflight[id] = done
	// Request crosses the wire, then the gateway forwards it locally.
	c.env.After(g.net.transfer(inputBytes), func() {
		g.pending[id] = &pendingReq{outputBytes: outputBytes, done: done}
		g.submit(id, modelName, 1)
		if to := g.net.RequestTimeout; to > 0 {
			g.env.After(to, func() {
				if _, live := g.pending[id]; live {
					// Abandon: cancel dispatcher-side work and swallow any
					// late completion it still produces.
					g.abandoned[id] = true
					g.conn.Cancel(id)
					g.fail(id, ErrGatewayTimeout)
				}
			})
		}
	})
	return id
}

// Wait blocks until the given request's response (or error response) has
// fully arrived, and returns the request's terminal error: nil on success,
// ErrRingFull/ErrGatewayTimeout from the gateway, or the dispatcher's typed
// failure (core.ErrKernelTimeout, core.ErrLoadFailed, ...).
func (c *Client) Wait(p *sim.Proc, id uint64) error {
	done, ok := c.inflight[id]
	if !ok {
		panic(fmt.Sprintf("remote: wait for unknown request %d", id))
	}
	p.Wait(done)
	delete(c.inflight, id)
	err := c.gw.results[id]
	delete(c.gw.results, id)
	return err
}
