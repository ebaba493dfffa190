// Package client implements the Paella client library (§5.1, §5.3): the
// predict/readResult API over the shared-memory rings, with three result
// wakeup protocols for the Figure 14 comparison:
//
//   - ProtocolHybrid (Paella's default): block on the almost-finished
//     interrupt, then poll for the completion — near-polling latency at a
//     fraction of the CPU.
//   - ProtocolPolling: spin from submission until the result arrives —
//     lowest latency, 100% CPU.
//   - ProtocolSocket: block until the completion is pushed over a Unix
//     socket — no polling CPU, but an extra kernel round trip of latency.
//
// The client runs on virtual time; its busy/idle accounting feeds the CPU
// utilization results.
package client

import (
	"fmt"

	"paella/internal/core"
	"paella/internal/metrics"
	"paella/internal/sim"
)

// Protocol selects the result-wakeup mechanism.
type Protocol int

const (
	// ProtocolHybrid is the interrupt-then-poll scheme of §5.3.
	ProtocolHybrid Protocol = iota
	// ProtocolPolling spins continuously for results.
	ProtocolPolling
	// ProtocolSocket blocks on a socket push for every result.
	ProtocolSocket
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtocolHybrid:
		return "hybrid"
	case ProtocolPolling:
		return "polling"
	case ProtocolSocket:
		return "socket"
	default:
		return "unknown"
	}
}

// The client-side costs. sendCost is client CPU to stage the input tensor
// in shared memory and write the request descriptor, recvCost client CPU
// to read the output tensor, and socketLatency the extra kernel/syscall
// latency of a socket delivery (ProtocolSocket only).
const (
	sendCost      = 1 * sim.Microsecond
	recvCost      = 1 * sim.Microsecond
	socketLatency = 12 * sim.Microsecond
)

// Client is one inference client bound to a dispatcher connection.
type Client struct {
	env   *sim.Env
	conn  *core.ClientConn
	proto Protocol

	nextID    uint64
	completed []uint64 // ready results, FIFO
	bells     int      // almost-finished signals not yet consumed
	almost    *sim.Cond
	complete  *sim.Cond

	busy      sim.Time
	startedAt sim.Time
}

// New attaches a client using wakeup protocol p to a dispatcher and
// installs the channel hooks.
func New(env *sim.Env, d *core.Dispatcher, p Protocol) *Client {
	c := &Client{
		env:       env,
		conn:      d.Connect(),
		proto:     p,
		almost:    sim.NewCond(env),
		complete:  sim.NewCond(env),
		startedAt: env.Now(),
	}
	c.conn.OnAlmostFinished = func(uint64) {
		c.bells++
		c.almost.Broadcast()
	}
	c.conn.OnComplete = func(id uint64) {
		c.completed = append(c.completed, id)
		c.complete.Broadcast()
	}
	return c
}

// Predict submits an inference request for the named model and returns its
// request id (the paella.predict call of §5.1). The input/output buffer is
// zero-copy shared memory, so the only client cost is staging the tensor.
// If the ring is full the client backs off and retries.
func (c *Client) Predict(p *sim.Proc, modelName string) uint64 {
	c.busy += sendCost
	p.Sleep(sendCost)
	c.nextID++
	id := c.nextID
	req := core.Request{ID: id, Model: modelName, Client: c.conn.ID, Submit: c.env.Now()}
	for !c.conn.Submit(req) {
		p.Sleep(10 * sim.Microsecond) // ring full: back off
	}
	return id
}

// Cancel aborts an outstanding request (§2.1's job-level preemption,
// possible only with software-defined scheduling). The request still
// produces a completion — marked cancelled in the server's records — so
// ReadResult accounting stays balanced.
func (c *Client) Cancel(id uint64) { c.conn.Cancel(id) }

// TryReadResult performs a non-blocking read (the NONBLOCK flag): it
// returns the first available completion, or ok=false (EAGAIN).
func (c *Client) TryReadResult() (id uint64, ok bool) {
	if len(c.completed) == 0 {
		return 0, false
	}
	return c.popResult(), true
}

func (c *Client) popResult() uint64 {
	id := c.completed[0]
	c.completed = c.completed[1:]
	c.busy += recvCost
	return id
}

// ReadResult blocks until a completion is available and returns its
// request id, using the configured wakeup protocol.
func (c *Client) ReadResult(p *sim.Proc) uint64 {
	switch c.proto {
	case ProtocolHybrid:
		for len(c.completed) == 0 {
			// Interrupt phase: sleep (no CPU) until an almost-finished
			// bell, consuming one pending bell if it already rang.
			if c.bells == 0 {
				p.WaitCond(c.almost)
				continue // re-check: the broadcast recorded a bell
			}
			c.bells--
			// Poll phase: burn CPU until the completion lands.
			t0 := c.env.Now()
			for len(c.completed) == 0 {
				p.WaitCond(c.complete)
			}
			c.busy += c.env.Now() - t0
		}
		return c.popResult()
	case ProtocolPolling:
		t0 := c.env.Now()
		for len(c.completed) == 0 {
			p.WaitCond(c.complete)
		}
		c.busy += c.env.Now() - t0
		return c.popResult()
	case ProtocolSocket:
		for len(c.completed) == 0 {
			p.WaitCond(c.complete)
		}
		// The completion crosses a socket: extra latency, no busy CPU.
		p.Sleep(socketLatency)
		return c.popResult()
	default:
		panic(fmt.Sprintf("client: unknown protocol %d", c.proto))
	}
}

// CPU returns the client's busy/span accounting since creation.
func (c *Client) CPU() metrics.CPUStats {
	return metrics.CPUStats{BusyNs: c.busy, Span: c.env.Now() - c.startedAt}
}
