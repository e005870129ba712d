// Package netagg is the networked aggregation tier: the paper's
// distributed monitoring scenario run as a real service. Site Agents
// ingest their local substream through the sharded columnar engine and
// periodically ship engine-merged snapshots — framed netproto messages
// over TCP — to an Aggregator that holds every agent's latest state,
// merges it into a global view, and answers Client queries for the
// union stream. Linearity does all the heavy lifting: a merged snapshot
// is a tiny linear function of a site's whole substream, so the
// aggregator's answers are (in the sketches' exact regimes)
// bit-identical to a single engine fed every site's stream — the same
// differential guarantee the engine and wire layers already pin, now
// across machines.
//
//	site stream ─▶ Agent[engine S shards] ──SNAPSHOT/ACK──▶ ┐
//	site stream ─▶ Agent[engine S shards] ──SNAPSHOT/ACK──▶ ├─ Aggregator ──ANSWER──▶ Client
//	site stream ─▶ Agent[engine S shards] ──SNAPSHOT/ACK──▶ ┘   (merged view,
//	                                                             per-agent state)
//
// # Incremental sync
//
// An agent's sync tick reads its engine's Generation() BEFORE
// marshaling; when the generation still equals the one the aggregator
// last ACKed, the tick ships NOTHING — no frame, no marshal, no merged
// view build. Quiet sites therefore cost the network nothing, which is
// the point of the bounded-deletion summaries: state only moves when
// it changed. Because snapshots carry full engine-merged state (not
// deltas), a re-send after a lost ACK or a reconnect REPLACES the
// agent's previous contribution on the aggregator instead of
// double-counting it — idempotency is what makes the retry loop safe.
//
// # Failure handling
//
// Agents own the reconnect story: dial failures and dead connections
// back off exponentially (BackoffMin doubling to BackoffMax), every
// read and write carries a deadline, and the WELCOME handshake's
// LastSeq tells a reconnecting agent whether the aggregator still
// holds its state (aggregator restart ⇒ LastSeq regresses ⇒ the agent
// forces a full resend). The aggregator commits snapshots atomically —
// every blob decodes or none applies — so an agent dying mid-frame
// leaves the global state exactly as it was.
package netagg

import (
	"io"
	"net"
	"sync/atomic"
	"time"

	bounded "repro"
	"repro/internal/netproto"
)

// countingConn wraps a net.Conn, tallying bytes moved in each
// direction into caller-owned atomics — the byte counters behind the
// frames/bytes observability surface. Deadline and Close calls pass
// through to the wrapped conn.
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// dialTimeout bounds each TCP dial an agent or a client makes.
const dialTimeout = 2 * time.Second

// configEcho converts the library Config to the netproto echo form.
// Exact field equality on the echo is the merge-compatibility gate:
// same seed means same hash coefficients, which is what makes two
// sites' sketches linear in the same basis.
func configEcho(cfg bounded.Config) netproto.ConfigEcho {
	return netproto.ConfigEcho{N: cfg.N, Eps: cfg.Eps, Alpha: cfg.Alpha, Seed: cfg.Seed}
}

// deadline computes an absolute deadline, zero (= none) when d is 0.
func deadline(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// discard is the nil-safe logger sink.
func discardLogf(string, ...any) {}

// logfOr returns f, or the silent sink when f is nil.
func logfOr(f func(string, ...any)) func(string, ...any) {
	if f == nil {
		return discardLogf
	}
	return f
}

var _ io.ReadWriter = (*countingConn)(nil)
