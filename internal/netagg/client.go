package netagg

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	bounded "repro"
	"repro/internal/netproto"
)

// ClientOptions configures a query Client. The dial is bounded by
// dialTimeout and each query round trip by clientIOTimeout.
type ClientOptions struct {
	// Config is echoed in HELLO for diagnostics; clients carry no
	// sketch state so it is informational.
	Config bounded.Config
}

// clientIOTimeout bounds each client query round trip.
const clientIOTimeout = 5 * time.Second

// Client queries an aggregator's merged global state over one TCP
// connection. Methods serialize internally; a failed round trip leaves
// the connection unusable (errors latch in the reader) — dial a new
// client.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	mr      *netproto.MessageReader
	mw      *netproto.MessageWriter
	nextID  uint64
	version uint8
}

// DialClient connects and handshakes as RoleClient.
func DialClient(addr string, opt ClientOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netagg: client dialing %s: %w", addr, err)
	}
	mr := netproto.NewMessageReader(conn, netproto.DefaultMaxFrame)
	mw := netproto.NewMessageWriter(conn)
	conn.SetWriteDeadline(deadline(clientIOTimeout))
	if err := mw.Write(&netproto.Hello{
		Role:       netproto.RoleClient,
		MinVersion: netproto.VersionMin,
		MaxVersion: netproto.VersionMax,
		Config:     configEcho(opt.Config),
	}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netagg: client hello: %w", err)
	}
	conn.SetReadDeadline(deadline(clientIOTimeout))
	reply, err := mr.Next()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netagg: client awaiting welcome: %w", err)
	}
	welcome, ok := reply.(*netproto.Welcome)
	if !ok {
		conn.Close()
		if e, isErr := reply.(*netproto.Error); isErr {
			return nil, fmt.Errorf("netagg: client refused: %s", e.Msg)
		}
		return nil, fmt.Errorf("netagg: client expected WELCOME, got %s", reply.Kind())
	}
	return &Client{conn: conn, mr: mr, mw: mw, version: welcome.Version}, nil
}

// Version reports the negotiated protocol version.
func (c *Client) Version() uint8 { return c.version }

// do runs one QUERY/ANSWER round trip.
func (c *Client) do(op netproto.QueryOp, keys []uint64) (*netproto.Answer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, errors.New("netagg: client is closed")
	}
	c.nextID++
	q := &netproto.Query{ID: c.nextID, Op: op, Keys: keys}
	c.conn.SetWriteDeadline(deadline(clientIOTimeout))
	if err := c.mw.Write(q); err != nil {
		return nil, fmt.Errorf("netagg: client query: %w", err)
	}
	c.conn.SetReadDeadline(deadline(clientIOTimeout))
	reply, err := c.mr.Next()
	if err != nil {
		return nil, fmt.Errorf("netagg: client awaiting answer: %w", err)
	}
	ans, ok := reply.(*netproto.Answer)
	if !ok {
		if e, isErr := reply.(*netproto.Error); isErr {
			return nil, fmt.Errorf("netagg: aggregator error: %s", e.Msg)
		}
		return nil, fmt.Errorf("netagg: client expected ANSWER, got %s", reply.Kind())
	}
	if ans.ID != q.ID {
		return nil, fmt.Errorf("netagg: answer id %d, want %d", ans.ID, q.ID)
	}
	if ans.Err != "" {
		return nil, errors.New(ans.Err)
	}
	return ans, nil
}

// Estimate returns the merged point estimate for every key, in input
// order.
func (c *Client) Estimate(keys []uint64) ([]float64, error) {
	ans, err := c.do(netproto.OpEstimate, keys)
	if err != nil {
		return nil, err
	}
	if len(ans.Values) != len(keys) {
		return nil, fmt.Errorf("netagg: estimate answered %d values for %d keys", len(ans.Values), len(keys))
	}
	return ans.Values, nil
}

// HeavyHitters returns the merged eps-heavy coordinates.
func (c *Client) HeavyHitters() ([]uint64, error) {
	ans, err := c.do(netproto.OpHeavyHitters, nil)
	if err != nil {
		return nil, err
	}
	return ans.Keys, nil
}

// L1 returns the merged L1-norm estimate.
func (c *Client) L1() (float64, error) {
	ans, err := c.do(netproto.OpL1, nil)
	if err != nil {
		return 0, err
	}
	if len(ans.Values) != 1 {
		return 0, fmt.Errorf("netagg: l1 answered %d values, want 1", len(ans.Values))
	}
	return ans.Values[0], nil
}

// Support returns the merged recovered support set.
func (c *Client) Support() ([]uint64, error) {
	ans, err := c.do(netproto.OpSupport, nil)
	if err != nil {
		return nil, err
	}
	return ans.Keys, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.mr, c.mw = nil, nil, nil
	return err
}
