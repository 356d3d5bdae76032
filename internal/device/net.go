package device

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The wire protocol is line-oriented, standing in for the Telnet transport
// the paper's validator uses to reach devices:
//
//	server greeting:  HELLO <vendor>
//	client request:   one CLI line
//	server response:  OK <depth> | ERR <message> | DATA <n> followed by n lines
//
// OK responses carry the session's view-stack depth after the command, so
// a client can track the enter chain it must replay when it reconnects a
// dropped session (bare "OK" from an older server is also accepted).
//
// Each connection gets its own CLI session (its own view stack); the
// device's configuration store is shared across connections.

// Server serves a simulated device over TCP.
type Server struct {
	dev *Device
	l   net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts serving the device on the given address ("127.0.0.1:0"
// picks an ephemeral port) and returns immediately.
func Serve(dev *Device, addr string) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("device: listen: %w", err)
	}
	return ServeListener(dev, l), nil
}

// ServeListener serves the device on an existing listener. It is the
// injection point for transport decorators — the fault-injection layer
// (internal/faultnet) wraps a TCP listener and hands it here.
func ServeListener(dev *Device, l net.Listener) *Server {
	s := &Server{dev: dev, l: l, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.l.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		telConns.Inc()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	w := bufio.NewWriter(conn)
	fmt.Fprintf(w, "HELLO %s\n", s.dev.Vendor())
	if err := w.Flush(); err != nil {
		return
	}
	sess := s.dev.NewSession()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for scanner.Scan() {
		resp := sess.Exec(scanner.Text())
		switch {
		case len(resp.Data) > 0 || (resp.OK && isShow(scanner.Text(), s.dev)):
			fmt.Fprintf(w, "DATA %d\n", len(resp.Data))
			for _, line := range resp.Data {
				fmt.Fprintln(w, line)
			}
		case resp.OK:
			fmt.Fprintf(w, "OK %d\n", resp.Depth)
		default:
			fmt.Fprintf(w, "ERR %s\n", resp.Msg)
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func isShow(line string, d *Device) bool {
	return strings.TrimSpace(line) == d.ShowConfigCommand()
}

// Close stops the server and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.l.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// ErrProtocol marks a response that violates the wire protocol (garbled
// status line, bad DATA header, wrong greeting). Protocol violations are
// transport-level faults — the command may or may not have executed — so
// the retry layer classifies them as retryable.
var ErrProtocol = errors.New("protocol violation")

// Bounds on what one side's lines can make the other allocate.
const (
	// maxLineBytes is the longest line, newline included, either side
	// accepts: the server's scanner limit on a request line and the
	// client's on a reply line.
	maxLineBytes = 1 << 20
	// maxDataPresize caps the dump slice presized from a DATA header.
	maxDataPresize = 1024
)

// Transport timeouts applied when the caller supplies no deadline of its
// own, so a half-open connection can never block an assimilation forever.
const (
	// DefaultDialTimeout bounds the TCP connect plus greeting exchange.
	DefaultDialTimeout = 5 * time.Second
	// DefaultExchangeTimeout bounds one request/response exchange.
	DefaultExchangeTimeout = 30 * time.Second
)

// Client is a CLI session against a remote simulated device.
type Client struct {
	conn   net.Conn
	r      *bufio.Reader
	vendor string
}

// DialContext connects to a device server and consumes the greeting. The
// context's deadline and cancellation bound the TCP connect and the
// greeting read; without a deadline, DefaultDialTimeout applies.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	d := net.Dialer{Timeout: DefaultDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("device: dial %s: %w", addr, err)
	}
	return NewClientConn(ctx, conn)
}

// NewClientConn completes the device handshake over an existing
// connection and returns a ready client session. It is the injection
// point for non-TCP transports — the reconciler's in-process net.Pipe
// fleet hands its synthetic connections here — and carries the same
// greeting semantics as DialContext: the HELLO read is bounded by the
// context's deadline (DefaultDialTimeout when it has none), and the
// connection is closed on a handshake failure.
func NewClientConn(ctx context.Context, conn net.Conn) (*Client, error) {
	greetDeadline := time.Now().Add(DefaultDialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(greetDeadline) {
		greetDeadline = d
	}
	conn.SetDeadline(greetDeadline)
	c := &Client{conn: conn, r: bufio.NewReader(conn)}
	greeting, err := c.readLine()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("device: reading greeting: %w", err)
	}
	if !strings.HasPrefix(greeting, "HELLO ") {
		conn.Close()
		return nil, fmt.Errorf("device: unexpected greeting %q: %w", greeting, ErrProtocol)
	}
	conn.SetDeadline(time.Time{})
	c.vendor = strings.TrimPrefix(greeting, "HELLO ")
	return c, nil
}

// Vendor returns the vendor announced by the device.
func (c *Client) Vendor() string { return c.vendor }

// readLine reads one reply line, refusing one longer than
// maxLineBytes instead of buffering whatever the device sends.
func (c *Client) readLine() (string, error) {
	var long []byte // the fragments so far of a line over the read buffer
	for {
		frag, err := c.r.ReadSlice('\n')
		if len(long)+len(frag) > maxLineBytes {
			return "", fmt.Errorf("device: reply line over %d bytes: %w", maxLineBytes, ErrProtocol)
		}
		switch {
		case err == bufio.ErrBufferFull:
			long = append(long, frag...)
			continue
		case err != nil:
			return "", err
		case long != nil:
			frag = append(long, frag...)
		}
		return strings.TrimRight(string(frag), "\r\n"), nil
	}
}

// ExecContext is Exec honoring the context's deadline and cancellation:
// the context's deadline (when set) is pushed onto the connection before
// the exchange, so a session run under a timed-out assimilation aborts in
// the transport instead of blocking on a dead device. Without a context
// deadline DefaultExchangeTimeout applies.
func (c *Client) ExecContext(ctx context.Context, line string) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(DefaultExchangeTimeout)
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return Response{}, fmt.Errorf("device: set deadline: %w", err)
	}
	defer c.conn.SetDeadline(time.Time{})
	return c.exec(line)
}

// Exec sends one CLI line and decodes the response, bounded by
// DefaultExchangeTimeout so a half-open connection fails instead of
// blocking forever.
func (c *Client) Exec(line string) (Response, error) {
	return c.ExecContext(context.Background(), line)
}

func (c *Client) exec(line string) (Response, error) {
	if strings.ContainsAny(line, "\r\n") {
		return Response{}, errors.New("device: CLI line must not contain newlines")
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return Response{}, fmt.Errorf("device: send: %w", err)
	}
	status, err := c.readLine()
	if err != nil {
		return Response{}, fmt.Errorf("device: recv: %w", err)
	}
	switch {
	case status == "OK":
		return Response{OK: true, Depth: -1}, nil
	case strings.HasPrefix(status, "OK "):
		d, err := strconv.Atoi(strings.TrimPrefix(status, "OK "))
		if err != nil || d < 0 {
			return Response{}, fmt.Errorf("device: bad OK depth %q: %w", status, ErrProtocol)
		}
		return Response{OK: true, Depth: d}, nil
	case strings.HasPrefix(status, "ERR "):
		return Response{OK: false, Msg: strings.TrimPrefix(status, "ERR "), Depth: -1}, nil
	case strings.HasPrefix(status, "DATA "):
		n, err := strconv.Atoi(strings.TrimPrefix(status, "DATA "))
		if err != nil || n < 0 {
			return Response{}, fmt.Errorf("device: bad DATA header %q: %w", status, ErrProtocol)
		}
		// n comes from the device: presize from it only up to a small
		// bound and let the arriving lines grow the slice.
		data := make([]string, 0, min(n, maxDataPresize))
		for i := 0; i < n; i++ {
			line, err := c.readLine()
			if err != nil {
				return Response{}, fmt.Errorf("device: reading dump line %d: %w", i, err)
			}
			data = append(data, line)
		}
		return Response{OK: true, Data: data, Depth: -1}, nil
	}
	return Response{}, fmt.Errorf("device: unexpected status %q: %w", status, ErrProtocol)
}

// Close terminates the session.
func (c *Client) Close() error { return c.conn.Close() }
