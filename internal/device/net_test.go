package device

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"

	"nassim/internal/devmodel"
)

// rawDial connects without the client wrapper, for protocol-level tests.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

func startServer(t *testing.T) (*Server, *Device, *devmodel.Model) {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(devmodel.H3C).Scaled(0.02))
	d, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, d, m
}

func TestProtocolGreetingAndFraming(t *testing.T) {
	srv, d, m := startServer(t)
	conn, r := rawDial(t, srv.Addr())
	greeting, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(greeting) != "HELLO H3C" {
		t.Fatalf("greeting = %q", greeting)
	}
	// Garbage command -> ERR line.
	fmt.Fprintln(conn, "definitely not a command")
	resp, _ := r.ReadString('\n')
	if !strings.HasPrefix(resp, "ERR ") {
		t.Fatalf("resp = %q", resp)
	}
	// Valid command -> OK.
	inst := m.InstantiateMinimal(m.Commands[0])
	if m.Commands[0].Views[0] != m.RootView {
		// Find a root-view command instead.
		for _, c := range m.Commands {
			if c.Views[0] == m.RootView {
				inst = m.InstantiateMinimal(c)
				break
			}
		}
	}
	fmt.Fprintln(conn, inst)
	resp, _ = r.ReadString('\n')
	// OK responses carry the view-stack depth after the command.
	if !strings.HasPrefix(strings.TrimSpace(resp), "OK ") {
		t.Fatalf("resp = %q for %q", resp, inst)
	}
	// Show -> DATA n + n lines.
	fmt.Fprintln(conn, d.ShowConfigCommand())
	resp, _ = r.ReadString('\n')
	if !strings.HasPrefix(resp, "DATA ") {
		t.Fatalf("resp = %q", resp)
	}
	var n int
	if _, err := fmt.Sscanf(resp, "DATA %d", &n); err != nil || n != 1 {
		t.Fatalf("DATA header = %q", resp)
	}
	line, _ := r.ReadString('\n')
	if strings.TrimSpace(line) != inst {
		t.Fatalf("dump line = %q, want %q", line, inst)
	}
}

func TestProtocolEmptyShowDump(t *testing.T) {
	srv, d, _ := startServer(t)
	cl, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Exec(d.ShowConfigCommand())
	if err != nil || !resp.OK {
		t.Fatalf("show on empty config: %+v %v", resp, err)
	}
	if len(resp.Data) != 0 {
		t.Fatalf("data = %v", resp.Data)
	}
}

func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	srv, _, _ := startServer(t)
	conn, r := rawDial(t, srv.Addr())
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	conn.Close() // drop mid-session

	// The server must keep accepting new sessions.
	cl, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Exec("return"); err != nil || !resp.OK {
		t.Fatalf("post-disconnect exec: %+v %v", resp, err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, _, _ := startServer(t)
	cl, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Requests after close fail instead of hanging.
	if _, err := cl.Exec("return"); err == nil {
		t.Error("exec succeeded after server close")
	}
	cl.Close()
	if _, err := DialContext(context.Background(), srv.Addr()); err == nil {
		t.Error("dial succeeded after server close")
	}
}

func TestClientRejectsMalformedServer(t *testing.T) {
	// A fake server speaking the wrong protocol.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			fmt.Fprintln(conn, "SMTP ready") // wrong greeting
			conn.Close()
		}
	}()
	if _, err := DialContext(context.Background(), l.Addr().String()); err == nil {
		t.Error("client accepted a non-device greeting")
	}
}

func TestClientHandlesBadDataHeader(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintln(conn, "HELLO Fake")
		r := bufio.NewReader(conn)
		if _, err := r.ReadString('\n'); err != nil {
			return
		}
		fmt.Fprintln(conn, "DATA notanumber")
	}()
	cl, err := DialContext(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("anything"); err == nil {
		t.Error("bad DATA header accepted")
	}
}

func TestClientHandlesUnknownStatus(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintln(conn, "HELLO Fake")
		r := bufio.NewReader(conn)
		if _, err := r.ReadString('\n'); err != nil {
			return
		}
		fmt.Fprintln(conn, "WAT 42")
	}()
	cl, err := DialContext(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("anything"); err == nil {
		t.Error("unknown status accepted")
	}
}

func TestClientTruncatedDump(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		fmt.Fprintln(conn, "HELLO Fake")
		r := bufio.NewReader(conn)
		if _, err := r.ReadString('\n'); err != nil {
			conn.Close()
			return
		}
		fmt.Fprintln(conn, "DATA 3")
		fmt.Fprintln(conn, "only one line")
		conn.Close() // truncate mid-dump
	}()
	cl, err := DialContext(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exec("show"); err == nil {
		t.Error("truncated dump accepted")
	}
}
