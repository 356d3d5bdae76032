package device

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeDevice runs a device stand-in on one end of a net.Pipe: it greets,
// reads one request line, writes reply verbatim and hangs up. It returns
// a client handshaken over the other end and a func that closes the
// client and waits for the stand-in to exit.
func fakeDevice(tb testing.TB, reply []byte) (*Client, func()) {
	tb.Helper()
	dev, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer dev.Close()
		if _, err := io.WriteString(dev, "HELLO Fake\n"); err != nil {
			return
		}
		if _, err := bufio.NewReader(dev).ReadString('\n'); err != nil {
			return
		}
		dev.Write(reply)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	cl, err := NewClientConn(ctx, conn)
	if err != nil {
		<-done
		tb.Fatal(err)
	}
	return cl, func() { cl.Close(); <-done }
}

// TestClientBoundsDeviceReplies: a reply line past the line limit is
// ErrProtocol, not a buffer grown to whatever the device sends. (A huge
// DATA header is a FuzzClientExec seed, which every go test runs.)
func TestClientBoundsDeviceReplies(t *testing.T) {
	cl, wait := fakeDevice(t, []byte("ERR "+strings.Repeat("x", maxLineBytes)+"\n"))
	defer wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cl.ExecContext(ctx, "display current-configuration")
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v (%d data lines), want ErrProtocol", err, len(resp.Data))
	}
}

// FuzzClientExec feeds arbitrary reply bytes, after a valid greeting, to
// Client.Exec: every input must give a response or an error, never a
// panic or a hang, and a DATA reply the client accepts carries exactly
// the lines its header announced.
func FuzzClientExec(f *testing.F) {
	for _, seed := range []string{
		"OK\n",
		"OK 3\n",
		"OK -1\n",
		"ERR unrecognized command in system: \"x\"\n",
		"DATA 0\n",
		"DATA 2\nsysname edge\n interface 1\n",
		"DATA 2\r\nsysname edge\r\n interface 1\r\n",
		"DATA 3\nonly one line\n",
		"DATA 9223372036854775807\n",
		"DATA -5\n",
		"DATA notanumber\n",
		"WAT 42\n",
		"OK",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		cl, wait := fakeDevice(t, reply)
		defer wait()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		resp, err := cl.ExecContext(ctx, "display current-configuration")
		if err != nil {
			return
		}
		status, _, _ := strings.Cut(string(reply), "\n")
		if n, ok := strings.CutPrefix(strings.TrimRight(status, "\r\n"), "DATA "); ok {
			if want, _ := strconv.Atoi(n); len(resp.Data) != want {
				t.Fatalf("DATA %s reply gave %d lines", n, len(resp.Data))
			}
		}
	})
}
