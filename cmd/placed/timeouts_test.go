package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

// serveWithTimeouts starts newHTTPServer on a loopback listener with a
// handler that drains the body and answers "ok".
func serveWithTimeouts(t *testing.T, to httpTimeouts) string {
	t.Helper()
	return serveHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return
		}
		io.WriteString(w, "ok")
	}), to)
}

// serveHandler starts newHTTPServer around h on a loopback listener.
func serveHandler(t *testing.T, h http.Handler, to httpTimeouts) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(h, to)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// closedWithin reports whether the server closes conn within d, draining
// whatever it writes first.
func closedWithin(t *testing.T, conn net.Conn, d time.Duration) bool {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	_, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	return true
}

func TestDefaultHTTPTimeouts(t *testing.T) {
	to := defaultHTTPTimeouts
	if to.readHeader <= 0 || to.read <= 0 {
		t.Fatalf("read timeouts unset: %+v", to)
	}
	if to.idle < 60*time.Second {
		t.Fatalf("idle timeout %v would drop keep-alive clients pausing under a minute", to.idle)
	}
	hs := newHTTPServer(http.NotFoundHandler(), to)
	if hs.ReadHeaderTimeout != to.readHeader || hs.ReadTimeout != to.read || hs.IdleTimeout != to.idle {
		t.Fatalf("server timeouts %v/%v/%v, want %+v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, to)
	}
}

// TestSlowlorisDisconnected: a client that stalls inside its headers, or
// trickles a body, is disconnected by the read timeouts, while a keep-alive
// client pausing longer than those timeouts between requests keeps its
// connection.
func TestSlowlorisDisconnected(t *testing.T) {
	addr := serveWithTimeouts(t, httpTimeouts{readHeader: 200 * time.Millisecond, read: 400 * time.Millisecond, idle: time.Minute})

	t.Run("stalled header", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: placed\r\nX-Slow: "); err != nil {
			t.Fatal(err)
		}
		if !closedWithin(t, conn, 5*time.Second) {
			t.Fatal("connection with a stalled header still open after 5s")
		}
	})

	t.Run("trickled body", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := io.WriteString(conn, "POST /v1/place HTTP/1.1\r\nHost: placed\r\nContent-Length: 100000\r\n\r\n>q\nAC"); err != nil {
			t.Fatal(err)
		}
		if !closedWithin(t, conn, 5*time.Second) {
			t.Fatal("connection trickling its body still open after 5s")
		}
	})

	t.Run("keep-alive survives", func(t *testing.T) {
		client := &http.Client{Transport: &http.Transport{}}
		defer client.CloseIdleConnections()
		reused := false
		for i := 0; i < 2; i++ {
			if i == 1 {
				time.Sleep(700 * time.Millisecond) // beyond both read timeouts
			}
			trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
			req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/", strings.NewReader(">q\nACGT\n"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != "ok" {
				t.Fatalf("request %d: body %q", i, body)
			}
		}
		if !reused {
			t.Fatal("second request opened a new connection: the idle keep-alive connection was dropped")
		}
	})
}

// TestLongHandlerKeepsContext: a handler that has read its body and then
// runs three times past the read timeout — a placement request waiting on
// its batch under a long --request-timeout — keeps a live request context
// and delivers its response. The read timeout bounds the upload, not the
// handler.
func TestLongHandlerKeepsContext(t *testing.T) {
	const read, work = 200 * time.Millisecond, 600 * time.Millisecond
	addr := serveHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return
		}
		select {
		case <-r.Context().Done():
			io.WriteString(w, "cancelled")
		case <-time.After(work):
			io.WriteString(w, "live")
		}
	}), httpTimeouts{readHeader: read, read: read, idle: time.Minute})
	resp, err := http.Post("http://"+addr+"/", "text/plain", strings.NewReader(">q\nACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "live" {
		t.Fatalf("handler running %v past a %v read timeout: body %q, want \"live\"", work, read, body)
	}
}
