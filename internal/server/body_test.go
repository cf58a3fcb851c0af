package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkedReader hands out at most 32 KiB a read, as a socket does.
type chunkedReader struct{ r io.Reader }

func (c chunkedReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), 32<<10)])
}

// TestReadBoundedHonestBody: a body that delivers what it announces
// ends in one buffer of at most its length plus one byte; a request
// with no Content-Length (a chunked one) starts at 512 bytes and stays
// within max(512 B, twice the body).
func TestReadBoundedHonestBody(t *testing.T) {
	const limit = 64 << 20
	for _, n := range []int{0, 1, 300, 1000, 64<<10 - 1, 64 << 10, 64<<10 + 1, 200_000, 1 << 20, 3<<20 + 17} {
		body := bytes.Repeat([]byte{'x'}, n)
		got, err := readBounded(chunkedReader{bytes.NewReader(body)}, firstBodyBuffer, int64(n))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d announced bytes: read %d bytes, %v", n, len(got), err)
		}
		if cap(got) > n+1 {
			t.Errorf("%d announced bytes: buffer capacity %d, want at most %d", n, cap(got), n+1)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/query", chunkedReader{bytes.NewReader(body)})
		r.ContentLength = -1
		got, _, err = ReadBody(httptest.NewRecorder(), r, limit)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d unannounced bytes: read %d bytes, %v", n, len(got), err)
		}
		if want := max(unannouncedBodyBuffer, 2*n); cap(got) > want {
			t.Errorf("%d unannounced bytes: buffer capacity %d, want at most %d", n, cap(got), want)
		}
	}
}

// TestReadBoundedLyingLength: a request announcing MaxIngestBytes that
// delivers 1 KiB and ends never holds more than the first 64 KiB
// buffer, and its short body is an error; a body longer than it
// announced is an error too, and is not read past its announced size
// plus one byte.
func TestReadBoundedLyingLength(t *testing.T) {
	announced := Config{}.withDefaults().MaxIngestBytes
	short := io.MultiReader(bytes.NewReader(make([]byte, 1<<10)), iotest.ErrReader(io.ErrUnexpectedEOF))
	got, err := readBounded(short, firstBodyBuffer, announced)
	if err == nil {
		t.Fatal("a body cut short of its Content-Length read without error")
	}
	if cap(got) > firstBodyBuffer {
		t.Errorf("a 1 KiB body announcing %d bytes held a %d-byte buffer, want at most %d", announced, cap(got), firstBodyBuffer)
	}
	got, err = readBounded(bytes.NewReader(make([]byte, 5000)), firstBodyBuffer, 1000)
	if err == nil {
		t.Fatal("a body longer than its Content-Length read without error")
	}
	if cap(got) > 1001 {
		t.Errorf("a 5000-byte body announcing 1000 grew its buffer to %d bytes", cap(got))
	}
}

// TestIngestShortBodyIsBounded: over a real connection, a POST
// /v1/ingest whose Content-Length claims MaxIngestBytes but whose body
// stops after 1 KiB gets a 400, and the daemon allocates nowhere near
// the announced size while answering it.
func TestIngestShortBodyIsBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	announced := srv.cfg.MaxIngestBytes
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/ingest?name=short HTTP/1.1\r\nHost: dard\r\nContent-Length: %d\r\n\r\n", announced)
	conn.Write([]byte("a\n" + strings.Repeat("1\n", 511))) //nolint:errcheck // the response is what counts
	conn.(*net.TCPConn).CloseWrite()                       //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("a 1 KiB body announcing %d bytes cost %d bytes of allocation", announced, got)
	}
}

// TestIngestOversizedBody: a body past MaxIngestBytes is answered 413
// with the uniform error document, whether it announces its length or
// is sent chunked.
func TestIngestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxIngestBytes: 1 << 10})
	body := "a\n" + strings.Repeat("1\n", 1<<10)
	for _, rd := range []io.Reader{strings.NewReader(body), chunkedReader{strings.NewReader(body)}} {
		resp, err := http.Post(ts.URL+"/v1/ingest?name=big", "text/csv", rd)
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "exceeds 1024 bytes") {
			t.Errorf("%T body: status %d, body %s; want 413 naming the limit", rd, resp.StatusCode, msg)
		}
	}
}
