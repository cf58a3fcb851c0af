package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// firstBodyBuffer is the most a request body's buffer holds before the
// body has filled it once. A body without a Content-Length starts at
// unannouncedBodyBuffer instead, io.ReadAll's first size, so a small
// chunked body costs what it did through io.ReadAll.
const (
	firstBodyBuffer       = 64 << 10
	unannouncedBodyBuffer = 512
)

// ReadBody reads r's body, at most limit bytes of it, for dard's
// handlers and darc's. On failure it returns the status the failure
// answers: 413 for a body past limit, 400 for anything else (a body cut
// short, or one longer than its Content-Length), with the error text to
// send.
//
// The body lands in one buffer that never regrows by small steps. With
// announced the request's Content-Length, capped at limit, the buffer
// starts at min(announced+1, 64 KiB), doubles when full and never grows
// past announced+1: an honest body ends in one buffer of its own length
// plus the one byte that lets the last read see the end. A body without
// a Content-Length starts at 512 bytes and doubles up to limit+1.
// Whatever the header claims, the buffer holds at most max(64 KiB, 2 ×
// the bytes received), and max(512 B, 2 × the bytes received) when it
// claims nothing, so a header cannot commit memory ahead of the bytes
// that arrive.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	announced, first := r.ContentLength, int64(firstBodyBuffer)
	if announced < 0 {
		announced, first = limit, unannouncedBodyBuffer
	}
	body, err := readBounded(http.MaxBytesReader(w, r.Body, limit), first, min(announced, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
	}
	return body, 0, nil
}

// readBounded reads rd to its end into a buffer that starts at
// min(announced+1, first) bytes and doubles when full, up to
// announced+1. Filling that last size is an error: the body ran past
// what it announced. It returns what it read with any error.
func readBounded(rd io.Reader, first, announced int64) ([]byte, error) {
	buf := make([]byte, 0, min(announced+1, first))
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) > announced {
				return buf, errors.New("body is longer than its Content-Length")
			}
			grown := make([]byte, len(buf), min(2*int64(cap(buf)), announced+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if errors.Is(err, io.EOF) {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
