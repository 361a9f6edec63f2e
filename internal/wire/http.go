package wire

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// WriteJSON answers status with v as json.Encoder would write it: its
// encoding and a newline. It is the one JSON response writer of ascd,
// ascgw and /debug/traces.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	Write(w, v)
}

// WriteError answers status with the v1 error body, {"error": text}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Body is an HTTP body read into a pooled buffer; Release returns it. A
// Body nobody releases is collected like any slice, and one whose bytes
// went to an HTTP transport as a request body must never be released: a
// backend can answer before it has read the whole request, and the
// transport may still be sending those bytes after the answer arrives.
type Body struct{ buf bytes.Buffer }

var bodies = sync.Pool{New: func() any { return new(Body) }}

// maxPooledBody bounds the capacity of a buffer kept for reuse.
const maxPooledBody = 4 << 20

// TooLargeError is ReadBody's error for a body of more than Limit bytes.
type TooLargeError struct{ Limit int64 }

func (e *TooLargeError) Error() string { return fmt.Sprintf("body larger than %d bytes", e.Limit) }

// ReadBody reads r to its end into a pooled Body, pre-sized from size (a
// Content-Length; <= 0 when unknown) when that is within limit. More than
// limit bytes is a *TooLargeError.
func ReadBody(r io.Reader, size, limit int64) (*Body, error) {
	b := bodies.Get().(*Body)
	b.buf.Reset()
	if size > 0 && size <= limit {
		b.buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := b.buf.ReadFrom(io.LimitReader(r, limit+1))
	if err == nil && int64(b.buf.Len()) > limit {
		err = &TooLargeError{Limit: limit}
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// Bytes returns the body. They are valid until Release.
func (b *Body) Bytes() []byte { return b.buf.Bytes() }

// Release returns the buffer to the pool. It does nothing on a nil Body.
func (b *Body) Release() {
	if b != nil && b.buf.Cap() <= maxPooledBody {
		bodies.Put(b)
	}
}
