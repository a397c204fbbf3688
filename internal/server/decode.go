package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/streamgeom/streamhull/geom"
)

// bodyBuffers recycles request body buffers. A buffer grows with the
// bytes a request sends, never with its claimed Content-Length.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody caps the buffers bodyBuffers keeps, so that one outsized
// body does not stay pinned in the pool.
const maxPooledBody = 1 << 20

// readBody reads a request body through the MaxBodyBytes limit into a
// recycled buffer and returns what decode makes of it. The buffer goes
// back to the pool when readBody returns, so decode must copy whatever
// it keeps. writeBodyErr answers either kind of failure.
func readBody[T any](s *Server, w http.ResponseWriter, req *http.Request, decode func([]byte) (T, error)) (T, error) {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBuffers.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, s.cfg.MaxBodyBytes)); err != nil {
		var zero T
		return zero, fmt.Errorf("reading body: %w", err)
	}
	return decode(buf.Bytes())
}

// writeBodyErr answers a request whose body readBody could not read or
// decode: 413 for a body over MaxBodyBytes or a batch over MaxBatch, 400
// for anything else.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
	case errors.Is(err, errBatchTooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

// errBatchTooLarge marks an ingest body holding more than MaxBatch
// points; the handler answers it with 413.
var errBatchTooLarge = errors.New("batch too large")

// decodePoints turns an ingest body into the batch it carries: exactly
// two finite numbers per point, at least one and at most maxBatch points
// (more wraps errBatchTooLarge). Canonical bodies take scanPoints;
// encoding/json judges every body the scanner declines, so the two
// accept the same bodies with bit-identical coordinates.
func decodePoints(body []byte, maxBatch int) ([]geom.Point, error) {
	pts, ok := scanPoints(body, maxBatch)
	if !ok {
		var err error
		if pts, err = decodePointsJSON(body); err != nil {
			return nil, err
		}
	}
	if len(pts) == 0 {
		return nil, errors.New("no points")
	}
	if len(pts) > maxBatch {
		return nil, fmt.Errorf("%w: more than %d points", errBatchTooLarge, maxBatch)
	}
	return pts, nil
}

// decodePointsJSON is the encoding/json decode of an ingest body. It
// reads one JSON value, so bytes after the object go unread, matches the
// "points" key case-insensitively, lets the last of duplicate keys win
// and ignores other members. Pointers to the coordinates tell a null or
// missing coordinate from a zero one.
func decodePointsJSON(body []byte) ([]geom.Point, error) {
	var req struct {
		Points [][]*float64 `json:"points"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding body: %v", err)
	}
	pts := make([]geom.Point, len(req.Points))
	for i, xy := range req.Points {
		if len(xy) != 2 || xy[0] == nil || xy[1] == nil {
			return nil, fmt.Errorf("point %d: want exactly two numbers [x,y]", i)
		}
		p := geom.Pt(*xy[0], *xy[1])
		if !p.IsFinite() {
			return nil, fmt.Errorf("point %d: non-finite coordinates %v", i, p)
		}
		pts[i] = p
	}
	return pts, nil
}

// pointsKey is the one member a canonical ingest body holds.
var pointsKey = []byte(`"points"`)

// scanPoints decodes the canonical ingest body {"points":[[x,y],...]},
// with JSON whitespace allowed between tokens, making one allocation. It
// declines (ok false) anything else: other or differently cased members,
// null, a point that is not two numbers, bytes after the object, invalid
// JSON, or a number it cannot certify. It stops after limit+1 points, as
// the batch is too large whatever follows.
func scanPoints(b []byte, limit int) (pts []geom.Point, ok bool) {
	i, ok := skipTo(b, 0, '{')
	if !ok {
		return nil, false
	}
	i = skipSpace(b, i)
	if !bytes.HasPrefix(b[i:], pointsKey) {
		return nil, false
	}
	if i, ok = skipTo(b, i+len(pointsKey), ':'); !ok {
		return nil, false
	}
	if i, ok = skipTo(b, i, '['); !ok {
		return nil, false
	}
	// Each point opens with the only '[' it holds, so the brackets left
	// bound the batch.
	n := bytes.Count(b[i:], []byte{'['})
	if n > limit {
		n = limit + 1
	}
	pts = make([]geom.Point, 0, n)
	if j, empty := skipTo(b, i, ']'); empty {
		i = j
	} else {
		for {
			var p geom.Point
			if i, ok = skipTo(b, i, '['); !ok {
				return nil, false
			}
			if p.X, i, ok = scanNumber(b, skipSpace(b, i)); !ok {
				return nil, false
			}
			if i, ok = skipTo(b, i, ','); !ok {
				return nil, false
			}
			if p.Y, i, ok = scanNumber(b, skipSpace(b, i)); !ok {
				return nil, false
			}
			if i, ok = skipTo(b, i, ']'); !ok {
				return nil, false
			}
			if pts = append(pts, p); len(pts) > limit {
				return pts, true
			}
			j, more := skipTo(b, i, ',')
			if !more {
				break
			}
			i = j
		}
		if i, ok = skipTo(b, i, ']'); !ok {
			return nil, false
		}
	}
	if i, ok = skipTo(b, i, '}'); !ok || skipSpace(b, i) != len(b) {
		return nil, false
	}
	return pts, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// skipTo skips JSON whitespace from i and reports whether the next byte
// is c, returning the index just past it.
func skipTo(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanNumber reads the JSON number starting at b[i] and returns exactly
// the float64 strconv.ParseFloat returns for it, with the index just past
// it. ok is false when no JSON number starts at b[i] or its value is out
// of float64 range.
//
// A decimal mantissa m below 2^53 and a power of ten 10^k with |k| ≤ 22
// are both exact float64s, so one IEEE multiply or divide rounds m·10^k
// correctly (Clinger's fast path); any other number goes to ParseFloat.
func scanNumber(b []byte, i int) (f float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, mant = scanDigits(b, i, mant)
	default:
		return 0, i, false
	}
	exp := 0
	if i < len(b) && b[i] == '.' {
		j := i + 1
		if i, mant = scanDigits(b, j, mant); i == j {
			return 0, i, false
		}
		exp = j - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, i, false
		}
		exp += sign * e
	}
	if mant < 1<<53 && -22 <= exp && exp <= 22 {
		f = float64(mant)
		if exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// scanDigits reads the decimal digits from b[i] on, folding them into
// mant until it reaches 2^53, where it stops growing so that scanNumber
// hands the number to ParseFloat.
func scanDigits(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if mant < 1<<53 {
			mant = mant*10 + uint64(b[i]-'0')
		}
	}
	return i, mant
}
