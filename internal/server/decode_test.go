package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	streamhull "github.com/streamgeom/streamhull"
	"github.com/streamgeom/streamhull/internal/fanin"
	"github.com/streamgeom/streamhull/internal/workload"
)

// Limits of the server the body-contract table runs against.
const (
	contractMaxBatch = 4
	contractMaxBody  = 512
)

// pointsBodyCases pins the ingest body contract: the status, error code
// and accepted point count of each body. They also seed FuzzDecodePoints.
var pointsBodyCases = []struct {
	name   string
	body   string
	status int
	code   string // error code when status is not 200
	msg    string // part of the error message, when it matters
	points int    // points ingested when status is 200
}{
	{name: "canonical", body: `{"points":[[1,2],[3,4]]}`, status: 200, points: 2},
	{name: "whitespace and newlines", body: "\n {\t\"points\" :\r\n [ [ 1 ,\n2 ] ,[3,4]\n]\n}\n", status: 200, points: 2},
	{name: "exponents", body: `{"points":[[1e3,-2.5E-2],[6.02e+23,1E0],[1e-7,0.5e22]]}`, status: 200, points: 3},
	{name: "negative zero", body: `{"points":[[-0,0],[-0.0,-0e5]]}`, status: 200, points: 2},
	{name: "17 or more significant digits", body: `{"points":[[0.12345678901234567,12345678901234567890],[3.14159265358979323846264338327950288,-9007199254740993]]}`, status: 200, points: 2},
	{name: "underflow to zero", body: `{"points":[[1e-400,1]]}`, status: 200, points: 1},
	{name: "overflow", body: `{"points":[[1e400,1]]}`, status: 400, code: "bad_request"},
	{name: "leading zero", body: `{"points":[[01,2]]}`, status: 400, code: "bad_request"},
	{name: "string coordinate", body: `{"points":[["1",2]]}`, status: 400, code: "bad_request"},
	{name: "truncated", body: `{"points":[[1,2]`, status: 400, code: "bad_request"},
	{name: "unknown members", body: `{"source":"n1","points":[[1,2]],"meta":{"tags":[[0]]}}`, status: 200, points: 1},
	{name: "capitalised key", body: `{"Points":[[1,2],[3,4]]}`, status: 200, points: 2},
	{name: "duplicate key", body: `{"points":[[1,2]],"points":[[3,4],[5,6]]}`, status: 200, points: 2},
	{name: "bytes after the object", body: `{"points":[[1,2]]} trailing`, status: 200, points: 1},
	{name: "null points", body: `{"points":null}`, status: 400, code: "bad_request", msg: "no points"},
	{name: "empty points", body: `{"points":[]}`, status: 400, code: "bad_request", msg: "no points"},
	{name: "one coordinate", body: `{"points":[[1]]}`, status: 400, code: "bad_request", msg: "point 0"},
	{name: "empty point", body: `{"points":[[]]}`, status: 400, code: "bad_request", msg: "point 0"},
	{name: "null point", body: `{"points":[null]}`, status: 400, code: "bad_request", msg: "point 0"},
	{name: "null coordinate", body: `{"points":[[1,null]]}`, status: 400, code: "bad_request", msg: "point 0"},
	{name: "three coordinates", body: `{"points":[[1,2,3]]}`, status: 400, code: "bad_request", msg: "point 0"},
	{name: "malformed later point", body: `{"points":[[1,2],[3]]}`, status: 400, code: "bad_request", msg: "point 1"},
	{name: "over MaxBatch", body: `{"points":[[1,2],[3,4],[5,6],[7,8],[9,10]]}`, status: 413, code: "too_large"},
	{name: "over MaxBodyBytes", body: longPointsBody(), status: 413, code: "too_large"},
	// The whole body is read before it is decoded, so a body over the
	// limit is refused even when its JSON ends before the limit.
	{name: "over MaxBodyBytes after the object", body: `{"points":[[1,2]]}` + strings.Repeat(" ", contractMaxBody), status: 413, code: "too_large"},
}

// longPointsBody is a canonical body of contractMaxBatch points whose
// long numbers take it past contractMaxBody bytes.
func longPointsBody() string {
	num := "1." + strings.Repeat("5", contractMaxBody/(2*contractMaxBatch))
	pts := make([]string, contractMaxBatch)
	for i := range pts {
		pts[i] = "[" + num + "," + num + "]"
	}
	return `{"points":[` + strings.Join(pts, ",") + `]}`
}

// TestPointsBodyContract posts every body of the contract table to one
// stream and checks the answer, and that a refused body applied nothing.
func TestPointsBodyContract(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 8, MaxBatch: contractMaxBatch, MaxBodyBytes: contractMaxBody})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/v1/streams/contract/points"
	if code, body := doAuth(t, "POST", url, "", []byte(`{"points":[[0,0]]}`)); code != http.StatusOK {
		t.Fatalf("seed ingest: %d %s", code, body)
	}
	n := 1
	for _, tc := range pointsBodyCases {
		code, body := doAuth(t, "POST", url, "", []byte(tc.body))
		if code != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, body, tc.status)
			continue
		}
		if tc.status == http.StatusOK {
			var resp struct{ Ingested int }
			if err := json.Unmarshal(body, &resp); err != nil || resp.Ingested != tc.points {
				t.Errorf("%s: answer %s, want %d points ingested", tc.name, body, tc.points)
			}
			n += tc.points
		} else {
			assertEnvelope(t, body, tc.code)
			if !strings.Contains(string(body), tc.msg) {
				t.Errorf("%s: error %s does not mention %q", tc.name, body, tc.msg)
			}
		}
		_, detail := do(t, "GET", ts.URL+"/v1/streams/contract", nil)
		if got, ok := detail["n"].(float64); !ok || int(got) != n {
			t.Fatalf("%s: stream n = %v, want %d", tc.name, detail["n"], n)
		}
	}
}

// FuzzDecodePoints holds the in-place scanner to encoding/json: every
// body it accepts, encoding/json accepts too, with two numbers per point
// and the same float64 bits for every coordinate.
func FuzzDecodePoints(f *testing.F) {
	for _, tc := range pointsBodyCases {
		f.Add([]byte(tc.body))
	}
	for _, num := range []string{
		"9007199254740991", "9007199254740992", "9007199254740993",
		"1e22", "1e23", "1e-22", "1e-23", "123456789e-30", "0.1", "-0.000",
		"1.7976931348623157e308", "1.7976931348623159e308", "4.9e-324",
		"2.2250738585072014e-308", "1E+05", "-1e-05", "12.5e", "1.", ".5",
		"-", "+1", "0x10", "1_000", "Infinity", "NaN",
	} {
		f.Add([]byte(`{"points":[[` + num + `,1]]}`))
	}
	// Full-precision coordinates, most of which take ParseFloat.
	f.Add(randomPointsBody(200, rand.New(rand.NewSource(2))))
	f.Fuzz(func(t *testing.T, body []byte) {
		pts, ok := scanPoints(body, len(body))
		if !ok {
			return
		}
		var ref struct {
			Points [][]*float64 `json:"points"`
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
		}
		if len(ref.Points) != len(pts) {
			t.Fatalf("%q: scanner read %d points, encoding/json %d", body, len(pts), len(ref.Points))
		}
		for i, xy := range ref.Points {
			if len(xy) != 2 || xy[0] == nil || xy[1] == nil {
				t.Fatalf("%q: scanner accepted point %d, which is not two numbers", body, i)
			}
			if math.Float64bits(*xy[0]) != math.Float64bits(pts[i].X) ||
				math.Float64bits(*xy[1]) != math.Float64bits(pts[i].Y) {
				t.Fatalf("%q: point %d scanned as %v, encoding/json has [%v,%v]", body, i, pts[i], *xy[0], *xy[1])
			}
		}
	})
}

// randomPointsBody encodes n random points with the shortest round-trip
// decimal of each coordinate, up to 17 significant digits.
func randomPointsBody(n int, rng *rand.Rand) []byte {
	b := []byte(`{"points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, rng.NormFloat64()*1e3, 'f', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, rng.NormFloat64()*1e-3, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// TestDecodePointsAllocs pins the decode of a canonical body to one
// allocation, the batch itself, whatever the point count.
func TestDecodePointsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 1024} {
		body := randomPointsBody(n, rng)
		if _, ok := scanPoints(body, 65536); !ok {
			t.Fatalf("scanner declined a canonical %d-point body", n)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodePoints(body, 65536); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("decoding %d points: %v allocations, want 1", n, allocs)
		}
	}
}

// TestBodyDecodersCopy: readBody recycles its buffer as soon as decode
// returns, so each decoder the handlers hand it must copy what it
// keeps. Every case decodes a body, overwrites the bytes it decoded
// from, and checks the value still equals a decode of an untouched copy.
func TestBodyDecodersCopy(t *testing.T) {
	sum := streamhull.NewAdaptive(16)
	pts := workload.Take(workload.Ellipse(3, 1, 0.5, 0.2), 500)
	if _, err := sum.InsertBatch(pts[:400]); err != nil {
		t.Fatal(err)
	}
	base := sum.Snapshot()
	if _, err := sum.InsertBatch(pts[400:]); err != nil {
		t.Fatal(err)
	}
	snap := sum.Snapshot()
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	snapBin, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		body   []byte
		decode func([]byte) (any, error)
	}{
		{"points", randomPointsBody(64, rand.New(rand.NewSource(2))),
			func(b []byte) (any, error) { return decodePoints(b, 65536) }},
		{"spec", []byte(`{"kind":"windowed","r":16,"window":"1000"}`),
			func(b []byte) (any, error) { return streamhull.ParseSpec(string(b)) }},
		{"json snapshot", snapJSON,
			func(b []byte) (any, error) { return streamhull.DecodeSnapshot(b) }},
		{"binary snapshot", snapBin, func(b []byte) (any, error) {
			var s streamhull.Snapshot
			err := s.UnmarshalBinary(b)
			return s, err
		}},
		{"delta", fanin.EncodeDelta(fanin.ComputeDelta(1, 2, snap.N, base.Points, snap.Points)),
			func(b []byte) (any, error) { return fanin.DecodeDelta(b) }},
	}
	for _, c := range cases {
		buf := bytes.Clone(c.body)
		got, err := c.decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		want, err := c.decode(c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the decoded value changed when its body was overwritten", c.name)
		}
	}
}

// TestBodyLimitEveryReader: the create, restore, full-push and
// delta-push bodies go through the points endpoint's reader, so each
// answers 413 past MaxBodyBytes and 400 for a body it cannot decode.
func TestBodyLimitEveryReader(t *testing.T) {
	srv := mustNew(t, Config{DefaultR: 16, MaxBodyBytes: 1024})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if code, resp := do(t, "PUT", ts.URL+"/v1/streams/agg?algo=fanin&r=16", nil); code != http.StatusCreated {
		t.Fatalf("create aggregate: %d %v", code, resp)
	}
	bodies := []struct {
		data   []byte
		status int
		code   string
	}{
		{bytes.Repeat([]byte(" "), 2048), http.StatusRequestEntityTooLarge, "too_large"},
		{[]byte("garbage"), http.StatusBadRequest, "bad_request"},
	}
	for _, c := range []struct{ name, method, path, ctype string }{
		{"create", "PUT", "/v1/streams/fresh", "application/json"},
		{"restore", "POST", "/v1/streams/restored/snapshot", "application/octet-stream"},
		{"full push", "POST", "/v1/streams/agg/snapshot?source=n1&epoch=1", "application/json"},
		{"delta push", "POST", "/v1/streams/agg/snapshot?source=n1", fanin.DeltaContentType},
	} {
		for _, b := range bodies {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(b.data))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", c.ctype)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if err != nil || resp.StatusCode != b.status || eb.Code != b.code {
				t.Errorf("%s with a %d-byte body: %d %+v (%v), want %d %s",
					c.name, len(b.data), resp.StatusCode, eb, err, b.status, b.code)
			}
		}
	}
}
