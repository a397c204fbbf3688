package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client drives one server over a single keep-alive connection, one
// request at a time — the closed loop of fanin.Pusher and hullcli,
// which wait for each ack before sending more.
type client struct {
	base  string
	token string
	hc    *http.Client

	attempted int
	failed    int
	failures  []string // the first few, for the report
	buf       bytes.Buffer
}

func newClient(base, token string, rt http.RoundTripper) *client {
	return &client{base: base, token: token, hc: &http.Client{Transport: rt, Timeout: 60 * time.Second}}
}

// oneConnTransport keeps at most one connection to the server and reuses
// it for every request.
func oneConnTransport() *http.Transport {
	return &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     0,
	}
}

// fail records a failed operation.
func (c *client) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, err.Error())
	}
	return err
}

// call sends one request and reads the whole response. It returns the
// latency from sending to the last response byte, and the response body
// (valid until the next call). Any transport error or non-2xx status is
// a failed operation.
func (c *client) call(method, path string, body []byte) (time.Duration, []byte, error) {
	c.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, c.fail("%s %s: %v", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, c.fail("%s %s: %v", method, path, err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, nil, c.fail("%s %s: reading response: %v", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return lat, nil, c.fail("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return lat, c.buf.Bytes(), nil
}

// getJSON sends a GET and decodes the JSON answer into out.
func (c *client) getJSON(path string, out any) error {
	_, body, err := c.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return c.fail("GET %s: decoding answer: %v", path, err)
	}
	return nil
}

// hullAnswer is the body of GET /v1/streams/{id}/hull.
type hullAnswer struct {
	Vertices  [][2]float64 `json:"vertices"`
	Area      float64      `json:"area"`
	Perimeter float64      `json:"perimeter"`
	N         int          `json:"n"`
}
