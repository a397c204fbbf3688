package main

import (
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestBeyondCountsSamplesAboveThePercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {1500, 99, 15}, {100, 90, 10}, {20, 50, 10}, {1, 50, 0},
	} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // unsorted on purpose
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := l.percentileMs(tc.p); got != tc.want {
			t.Errorf("p%g = %g ms, want %g", tc.p, got, tc.want)
		}
	}
	if l[0] != 100*time.Millisecond {
		t.Error("percentileMs sorted its receiver in place")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
}

func TestSlicedPercentile(t *testing.T) {
	// Three slices of 1000: the middle one has a slow tail.
	var l latencies
	for s := 0; s < 3; s++ {
		for i := 0; i < 1000; i++ {
			d := time.Millisecond
			if s == 1 && i%50 == 0 {
				d = 9 * time.Millisecond
			}
			l = append(l, d)
		}
	}
	got, k := l.slicedPercentileMs(99, 10)
	if k != 3 || got != 1 {
		t.Errorf("sliced p99 = %v over %d slices, want 1 over 3", got, k)
	}
	if whole := l.percentileMs(99); whole != 1 {
		t.Errorf("whole-run p99 = %v, want 1", whole)
	}
	if _, k := l[:1500].slicedPercentileMs(99, 10); k != 1 {
		t.Errorf("1500 samples made %d slices, want 1", k)
	}
	if _, k := append(append(latencies{}, l...), l...)[:6000].slicedPercentileMs(99, 4); k != 4 {
		t.Errorf("maxSlices not honoured: %d slices", k)
	}
}
