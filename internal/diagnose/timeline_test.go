package diagnose

import (
	"testing"
	"unicode/utf8"

	"drbw/internal/cache"
	"drbw/internal/pebs"
)

func mkSample(t float64, remote bool, lat float64) pebs.Sample {
	s := pebs.Sample{Time: t, Latency: lat, Level: cache.MEM, SrcNode: 1, HomeNode: 1}
	if remote {
		s.HomeNode = 0
	}
	return s
}

func TestTimelineBuckets(t *testing.T) {
	// Remote pressure only in the second half of the run.
	var samples []pebs.Sample
	for i := 0; i < 50; i++ {
		samples = append(samples, mkSample(float64(i), false, 200))
	}
	for i := 50; i < 100; i++ {
		samples = append(samples, mkSample(float64(i), true, 900))
	}
	buckets := Timeline(samples, 4, 1)
	if len(buckets) != 4 {
		t.Fatalf("%d buckets", len(buckets))
	}
	if buckets[0].RemoteSamples != 0 || buckets[1].RemoteSamples != 0 {
		t.Errorf("first half should have no remote samples: %+v", buckets[:2])
	}
	if buckets[2].RemoteSamples == 0 || buckets[3].RemoteSamples == 0 {
		t.Errorf("second half should be remote: %+v", buckets[2:])
	}
	if buckets[3].AvgRemoteLatency < 890 || buckets[3].AvgRemoteLatency > 910 {
		t.Errorf("remote latency %f, want ~900", buckets[3].AvgRemoteLatency)
	}
	var total float64
	for _, b := range buckets {
		total += b.RemoteSamples
	}
	if total != 50 {
		t.Errorf("buckets hold %f remote samples, want 50", total)
	}
	// Contiguous, ordered slices.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Start != buckets[i-1].End {
			t.Errorf("bucket %d not contiguous", i)
		}
	}
}

func TestTimelineWeight(t *testing.T) {
	samples := []pebs.Sample{mkSample(0, true, 500), mkSample(1, true, 500)}
	buckets := Timeline(samples, 1, 10)
	if buckets[0].RemoteSamples != 20 {
		t.Errorf("weighted counts: %+v", buckets[0])
	}
	if buckets[0].AvgRemoteLatency != 500 {
		t.Errorf("latency must not scale with weight: %f", buckets[0].AvgRemoteLatency)
	}
}

func TestTimelineEdgeCases(t *testing.T) {
	if Timeline(nil, 4, 1) != nil {
		t.Error("empty samples should give nil")
	}
	if Timeline([]pebs.Sample{mkSample(5, true, 100)}, 0, 1) != nil {
		t.Error("zero buckets should give nil")
	}
	// Single instant: still a valid bucket.
	b := Timeline([]pebs.Sample{mkSample(5, true, 100)}, 3, 1)
	if len(b) != 3 {
		t.Fatalf("%d buckets", len(b))
	}
	var total float64
	for _, x := range b {
		total += x.RemoteSamples
	}
	if total != 1 {
		t.Errorf("sample lost: %f", total)
	}
}

func TestSparkline(t *testing.T) {
	buckets := []Bucket{
		{AvgRemoteLatency: 0},
		{AvgRemoteLatency: 100, RemoteSamples: 1},
		{AvgRemoteLatency: 800, RemoteSamples: 1},
	}
	s := Sparkline(buckets, RemoteLatencyMetric)
	if utf8.RuneCountInString(s) != 3 {
		t.Fatalf("sparkline %q has %d runes", s, utf8.RuneCountInString(s))
	}
	runes := []rune(s)
	if runes[0] != ' ' {
		t.Errorf("zero bucket rendered %q", runes[0])
	}
	if runes[2] != '█' {
		t.Errorf("peak bucket rendered %q, want full block", runes[2])
	}
	if runes[1] == ' ' || runes[1] == '█' {
		t.Errorf("mid bucket rendered %q", runes[1])
	}
	// All-zero timeline renders spaces, not a panic.
	blank := Sparkline([]Bucket{{}, {}}, func(b Bucket) float64 { return b.RemoteSamples })
	if blank != "  " {
		t.Errorf("blank sparkline %q", blank)
	}
	if Sparkline(nil, RemoteLatencyMetric) != "" {
		t.Error("empty sparkline should be empty")
	}
}
