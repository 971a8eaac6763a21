package appgen

import (
	"testing"
	"time"

	"trafficreshape/internal/mac"
	"trafficreshape/internal/trace"
)

// goldenGenerate pins trace.Digest of one minute of each application
// at master seed 1: the exact packet sequence every table and figure
// is computed from. A change to the generators or to trace.Merge that
// moves one packet, or reorders two with equal timestamps, fails here.
var goldenGenerate = map[trace.App]string{
	trace.Browsing:    "e287f947205c9b3d1cce0da7e948ffb6dc14ea31c1e8d60572428e6caf7048b8",
	trace.Chatting:    "ef37b21a4e97562cfedb8b3bf3801216f048886d83abcc37cc77a52635f99424",
	trace.Gaming:      "3fde4ecc362989c298e077c59ff6579425d332f0b2e871cd47e37406e92ebab5",
	trace.Downloading: "1495ae19cd9e9e380c7d9a7f3b75008cdd57f436baaa2dc75807fbcbfd256117",
	trace.Uploading:   "bdfdeadd263d3b9515057cda0c59482acadc7223d15da853711596218cc1242e",
	trace.Video:       "3148e267ccd1fff7755297656c50e17e56e32aca141da1373326308e843ce1cd",
	trace.BitTorrent:  "105c2bf24c223cb06542531def376ccfafc265b00d5c09cb8fd0085d2fd96b5a",
}

func TestGoldenGenerate(t *testing.T) {
	for _, app := range trace.Apps {
		got := trace.Digest(Generate(app, 60*time.Second, AppSeed(1, app)))
		if want := goldenGenerate[app]; got != want {
			t.Errorf("%v: digest = %s, want %s", app, got, want)
		}
	}
}

// goldenCaptureSHA is the digest of goldenCapture.
const goldenCaptureSHA = "538c4048f298078c1a8fb26ddb331ae2117e2ae3dbd99e6a675166cbe77328c0"

// goldenCapture is a multi-flow capture: eight one-minute flows of
// every application, each under its own address, merged into one
// arrival-ordered stream, in the shape of the daemon benchmark's
// capture. Its 469 361 packets interleave 56 sorted runs, and two
// pairs of packets from different flows share a timestamp, so the
// pin also holds Merge's tie order (earlier argument first).
func goldenCapture() *trace.Trace {
	const flowsPerApp = 8
	flows := make([]*trace.Trace, 0, trace.NumApps*flowsPerApp)
	for i, app := range trace.Apps {
		for f := 0; f < flowsPerApp; f++ {
			tr := Generate(app, 60*time.Second, 1<<8|uint64(i*flowsPerApp+f))
			addr := mac.Address{0x02, 0x00, 0x5e, 0x00, byte(f), byte(i + 1)}
			for j := range tr.Packets {
				tr.Packets[j].MAC = addr
			}
			flows = append(flows, tr)
		}
	}
	return trace.Merge(flows...)
}

func TestGoldenCaptureMerge(t *testing.T) {
	if got := trace.Digest(goldenCapture()); got != goldenCaptureSHA {
		t.Errorf("capture digest = %s, want %s", got, goldenCaptureSHA)
	}
}
