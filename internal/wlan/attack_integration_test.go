package wlan

import (
	"testing"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/radio"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/trace"
)

// sniffDataFrames records every data frame on the channel into a
// trace keyed by the observed (virtual) address — the full attacker
// observable, built from actual frames rather than from the offline
// trace transform.
func sniffDataFrames(n *Network) *trace.Trace {
	tr := trace.New(0)
	n.Medium.Subscribe(n.AP.Channel, radio.Position{X: 22, Y: 11}, func(tx radio.Transmission, rssi float64) {
		f, err := mac.Unmarshal(tx.Payload)
		if err != nil || f.Type != mac.TypeData {
			return
		}
		addr := f.Addr1
		dir := trace.Downlink
		if f.IsUplink() {
			addr = f.Addr2
			dir = trace.Uplink
		}
		tr.Append(trace.Packet{
			Time: n.Kernel.Now(),
			Size: int32(tx.Size),
			Dir:  dir,
			MAC:  addr,
			Seq:  f.Seq,
			RSSI: rssi,
		})
	})
	return tr
}

// TestOverTheAirAttackMatchesOfflinePipeline replays real application
// traffic through the simulated WLAN with OR reshaping, captures it
// with a monitor-mode sniffer, and attacks the capture. The outcome
// must match the offline pipeline's Table II story: downloading stays
// recognizable, video collapses into downloading.
func TestOverTheAirAttackMatchesOfflinePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack capture is slow")
	}
	w := 5 * time.Second
	clf, err := attack.Train(appgen.GenerateAll(240*time.Second, 61), attack.TrainOptions{
		W: w, Seed: 62,
	})
	if err != nil {
		t.Fatal(err)
	}

	runApp := func(app trace.App, seed uint64) *trace.Trace {
		n := NewNetwork(Config{Seed: seed})
		sta := n.NewStation(radio.Position{X: 5})
		sta.Associate()
		if err := n.Kernel.Run(1000); err != nil {
			t.Fatal(err)
		}
		if err := sta.RequestVirtualInterfaces(3, func(int) reshape.Scheduler {
			return reshape.Recommended()
		}); err != nil {
			t.Fatal(err)
		}
		if err := n.Kernel.Run(10_000); err != nil {
			t.Fatal(err)
		}
		captured := sniffDataFrames(n)
		workload := appgen.Generate(app, 60*time.Second, seed+7)
		n.ReplayTrace(sta, workload)
		if err := n.Kernel.Run(0); err != nil {
			t.Fatal(err)
		}
		return captured
	}

	// Downloading over the air: the large-packet interface flow must
	// still classify as downloading.
	doCapture := runApp(trace.Downloading, 63)
	if len(doCapture.ByMAC()) < 1 {
		t.Fatal("sniffer captured no flows")
	}
	doConf := clf.AttackTrace(doCapture, trace.Downloading, w)
	if acc, ok := doConf.Accuracy(trace.Downloading); !ok || acc < 0.9 {
		t.Errorf("over-the-air downloading accuracy = %.2f/%v, want >= 0.9 (offline pipeline: 1.0)", acc, ok)
	}

	// Video over the air: collapses (classified as downloading, not
	// video), matching Table II's vo. = 0.00.
	voCapture := runApp(trace.Video, 64)
	voConf := clf.AttackTrace(voCapture, trace.Video, w)
	if acc, ok := voConf.Accuracy(trace.Video); ok && acc > 0.15 {
		t.Errorf("over-the-air video accuracy = %.2f, want collapsed (offline pipeline: 0.0)", acc)
	}
	if voConf.Total() == 0 {
		t.Fatal("video capture produced no classification windows")
	}

	// The captured sizes include MAC framing the offline pipeline
	// also models (AirLength = payload + 28), so the same classifier
	// applies to both without recalibration — which is what the
	// agreement above demonstrates.
}
