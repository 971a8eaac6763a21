package wlan

import (
	"testing"
	"time"

	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/radio"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/trace"
)

// sniffUplinkSeqs records (virtual MAC, sequence number, time) for
// every uplink data frame, as a monitor-mode sniffer would.
func sniffUplinkSeqs(n *Network) *trace.Trace {
	tr := trace.New(0)
	n.Medium.Subscribe(n.AP.Channel, radio.Position{X: 25}, func(tx radio.Transmission, _ float64) {
		f, err := mac.Unmarshal(tx.Payload)
		if err != nil || f.Type != mac.TypeData || !f.IsUplink() {
			return
		}
		tr.Append(trace.Packet{
			Time: n.Kernel.Now(),
			Size: int32(tx.Size),
			MAC:  f.Addr2,
			Seq:  f.Seq,
			Dir:  trace.Uplink,
		})
	})
	return tr
}

func runUplinkWorkload(t *testing.T, perInterfaceSeq bool, seed uint64) (*trace.Trace, *Station) {
	t.Helper()
	n := NewNetwork(Config{Seed: seed})
	sta := n.NewStation(radio.Position{X: 5})
	sta.PerInterfaceSeq = perInterfaceSeq
	sta.Associate()
	if err := n.Kernel.Run(1000); err != nil {
		t.Fatal(err)
	}
	if err := sta.RequestVirtualInterfaces(3, func(int) reshape.Scheduler {
		return reshape.Recommended()
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Kernel.Run(1000); err != nil {
		t.Fatal(err)
	}
	sniffed := sniffUplinkSeqs(n)
	// A size mix that spreads across all three interfaces.
	sizes := []int{100, 150, 800, 1500, 120, 1540, 900, 180}
	for i := 0; i < 400; i++ {
		size := sizes[i%len(sizes)]
		n.Kernel.After(time.Duration(i)*5*time.Millisecond, func() {
			_ = sta.SendUplink(size)
		})
	}
	if err := n.Kernel.Run(0); err != nil {
		t.Fatal(err)
	}
	return sniffed, sta
}

// TestSharedCounterLinksVirtualInterfaces demonstrates the hazard: a
// station with one sequence counter across its virtual interfaces is
// re-linkable from header fields alone.
func TestSharedCounterLinksVirtualInterfaces(t *testing.T) {
	sniffed, sta := runUplinkWorkload(t, false, 31)
	if len(sniffed.ByMAC()) < 2 {
		t.Fatal("workload did not exercise multiple interfaces")
	}
	groups := attack.LinkBySequence(sniffed, 8, 0.8)
	var biggest int
	for _, g := range groups {
		if len(g) > biggest {
			biggest = len(g)
		}
	}
	if biggest != len(sniffed.ByMAC()) {
		t.Fatalf("shared-counter station: linked group of %d, want all %d virtual addresses (sta %v)",
			biggest, len(sniffed.ByMAC()), sta.Phys)
	}
}

// TestPerInterfaceCountersDefeatLinking demonstrates the defense.
func TestPerInterfaceCountersDefeatLinking(t *testing.T) {
	sniffed, _ := runUplinkWorkload(t, true, 32)
	if len(sniffed.ByMAC()) < 2 {
		t.Fatal("workload did not exercise multiple interfaces")
	}
	for _, g := range attack.LinkBySequence(sniffed, 8, 0.8) {
		if len(g) > 1 {
			t.Fatalf("per-interface counters still linkable: group %v", g)
		}
	}
}
