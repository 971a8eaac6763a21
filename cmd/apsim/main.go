// Command apsim runs the full WLAN simulation end to end: an AP and a
// client bring up virtual MAC interfaces over the encrypted Figure 2
// handshake, replay an application workload through the reshaped
// Figure 3 data path, and a monitor-mode sniffer reports what an
// eavesdropper would see per observed MAC address.
//
// Usage:
//
//	apsim -app bittorrent -duration 10s -i 3
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"trafficreshape/internal/appgen"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/radio"
	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
	"trafficreshape/internal/wlan"
)

func main() {
	appName := flag.String("app", "bittorrent", "application workload")
	duration := flag.Duration("duration", 10*time.Second, "workload duration")
	ifaces := flag.Int("i", 3, "virtual interfaces I")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	app, err := trace.ParseApp(*appName)
	if err != nil {
		fatal(err)
	}

	n := wlan.NewNetwork(wlan.Config{Seed: *seed})
	sta := n.NewStation(radio.Position{X: 5})

	// Monitor-mode sniffer: records per-address traffic and RSSI,
	// exactly the attacker's observables.
	type flowStats struct {
		count int
		bytes int64
		rssi  []float64
		sizes []float64
	}
	observed := make(map[mac.Address]*flowStats)
	n.Medium.Subscribe(6, radio.Position{X: 18, Y: 9}, func(tx radio.Transmission, rssi float64) {
		f, err := mac.Unmarshal(tx.Payload)
		if err != nil || f.Type != mac.TypeData {
			return
		}
		addr := f.Addr1
		if f.IsUplink() {
			addr = f.Addr2
		}
		fs := observed[addr]
		if fs == nil {
			fs = &flowStats{}
			observed[addr] = fs
		}
		fs.count++
		fs.bytes += int64(tx.Size)
		fs.rssi = append(fs.rssi, rssi)
		fs.sizes = append(fs.sizes, float64(tx.Size))
	})

	sta.Associate()
	if err := n.Kernel.Run(100_000); err != nil {
		fatal(err)
	}
	if !sta.Associated() {
		fatal(fmt.Errorf("association failed"))
	}
	fmt.Printf("station %s associated with AP %s on channel 6\n", sta.Phys, n.AP.Addr)

	if err := sta.RequestVirtualInterfaces(*ifaces, func(int) reshape.Scheduler {
		ranges, err := reshape.SelectRanges(*ifaces)
		if err != nil {
			fatal(err)
		}
		or, err := reshape.NewOrthogonal(ranges)
		if err != nil {
			fatal(err)
		}
		return or
	}); err != nil {
		fatal(err)
	}
	if err := n.Kernel.Run(100_000); err != nil {
		fatal(err)
	}
	fmt.Printf("configured %d virtual interfaces:\n", sta.Interfaces())
	for i := 0; i < sta.Interfaces(); i++ {
		a, _ := sta.VirtualAt(i)
		fmt.Printf("  #%d %s\n", i, a)
	}

	workload := appgen.Generate(app, *duration, *seed+99)
	fmt.Printf("\nreplaying %d %s packets through the reshaped data path...\n", workload.Len(), app)
	n.ReplayTrace(sta, workload)
	if err := n.Kernel.Run(0); err != nil {
		fatal(err)
	}

	fmt.Printf("\nsniffer view (per observed MAC address):\n")
	addrs := make([]mac.Address, 0, len(observed))
	for a := range observed {
		addrs = append(addrs, a)
	}
	slices.SortFunc(addrs, mac.Address.Compare)
	for _, a := range addrs {
		fs := observed[a]
		who := "??"
		switch {
		case a == sta.Phys:
			who = "physical station address"
		case a == n.AP.Addr:
			who = "AP"
		default:
			who = "virtual interface"
		}
		fmt.Printf("  %s  %6d frames  %9d bytes  mean size %7.1f  mean RSSI %6.1f dBm  (%s)\n",
			a, fs.count, fs.bytes, stats.Mean(fs.sizes), stats.Mean(fs.rssi), who)
	}
	fmt.Printf("\nframes delivered to station: %d\n", sta.Received)
	fmt.Println("note: no frame carries the physical address — the adversary sees",
		len(addrs), "apparently unrelated flows")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apsim:", err)
	os.Exit(1)
}
