package radio

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/stats"
)

func TestAirtimeScalesWithSizeAndRate(t *testing.T) {
	small := Airtime(100, 54)
	big := Airtime(1576, 54)
	if big <= small {
		t.Fatal("bigger frames must take longer")
	}
	fast := Airtime(1576, 54)
	slow := Airtime(1576, 6)
	if slow <= fast {
		t.Fatal("slower rates must take longer")
	}
	// 1576 bytes at 54 Mbps ≈ 233 µs + 20 µs preamble.
	bits := float64(1576 * 8)
	want := 20*time.Microsecond + time.Duration(bits/54e6*1e9)*time.Nanosecond
	got := Airtime(1576, 54)
	if d := got - want; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("airtime = %v, want ≈ %v", got, want)
	}
}

func TestAirtimeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size should panic")
		}
	}()
	Airtime(-1, 54)
}

func TestPathLossMonotone(t *testing.T) {
	pl := DefaultPathLoss()
	prev := math.Inf(1)
	for _, d := range []float64{1, 2, 5, 10, 20, 50} {
		rssi := pl.RSSIAt(d, nil)
		if rssi >= prev {
			t.Fatalf("RSSI not decreasing with distance at %vm", d)
		}
		prev = rssi
	}
}

func TestPathLossResidentialRange(t *testing.T) {
	// The paper's measurement: RSSI around -50 dBm in a home setting.
	pl := DefaultPathLoss()
	rssi := pl.RSSIAt(5, nil)
	if rssi < -65 || rssi > -35 {
		t.Errorf("RSSI at 5m = %.1f dBm, want residential ballpark around -50", rssi)
	}
}

func TestPathLossShadowing(t *testing.T) {
	pl := DefaultPathLoss()
	r := stats.NewRNG(1)
	base := pl.RSSIAt(10, nil)
	var sum, ss float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := pl.RSSIAt(10, r)
		sum += v
		ss += (v - base) * (v - base)
	}
	mean := sum / n
	if math.Abs(mean-base) > 0.2 {
		t.Errorf("shadowed mean %.2f strays from %.2f", mean, base)
	}
	std := math.Sqrt(ss / n)
	if math.Abs(std-pl.ShadowSigmaDB) > 0.3 {
		t.Errorf("shadowing std %.2f, want ~%.2f", std, pl.ShadowSigmaDB)
	}
}

func TestMediumDelivery(t *testing.T) {
	m := NewMedium(DefaultPathLoss(), 2)
	var got []Transmission
	var rssis []float64
	m.Subscribe(6, Position{X: 10}, func(tx Transmission, rssi float64) {
		got = append(got, tx)
		rssis = append(rssis, rssi)
	})
	m.Transmit(0, Transmission{Channel: 6, Size: 1000, TxPos: Position{}}, 54)
	m.Transmit(time.Second, Transmission{Channel: 11, Size: 1000, TxPos: Position{}}, 54)
	if len(got) != 1 {
		t.Fatalf("listener heard %d frames, want 1 (only its channel)", len(got))
	}
	if rssis[0] > -20 || rssis[0] < -90 {
		t.Errorf("implausible RSSI %v", rssis[0])
	}
}

func TestMediumSerializesChannel(t *testing.T) {
	m := NewMedium(DefaultPathLoss(), 3)
	start1, free1 := m.Transmit(0, Transmission{Channel: 1, Size: 1576}, 6)
	if start1 != 0 {
		t.Fatal("idle channel should start immediately")
	}
	// Second frame while channel busy: delayed to free1.
	start2, free2 := m.Transmit(free1/2, Transmission{Channel: 1, Size: 100}, 6)
	if start2 != free1 {
		t.Fatalf("busy channel: start = %v, want %v", start2, free1)
	}
	if free2 <= start2 {
		t.Fatal("free time must follow start")
	}
	// Other channels unaffected.
	start3, _ := m.Transmit(0, Transmission{Channel: 6, Size: 100}, 6)
	if start3 != 0 {
		t.Fatal("different channel should be idle")
	}
	if m.busy[1] != free2 {
		t.Fatal("channel 1 frees up at the wrong time")
	}
}

func TestMediumUnsubscribe(t *testing.T) {
	m := NewMedium(DefaultPathLoss(), 4)
	count := 0
	unsub := m.Subscribe(1, Position{}, func(Transmission, float64) { count++ })
	m.Transmit(0, Transmission{Channel: 1, Size: 10}, 54)
	unsub()
	m.Transmit(0, Transmission{Channel: 1, Size: 10}, 54)
	if count != 1 {
		t.Fatalf("heard %d frames, want 1 after unsubscribe", count)
	}
}

func TestMediumTPCOffsetShiftsRSSI(t *testing.T) {
	pl := DefaultPathLoss()
	pl.ShadowSigmaDB = 0 // isolate the offset
	m := NewMedium(pl, 5)
	var rssis []float64
	m.Subscribe(1, Position{X: 10}, func(_ Transmission, rssi float64) { rssis = append(rssis, rssi) })
	m.Transmit(0, Transmission{Channel: 1, Size: 10}, 54)
	m.Transmit(0, Transmission{Channel: 1, Size: 10, TxPowerOffsetDB: -7}, 54)
	if len(rssis) != 2 {
		t.Fatal("expected two observations")
	}
	if d := rssis[0] - rssis[1]; math.Abs(d-7) > 1e-9 {
		t.Errorf("TPC offset shifted RSSI by %.2f dB, want 7", d)
	}
}

// Property: airtime is monotone in size for any rate.
func TestAirtimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint16, rateIdx uint8) bool {
		// The 802.11b and 802.11a/g rate sets (1 to 54 Mbps, §IV-A).
		rates := []Rate{1, 2, 5.5, 11, 6, 9, 12, 18, 24, 36, 48, 54}
		rate := rates[int(rateIdx)%len(rates)]
		sa, sb := int(a), int(b)
		if sa > sb {
			sa, sb = sb, sa
		}
		return Airtime(sa, rate) <= Airtime(sb, rate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPositionDistance(t *testing.T) {
	a := Position{0, 0}
	b := Position{3, 4}
	if d := a.Distance(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	if d := a.Distance(a); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}
