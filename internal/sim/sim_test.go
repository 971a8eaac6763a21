package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"trafficreshape/internal/stats"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := New()
	var order []int
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", k.Now())
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Second, func() { order = append(order, i) })
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie broken out of insertion order: %v", order)
		}
	}

	// Three events at one time, queued by At among events at other
	// times, still fire in the order they were queued.
	k = New()
	var got []string
	for _, ev := range []struct {
		at   time.Duration
		name string
	}{
		{2 * time.Second, "a"}, {3 * time.Second, "late"}, {2 * time.Second, "b"},
		{time.Second, "early"}, {2 * time.Second, "c"},
	} {
		name := ev.name
		if _, err := k.At(ev.at, func() { got = append(got, name) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := "early a b c late"; strings.Join(got, " ") != want {
		t.Fatalf("fired %v, want %s", got, want)
	}
}

func TestScheduleInPastFails(t *testing.T) {
	k := New()
	k.After(time.Second, func() {
		if _, err := k.At(500*time.Millisecond, func() {}); err == nil {
			t.Error("scheduling in the past should fail")
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	var times []time.Duration
	k.After(time.Second, func() {
		times = append(times, k.Now())
		k.After(time.Second, func() {
			times = append(times, k.Now())
		})
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("nested scheduling wrong: %v", times)
	}
}

func TestRunLimit(t *testing.T) {
	k := New()
	var tick func()
	tick = func() { k.After(time.Millisecond, tick) }
	k.After(time.Millisecond, tick)
	if err := k.Run(100); err == nil {
		t.Fatal("runaway simulation should hit the event limit")
	}
}

func TestFiredCount(t *testing.T) {
	k := New()
	for i := 0; i < 7; i++ {
		k.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.fired != 7 {
		t.Errorf("fired = %d, want 7", k.fired)
	}
}

// Property: however events are scheduled, execution times are
// non-decreasing.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		k := New()
		var last time.Duration
		ok := true
		for i := 0; i < 50; i++ {
			d := time.Duration(r.Intn(1000)) * time.Millisecond
			k.After(d, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
