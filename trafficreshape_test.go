package trafficreshape

import (
	"testing"
	"time"
)

func TestGenerateFacade(t *testing.T) {
	tr := Generate(BitTorrent, 10*time.Second, 1)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	all := GenerateAll(5*time.Second, 2)
	if len(all) != len(Apps) {
		t.Fatalf("GenerateAll returned %d traces, want %d", len(all), len(Apps))
	}
}

func TestNewReshaperStrategies(t *testing.T) {
	tr := Generate(BitTorrent, 20*time.Second, 3)
	for _, s := range []Strategy{StrategyOR, StrategyORMod, StrategyRandom, StrategyRoundRobin, StrategyFH} {
		r, err := NewReshaper(s, Options{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.Interfaces() < 2 {
			t.Fatalf("%s: %d interfaces", s, r.Interfaces())
		}
		parts := r.Reshape(tr)
		total := 0
		for _, p := range parts {
			total += p.Len()
		}
		if total != tr.Len() {
			t.Fatalf("%s: partition lost packets (%d vs %d)", s, total, tr.Len())
		}
	}
	if _, err := NewReshaper("nonsense", Options{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestNewReshaperInterfaceCounts(t *testing.T) {
	for _, i := range []int{2, 3, 5} {
		r, err := NewReshaper(StrategyOR, Options{Interfaces: i})
		if err != nil {
			t.Fatalf("I=%d: %v", i, err)
		}
		if r.Interfaces() != i {
			t.Fatalf("I=%d: got %d interfaces", i, r.Interfaces())
		}
	}
}

func TestAdversaryEndToEnd(t *testing.T) {
	w := 5 * time.Second
	adv, err := TrainAdversary(GenerateAll(240*time.Second, 5), w, 6)
	if err != nil {
		t.Fatal(err)
	}
	test := Generate(Downloading, 60*time.Second, 7)

	// Unprotected: recognized.
	conf := adv.Attack(test, Downloading, w)
	if acc, ok := conf.Accuracy(Downloading); !ok || acc < 0.9 {
		t.Fatalf("unprotected downloading accuracy = %.2f/%v, want >= 0.9", acc, ok)
	}

	// Reshaped with OR: the attack still sees downloading (Table II),
	// but browsing collapses.
	or, err := NewReshaper(StrategyOR, Options{})
	if err != nil {
		t.Fatal(err)
	}
	br := Generate(Browsing, 60*time.Second, 8)
	confBr := adv.AttackFlows(or.Reshape(br), Browsing, w)
	if acc, ok := confBr.Accuracy(Browsing); ok && acc > 0.4 {
		t.Fatalf("reshaped browsing accuracy = %.2f, want collapsed", acc)
	}
}

func TestDefenseBaselines(t *testing.T) {
	ch := Generate(Chatting, 120*time.Second, 9)
	padded, padOv := PadToMTU(ch)
	if padded.Len() != ch.Len() {
		t.Fatal("padding changed packet count")
	}
	if padOv < 3 {
		t.Fatalf("chatting padding overhead = %.2f, want >= 3 (paper 4.86)", padOv)
	}
	ga := Generate(Gaming, 120*time.Second, 10)
	morphed, morphOv, err := MorphTraffic(ch, ga, 11)
	if err != nil {
		t.Fatal(err)
	}
	if morphed.Len() != ch.Len() {
		t.Fatal("morphing changed packet count")
	}
	if morphOv <= 0 || morphOv >= padOv {
		t.Fatalf("morphing overhead %.2f must be positive and below padding's %.2f", morphOv, padOv)
	}
}
