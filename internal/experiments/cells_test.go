package experiments

import (
	"math"
	"reflect"
	"testing"

	"trafficreshape/internal/attack"
	"trafficreshape/internal/mac"
	"trafficreshape/internal/trace"
)

// partitionFlows materialises one (scheme, app) cell the way the
// adversary observes it: the scheme's sub-flows (Partition) under the
// cell's private randomness, each minted its own MAC address from the
// cell's address stream.
func partitionFlows(ds *Dataset, s Scheme, app trace.App) (map[mac.Address]*trace.Trace, map[mac.Address]trace.App) {
	r := cellRNG(ds, s, app)
	addrRNG := r.SplitAt(0)
	parts := s.Partition(app, ds.Test[app], r.SplitAt(1))
	flows := make(map[mac.Address]*trace.Trace, len(parts))
	truth := make(map[mac.Address]trace.App, len(parts))
	for _, p := range parts {
		addr := mac.RandomAddress(addrRNG)
		flows[addr] = p
		truth[addr] = app
	}
	return flows, truth
}

// schemeFlows is the union of a scheme's per-app cells, materialised.
func schemeFlows(ds *Dataset, s Scheme) (map[mac.Address]*trace.Trace, map[mac.Address]trace.App) {
	flows := make(map[mac.Address]*trace.Trace)
	truth := make(map[mac.Address]trace.App)
	for _, app := range trace.Apps {
		f, tr := partitionFlows(ds, s, app)
		for addr, p := range f {
			flows[addr] = p
			truth[addr] = tr[addr]
		}
	}
	return flows, truth
}

// TestEvalCellMatchesPartition holds every registered scheme, aliases
// included, to the materialised path for every application at two
// seeds: evalCell's vectors equal, bit for bit and in order, what
// attack.WindowFlows extracts from Partition's sub-flows under
// the minted addresses, and its confusions equal AttackWindowed's on
// them. The second seed reruns the cells on a copy of the dataset with
// another master seed, which redraws the addresses, RA's assignments
// and the morph seeds without retraining. One scratch serves every
// cell, as a pool worker's does.
func TestEvalCellMatchesPartition(t *testing.T) {
	base := quickDataset(t)
	other := *base
	other.Cfg.Seed ^= 0x9e3779b9
	var sc cellScratch
	for _, ds := range []*Dataset{base, &other} {
		for _, name := range SchemeNames() {
			s := mustNamed(ds, name)
			for _, app := range trace.Apps {
				got := evalCell(&sc, ds, s, app)
				flows, truth := partitionFlows(ds, s, app)
				want := attack.WindowFlows(flows, truth, ds.Cfg.W)
				if len(sc.fw.X) != len(want.X) || !reflect.DeepEqual(sc.fw.Truth, want.Truth) {
					t.Fatalf("seed %d %s/%v: %d vectors, want %d", ds.Cfg.Seed, name, app, len(sc.fw.X), len(want.X))
				}
				for k := range want.X {
					for d := range want.X[k] {
						if math.Float64bits(sc.fw.X[k][d]) != math.Float64bits(want.X[k][d]) {
							t.Fatalf("seed %d %s/%v: vector %d feature %d = %v, want %v", ds.Cfg.Seed, name, app, k, d, sc.fw.X[k][d], want.X[k][d])
						}
					}
				}
				for i, clf := range ds.Classifiers {
					if w := clf.AttackWindowed(want); *got[i] != *w {
						t.Errorf("seed %d %s/%v: %s confusion differs from the materialised path", ds.Cfg.Seed, name, app, clf.Model.Name())
					}
				}
			}
		}
	}
}
