package experiments

import (
	"slices"
	"testing"

	"trafficreshape/internal/reshape"
	"trafficreshape/internal/stats"
	"trafficreshape/internal/trace"
)

// TestSchemeRegistry pins the registry contract the distributed
// backend depends on: every listed name reconstructs a scheme whose
// Name is its wire name — the name itself, or for an alias its
// canonical registered scheme's (the coordinator ships the name, the
// worker resolves it — a mismatch would evaluate the wrong cell).
func TestSchemeRegistry(t *testing.T) {
	names := SchemeNames()
	if want := len(schemeRegistry) + len(schemeAliases); len(names) != want {
		t.Fatalf("SchemeNames lists %d names, want %d", len(names), want)
	}
	for _, name := range names {
		s, err := NamedScheme(nil, name)
		if err != nil {
			t.Errorf("NamedScheme(%q): %v", name, err)
			continue
		}
		want := name
		if canonical, ok := schemeAliases[name]; ok {
			if _, registered := schemeRegistry[canonical]; !registered {
				t.Errorf("alias %q resolves to unregistered %q", name, canonical)
			}
			if _, chained := schemeAliases[canonical]; chained {
				t.Errorf("alias %q resolves to another alias %q", name, canonical)
			}
			want = canonical
		}
		if s.Name != want {
			t.Errorf("NamedScheme(%q) built scheme named %q, want %q", name, s.Name, want)
		}
		wire, ok := s.WireName()
		if !ok || wire != want {
			t.Errorf("scheme %q is not wire-representable as %q (got %q, %v)", name, want, wire, ok)
		}
		if s.groups == nil {
			t.Errorf("scheme %q has no partition", name)
		}
	}
	for alias := range schemeAliases {
		if _, ok := schemeRegistry[alias]; ok {
			t.Errorf("%q is both an alias and a registered scheme", alias)
		}
	}
	if _, err := NamedScheme(nil, "no-such-scheme"); err == nil {
		t.Error("unknown scheme name did not error")
	}
}

// TestSchemeAliasesPartitionAlike: each alias partitions every
// application's test trace exactly as its definition before it became
// an alias did (Table V's I = 3 point, the policy ablation's paper
// ranges), packet for packet. An edit to either definition's ranges
// that would make it differ from OR fails here instead of silently
// merging two schemes' cells.
func TestSchemeAliasesPartitionAlike(t *testing.T) {
	i3, err := reshape.SelectRanges(3)
	if err != nil {
		t.Fatal(err)
	}
	former := map[string]reshape.Ranges{
		"OR-I3":         i3,
		policyPoints[0]: reshape.PaperRanges3(),
	}
	if len(former) != len(schemeAliases) {
		t.Fatalf("%d aliases, %d former definitions", len(schemeAliases), len(former))
	}
	ds := quickDataset(t)
	for alias, ranges := range former {
		or, err := reshape.NewOrthogonal(ranges)
		if err != nil {
			t.Fatal(err)
		}
		s := mustNamed(ds, alias)
		for _, app := range trace.Apps {
			want := reshape.Apply(or, ds.Test[app])
			got := s.Partition(app, ds.Test[app], stats.NewRNG(1))
			if !slices.EqualFunc(got, want, func(a, b *trace.Trace) bool { return slices.Equal(a.Packets, b.Packets) }) {
				t.Errorf("%s on %v: partition differs from its former definition", alias, app)
			}
		}
	}
}

// TestAdHocSchemesAreNotWireable: a scheme literal built outside the
// registry has no partition and must refuse a wire name, even when it
// is named like a registered scheme.
func TestAdHocSchemesAreNotWireable(t *testing.T) {
	if _, ok := (Scheme{Name: "OR"}).WireName(); ok {
		t.Error("ad-hoc scheme named like a registered one claims to be wireable")
	}
}

// TestStandardSchemesAreWireable: the Tables II/III columns must all
// ship to workers — they are the headline grid.
func TestStandardSchemesAreWireable(t *testing.T) {
	for _, s := range StandardSchemes() {
		if _, ok := s.WireName(); !ok {
			t.Errorf("standard scheme %q is not wire-representable", s.Name)
		}
	}
}
