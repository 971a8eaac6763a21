package experiments

import "testing"

// TestSchemeRegistry pins the registry contract the distributed
// backend depends on: every registered name reconstructs a scheme
// whose Name matches its wire name (the coordinator ships the name,
// the worker resolves it — a mismatch would evaluate the wrong cell).
func TestSchemeRegistry(t *testing.T) {
	names := SchemeNames()
	if len(names) == 0 {
		t.Fatal("empty scheme registry")
	}
	for _, name := range names {
		s, err := NamedScheme(nil, name)
		if err != nil {
			t.Errorf("NamedScheme(%q): %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("NamedScheme(%q) built scheme named %q", name, s.Name)
		}
		wire, ok := s.WireName()
		if !ok || wire != name {
			t.Errorf("registry scheme %q is not wire-representable (got %q, %v)", name, wire, ok)
		}
		if s.partition == nil {
			t.Errorf("scheme %q has no partition", name)
		}
	}
	if _, err := NamedScheme(nil, "no-such-scheme"); err == nil {
		t.Error("unknown scheme name did not error")
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
