package dist

// TestStatsSnapshotFieldStability pins the StatsSnapshot and
// WorkerSnapshot fields with their types, via reflection: removing or
// retyping one fails here as well as in its readers' builds. Adding a
// field does not fail this test; add it to the table when it ships.

import (
	"reflect"
	"testing"
)

func TestStatsSnapshotFieldStability(t *testing.T) {
	promised := func(typ reflect.Type, fields map[string]string) {
		t.Helper()
		for name, want := range fields {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Errorf("%s.%s: promised field is gone", typ.Name(), name)
				continue
			}
			if got := f.Type.String(); got != want {
				t.Errorf("%s.%s: type changed to %s, promised %s", typ.Name(), name, got, want)
			}
		}
	}

	promised(reflect.TypeOf(StatsSnapshot{}), map[string]string{
		// Placement and membership.
		"RemoteCells":        "int",
		"LocalCells":         "int",
		"Reassigned":         "int",
		"TimedOut":           "int",
		"LateDuplicates":     "int",
		"RemoteCacheHits":    "int",
		"TracesSent":         "int",
		"HandshakesRejected": "int",
		"WorkersJoined":      "int",
		"WorkersLost":        "int",
		// Scheduler observability.
		"QueueDepth":         "int",
		"MaxQueueDepth":      "int",
		"BatchesSent":        "int",
		"BatchedCells":       "int",
		"LocalityPlacements": "int",
		"LocalityMisses":     "int",
		"LocalityDeferrals":  "int",
		"Workers":            "[]dist.WorkerSnapshot",
	})

	promised(reflect.TypeOf(WorkerSnapshot{}), map[string]string{
		"Name":     "string",
		"Slots":    "int",
		"InFlight": "int",
		"Wedged":   "int",
		"Cells":    "int",
		"Batches":  "int",
	})

	// A snapshot is a value copy: mutating it must not alias live
	// coordinator state. Workers is the only reference-typed field, so
	// pin that Stats() hands out a freshly built slice.
	c := newTestCoordinator()
	c.sessions[newTestSession()] = true
	a, b := c.Stats(), c.Stats()
	if len(a.Workers) != 1 || len(b.Workers) != 1 {
		t.Fatalf("snapshots saw %d/%d workers, want 1", len(a.Workers), len(b.Workers))
	}
	a.Workers[0].Cells = 999
	if b.Workers[0].Cells == 999 {
		t.Error("two snapshots share one Workers slice; Stats must copy")
	}
}
