package dist

// StatsSnapshot is the coordinator's operator-facing placement record.
//
// Its readers are cmd/experiments (the stderr stats line) and the
// bench module's fleet workload, both in this repository, so a
// removed or renamed field breaks their build rather than a silent
// consumer. TestStatsSnapshotFieldStability pins the fields and their
// types. The snapshot is a value copy; mutating it never touches the
// coordinator's live counters.
type StatsSnapshot struct {
	// RemoteCells were evaluated by worker processes.
	RemoteCells int
	// LocalCells were evaluated in-process (no workers connected, or
	// fallback after worker failure).
	LocalCells int
	// Reassigned counts cells re-queued because their worker died —
	// or exceeded CellTimeout — before answering.
	Reassigned int
	// TimedOut counts cells reclaimed from wedged-but-alive workers
	// after CellTimeout.
	TimedOut int
	// LateDuplicates counts answers that arrived for cells no longer
	// in flight on their connection — a reclaimed cell's original
	// worker finally responding — and were deduplicated (discarded).
	// Distinct from TimedOut: a timeout may never produce a late
	// answer, and a single timed-out cell produces at most one.
	LateDuplicates int
	// RemoteCacheHits counts delivered remote answers the worker
	// served from its result cache instead of re-evaluating.
	RemoteCacheHits int
	// TracesSent counts captured-trace preload frames pushed to
	// workers (each trace travels at most once per worker connection,
	// and not at all when the worker announced it already held it).
	TracesSent int
	// HandshakesRejected counts connections turned away at the door:
	// bad magic or version, failed auth, or a broken/timed-out
	// handshake exchange (including plaintext peers on a TLS port).
	HandshakesRejected int
	// WorkersJoined and WorkersLost count fleet membership events.
	WorkersJoined int
	WorkersLost   int

	// --- scheduler observability --------------------------------------

	// QueueDepth is the number of cells queued (not yet dispatched) at
	// snapshot time; MaxQueueDepth is the high-water mark.
	QueueDepth    int
	MaxQueueDepth int
	// BatchesSent counts dispatch frames sent to workers; BatchedCells
	// counts the cells they carried, so BatchedCells/BatchesSent is
	// the realized mean batch size.
	BatchesSent  int
	BatchedCells int
	// LocalityPlacements counts captured cells placed on a worker
	// whose announced trace holdings already covered every digest the
	// cell names (no preload needed). LocalityMisses counts captured
	// cells that had to go to an uncovered worker — because no covered
	// worker had a free slot — paying the preload.
	LocalityPlacements int
	LocalityMisses     int
	// LocalityDeferrals counts scan events where an uncovered worker
	// passed over a captured cell because a covered worker with a free
	// slot existed to take it. The scheduler invariant the placement
	// tests pin: a fully covered captured cell is never dispatched to
	// a trace-less worker while a covered worker has a free slot.
	LocalityDeferrals int

	// --- fault tolerance (heartbeat liveness + grid journal) ---------

	// PingsSent and PongsReceived count heartbeat traffic
	// (CoordinatorOptions.Heartbeat > 0). They need not match:
	// pings to a blackholed worker are sent into the void.
	PingsSent     int
	PongsReceived int
	// HeartbeatReaps counts sessions dropped by the liveness probe —
	// no inbound frame for three heartbeat intervals. The reaped
	// worker's in-flight cells are requeued and also count under
	// Reassigned; the session also counts under WorkersLost.
	HeartbeatReaps int
	// CorruptFrames counts established sessions dropped because a
	// frame failed to decode — mid-session garbage, as opposed to the
	// pre-handshake rejections under HandshakesRejected. The session's
	// in-flight cells are requeued.
	CorruptFrames int
	// JournalHits counts grid cells answered from the attached
	// GridJournal instead of being dispatched or evaluated. With a
	// journal attached, every grid satisfies
	// offered = RemoteCells + LocalCells + JournalHits.
	JournalHits int

	// Workers holds one snapshot per currently connected worker, in
	// unspecified order.
	Workers []WorkerSnapshot
}

// WorkerSnapshot is one connected worker's occupancy at snapshot time.
type WorkerSnapshot struct {
	// Name is the worker's remote address.
	Name string
	// Slots is the worker's advertised concurrency; InFlight is how
	// many of its slots hold unanswered cells right now; Wedged is how
	// many of those have been reclaimed by timeout but still occupy
	// the slot until the worker answers.
	Slots    int
	InFlight int
	Wedged   int
	// Cells counts cells dispatched to this worker over its
	// connection; Batches counts the frames that carried them.
	Cells   int
	Batches int
}
