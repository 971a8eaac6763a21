package dist

// The placement policy behind popJobs: a FIFO queue with
// locality-aware worker preference.
//
// Order. Cells queue in submission order; reclaimed and stranded cells
// go back to the front. A cost-ordered queue (longest estimated cell
// first) was measured against this FIFO on the fleet-cold benchmark
// and did not pay, so the queue carries no cost model.
//
// Locality. Captured cells name content-addressed traces; dispatching
// one to a worker that already holds them costs nothing, while an
// uncovered worker pays the preload transfer. popJobs therefore lets
// an uncovered worker pass over a captured cell exactly when some
// covered worker has a free slot registered at that instant —
// work-conserving by construction: if no covered worker can take the
// cell right now, whoever is asking gets it (and the preload).

// covers reports whether the session's trace holdings include every
// digest the job names. A job without captured traces is covered by
// everyone.
func covers(s *session, j *job) bool {
	for _, d := range j.digests {
		if !s.sent[d] {
			return false
		}
	}
	return true
}
