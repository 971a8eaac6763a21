package stream

import "time"

// watchdog supervises the shard goroutines, mirroring the distributed
// driver's per-cell timeout: work that stops making progress is
// abandoned and its owner replaced, rather than wedging the producer
// forever. A shard is wedged when it is busy (mid-message) and its
// heartbeat has not advanced for the configured timeout; the reap
// swaps in a fresh shard restored from the slot's last checkpoint
// snapshot and leaves the husk draining into the lost counters.
//
// The timeout must comfortably exceed the worst-case processing time
// of one batch: the heartbeat ticks per message, not per packet, to
// keep the ingest path free of bookkeeping.
type watchdog struct {
	e    *Engine
	quit chan struct{}
	done chan struct{}
}

func newWatchdog(e *Engine) *watchdog {
	return &watchdog{e: e, quit: make(chan struct{}), done: make(chan struct{})}
}

// halt stops the watchdog and waits for it to exit, so no reap can
// race a Drain that is about to close the shard channels.
func (w *watchdog) halt() {
	close(w.quit)
	<-w.done
}

func (w *watchdog) run() {
	defer close(w.done)
	e := w.e
	type obs struct {
		sh    *shard
		beat  int64
		since time.Time
	}
	last := make([]obs, e.nshards)
	tick := e.cfg.Watchdog / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case now := <-t.C:
			for i := range e.shards {
				sh := e.shards[i].Load()
				if !sh.busy.Load() {
					last[i] = obs{}
					continue
				}
				beat := sh.beat.Load()
				if last[i].sh != sh || last[i].beat != beat {
					last[i] = obs{sh: sh, beat: beat, since: now}
					continue
				}
				if now.Sub(last[i].since) >= e.cfg.Watchdog {
					e.reap(i, sh)
					last[i] = obs{}
				}
			}
		}
	}
}

// reap replaces a wedged shard: mark it dead, build a successor
// restored from the slot's last checkpoint snapshot (empty if none —
// the flows rebuild deterministically from subsequent traffic), swap
// the routing pointer, and leave a drainer on the husk's queue so a
// producer blocked mid-send wakes up. The drainer starts only after
// the swap: a producer it unblocks must route its next batch to the
// successor, not back into the husk. The husk's consumed-but-
// unaccounted packets are charged to the slot's lost counter when the
// report is assembled.
func (e *Engine) reap(i int, old *shard) {
	old.reaped.Store(true)
	e.mu.Lock()
	snap := e.lastSnap[i]
	e.mu.Unlock()
	nsh := newShardWithQueue(e, i)
	nsh.lastLocalSnap = snap
	nsh.resetTo(snap)
	go nsh.run()
	e.shards[i].Store(nsh)
	go drainZombie(old)
	e.mu.Lock()
	e.zombies = append(e.zombies, old)
	e.reaps++
	e.mu.Unlock()
}

// drainZombie consumes a reaped shard's queue until Drain closes it:
// batches are recycled (their packets become lost via sent-accounted)
// and control-plane requests get errReaped.
func drainZombie(z *shard) {
	for msg := range z.in {
		switch {
		case msg.snap != nil:
			msg.snap <- snapReply{err: errReaped}
		case msg.install != nil:
			msg.install.done <- errReaped
		default:
			z.free <- msg.batch[:0]
		}
	}
}
