package monitor

import (
	"fmt"
	"sync"
	"time"

	"rtic/internal/obs"
	"rtic/internal/storage"
	"rtic/internal/wal"
)

// ShardedDurable is the durability manager for a sharded monitor: one
// write-ahead log per shard, each receiving that shard's slice of every
// accepted transaction. There are no checkpoints — sharded engines do
// not snapshot — so recovery replays the journals from the start.
//
// Crash-safety argument: every accepted commit appends exactly one
// record to every journal (empty sub-transactions included), all under
// the commit lock, so healthy journals hold the same record count and
// record j of every journal carries the same timestamp. A crash can
// tear that alignment — some journals got commit j, others did not —
// but only at the tail, because commits are serialized. Recovery
// therefore replays the common prefix (the minimum record count across
// journals), verifies the timestamps agree record by record, and
// truncates the longer journals back to the prefix, discarding at most
// the final partially journaled commit.
//
// Journaling failures follow the configured FailurePolicy. Under
// Degrade (the default) commits keep being acknowledged — as
// non-durable — while the backlog buffers each commit's per-shard
// records (with a mask of the shards still missing them, so a partially
// journaled commit is completed rather than duplicated) and a re-arm
// loop retries draining it. Sharded engines cannot snapshot, so there
// is no checkpoint-class re-arm: a journal that latched broken, or a
// backlog past its cap, leaves the manager degraded until restart.
type ShardedDurable struct {
	m      *Monitor
	logs   []*wal.Log // one per shard, index == shard id
	policy FailurePolicy
	halt   func(error)

	haltOnce   sync.Once
	backoffMin time.Duration
	backoffMax time.Duration
	backlogCap int

	mu              sync.Mutex
	mm              *obs.Metrics
	lastErr         error // latest append failure, nil when healthy
	replayed        int
	degraded        bool
	degradedSince   time.Time
	backlog         []shardPending
	backlogOverflow bool
	rearmAttempts   uint64
	rearms          uint64
	rearmStop       chan struct{}
	rearmDone       chan struct{}
}

// shardPending is one degraded-window commit: the encoded per-shard
// records plus the shards that still need theirs appended.
type shardPending struct {
	t        uint64
	payloads [][]byte // indexed by shard id
	need     []int    // shards missing the record, ascending
}

// NewShardedDurable builds the manager. logs must hold exactly one
// journal per shard of m, in shard order — record i of a commit goes to
// logs[i], so the order is load-bearing across restarts. Of the
// DurableOptions, WithDurableFS and WithLogFactory are ignored: sharded
// managers never rotate segments or checkpoint.
func NewShardedDurable(m *Monitor, logs []*wal.Log, opts ...DurableOption) (*ShardedDurable, error) {
	rtr := m.Router()
	if rtr == nil {
		return nil, fmt.Errorf("monitor: sharded durability requires a sharded monitor (use WithShards)")
	}
	if len(logs) != rtr.Shards() {
		return nil, fmt.Errorf("monitor: sharded durability wants %d journals (one per shard), got %d", rtr.Shards(), len(logs))
	}
	for i, l := range logs {
		if l == nil {
			return nil, fmt.Errorf("monitor: journal for shard %d is nil", i)
		}
	}
	o := defaultDurableOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return &ShardedDurable{
		m: m, logs: logs, policy: o.policy, halt: o.halt,
		backoffMin: o.backoffMin, backoffMax: o.backoffMax, backlogCap: o.backlogCap,
	}, nil
}

// Recover replays the journals' common prefix into the monitor and
// returns how many commits were applied. Call it on the freshly built
// monitor, before Attach and before serving traffic. Journals torn by
// a crash — fewer records on some shards, or a torn tail frame the WAL
// layer already dropped — are truncated back to the common prefix so
// the next run appends from an aligned state.
//
// Replay routes each reassembled transaction through the monitor's own
// commit path, not through the individual shards, so the router's
// current partition plan decides placement afresh: a plan change
// between runs (new constraint set) re-routes old data correctly
// instead of resurrecting a stale layout.
func (d *ShardedDurable) Recover() (int, error) {
	d.captureMetrics()
	records := make([][]shardRecord, len(d.logs))
	for i, l := range d.logs {
		var recs []shardRecord
		if _, err := l.Replay(func(payload []byte) error {
			t, tx, err := wal.DecodeTx(payload)
			if err != nil {
				return err
			}
			recs = append(recs, shardRecord{t: t, tx: tx})
			return nil
		}); err != nil {
			return 0, fmt.Errorf("monitor: replaying shard %d journal: %w", i, err)
		}
		records[i] = recs
	}

	// The common prefix is the shortest journal; a longer journal's tail
	// belongs to commits that never reached every shard.
	k := len(records[0])
	for _, recs := range records[1:] {
		if len(recs) < k {
			k = len(recs)
		}
	}

	applied := 0
	for j := 0; j < k; j++ {
		t := records[0][j].t
		merged := storage.NewTransaction()
		for i, recs := range records {
			if recs[j].t != t {
				return applied, fmt.Errorf(
					"monitor: shard journals disagree at record %d: shard 0 has t=%d, shard %d has t=%d (journals swapped or mixed across runs?)",
					j, t, i, recs[j].t)
			}
			// Concatenating the shard slices in shard order is safe: ops on
			// the same tuple always hash to the same shard, so no
			// cross-shard reorder can change the merged transaction's
			// meaning.
			for _, op := range recs[j].tx.Ops() {
				if op.Insert {
					merged.Insert(op.Rel, op.Tuple)
				} else {
					merged.Delete(op.Rel, op.Tuple)
				}
			}
		}
		if d.m.Len() > 0 && t <= d.m.Now() {
			continue // already applied (double Recover, or pre-seeded monitor)
		}
		if _, err := d.m.Apply(t, merged); err != nil {
			return applied, fmt.Errorf("monitor: replaying sharded record at t=%d: %w", t, err)
		}
		applied++
	}

	// Drop the torn tails so every journal restarts aligned at k records.
	for i, l := range d.logs {
		if l.Records() > k {
			if err := l.Truncate(k); err != nil {
				return applied, fmt.Errorf("monitor: truncating shard %d journal to %d records: %w", i, k, err)
			}
		}
	}

	d.mu.Lock()
	d.replayed = applied
	mm := d.mm
	d.mu.Unlock()
	if mm != nil {
		mm.ReplayedRecords.Add(uint64(applied))
	}
	return applied, nil
}

func (d *ShardedDurable) captureMetrics() {
	if mm, _ := d.m.Observer().Parts(); mm != nil {
		d.mu.Lock()
		d.mm = mm
		d.mu.Unlock()
	}
}

// shardRecord is one journal record: a timestamp plus that shard's
// slice of the commit.
type shardRecord struct {
	t  uint64
	tx *storage.Transaction
}

// Attach starts journaling: every subsequently accepted transaction is
// split by the router's partition plan and appended to the per-shard
// journals under the commit lock, one record per shard per commit.
// Failures — including background-flusher fsync failures, surfaced
// through each log's failure handler at the point of failure — trigger
// the configured FailurePolicy.
func (d *ShardedDurable) Attach() {
	d.captureMetrics()
	for i, l := range d.logs {
		i := i
		l.SetFailureHandler(func(err error) {
			d.onFailure(fmt.Errorf("shard %d journal: %w", i, err))
		})
	}
	rtr := d.m.Router()
	d.m.SetJournal(func(t uint64, tx *storage.Transaction) {
		parts := rtr.Parts(t, tx)
		d.mu.Lock()
		if d.degraded {
			d.pushBacklogLocked(t, parts, nil)
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
		var failed []int
		var firstErr error
		for i, part := range parts {
			if err := d.logs[i].AppendTx(t, part); err != nil {
				failed = append(failed, i)
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d journal: %w", i, err)
				}
			}
		}
		if firstErr == nil {
			return
		}
		d.onFailure(firstErr)
		d.mu.Lock()
		if d.degraded {
			// Only the failed shards still need this commit's record; the
			// others already hold it, and a duplicate would misalign the
			// journals.
			d.pushBacklogLocked(t, parts, failed)
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
	})
}

// pushBacklogLocked buffers one degraded-window commit (caller holds
// d.mu). need lists the shards missing their record; nil means all.
func (d *ShardedDurable) pushBacklogLocked(t uint64, parts []*storage.Transaction, need []int) {
	if d.backlogOverflow {
		return
	}
	if len(d.backlog) >= d.backlogCap {
		// The window can no longer be replayed, and without snapshots it
		// cannot be captured another way: degraded until restart.
		d.backlog = nil
		d.backlogOverflow = true
		if d.mm != nil {
			d.mm.JournalBacklog.Set(0)
		}
		return
	}
	payloads := make([][]byte, len(parts))
	for i, part := range parts {
		payloads[i] = wal.EncodeTx(t, part)
	}
	if need == nil {
		need = make([]int, len(parts))
		for i := range need {
			need[i] = i
		}
	}
	d.backlog = append(d.backlog, shardPending{t: t, payloads: payloads, need: need})
	if d.mm != nil {
		d.mm.JournalBacklog.Set(int64(len(d.backlog)))
	}
}

// onFailure reacts to a journaling failure per the configured policy.
func (d *ShardedDurable) onFailure(err error) {
	if d.policy == Halt {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
		if d.halt != nil {
			d.haltOnce.Do(func() { d.halt(err) })
		}
		return
	}
	d.degrade(err)
}

// degrade flips the manager into degraded mode (idempotent) and starts
// the re-arm loop.
func (d *ShardedDurable) degrade(err error) {
	d.mu.Lock()
	d.lastErr = err
	if d.degraded {
		d.mu.Unlock()
		return
	}
	d.degraded = true
	d.degradedSince = time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	d.rearmStop, d.rearmDone = stop, done
	mm := d.mm
	d.mu.Unlock()
	if mm != nil {
		mm.DurabilityDegraded.Set(1)
	}
	go runRearmLoop(stop, done, d.backoffMin, d.backoffMax, d.tryRearm)
}

// tryRearm drains the backlog into the per-shard journals under the
// commit lock: for each buffered commit, the record goes to exactly the
// shards still missing it, restoring the aligned one-record-per-shard-
// per-commit invariant. All journals must be unlatched and the backlog
// within its cap; otherwise the manager stays degraded.
func (d *ShardedDurable) tryRearm() bool {
	d.mu.Lock()
	d.rearmAttempts++
	mm := d.mm
	d.mu.Unlock()
	if mm != nil {
		mm.RearmAttempts.Inc()
	}

	d.m.mu.Lock()
	defer d.m.mu.Unlock()

	d.mu.Lock()
	if !d.degraded {
		d.mu.Unlock()
		return true
	}
	if d.backlogOverflow {
		d.mu.Unlock()
		return false
	}
	backlog := d.backlog
	d.mu.Unlock()

	for _, l := range d.logs {
		if l.Err() != nil {
			return false
		}
	}

	// The commit lock freezes the backlog, so mutating records in place
	// is safe — a partial drain leaves each record knowing which shards
	// it still needs.
	drained := 0
drain:
	for ; drained < len(backlog); drained++ {
		rec := &backlog[drained]
		for len(rec.need) > 0 {
			s := rec.need[0]
			if err := d.logs[s].Append(rec.payloads[s]); err != nil {
				break drain
			}
			rec.need = rec.need[1:]
		}
	}
	ok := drained == len(backlog)
	if ok {
		for _, l := range d.logs {
			if l.Sync() != nil {
				ok = false
				break
			}
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.backlog = d.backlog[drained:]
	if !ok {
		if d.mm != nil {
			d.mm.JournalBacklog.Set(int64(len(d.backlog)))
		}
		return false
	}
	d.degraded = false
	d.lastErr = nil
	d.degradedSince = time.Time{}
	d.backlog = nil
	d.rearms++
	d.rearmStop = nil
	if d.mm != nil {
		d.mm.DurabilityDegraded.Set(0)
		d.mm.JournalBacklog.Set(0)
		d.mm.Rearms.Inc()
	}
	return true
}

// Stop halts the re-arm loop if one is running; a manager stopped
// while degraded stays degraded.
func (d *ShardedDurable) Stop() {
	d.mu.Lock()
	stop, done := d.rearmStop, d.rearmDone
	d.rearmStop = nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Health reports the durability state for /healthz. WALBytes sums the
// per-shard journals; LastCheckpointAgeSeconds is always -1 (sharded
// monitors do not checkpoint).
func (d *ShardedDurable) Health() DurabilityHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := DurabilityHealth{
		Status:                   "ok",
		Policy:                   d.policy.String(),
		LastCheckpointAgeSeconds: -1,
		ReplayedRecords:          d.replayed,
		RearmAttempts:            d.rearmAttempts,
		Rearms:                   d.rearms,
		BacklogRecords:           len(d.backlog),
		BacklogOverflow:          d.backlogOverflow,
	}
	for _, l := range d.logs {
		h.WALBytes += l.Size()
	}
	if d.degraded {
		h.DegradedSeconds = time.Since(d.degradedSince).Seconds()
	}
	if d.lastErr != nil {
		h.Status = "degraded"
		h.LastError = d.lastErr.Error()
	}
	return h
}
