// Observability: Index.Instrument wires every layer of an index — the
// index, compaction, and (on a durable index) the WAL and checkpointer —
// into an obs.Registry, so a serving process exposes the library's
// operational state on its /metrics endpoint. The metric catalog lives in
// the README's "Operations" section; names and bucket layouts are stable
// across PRs (see the internal/obs package doc).

package dblsh

import (
	"dblsh/internal/obs"
	"dblsh/internal/shard"
	"dblsh/internal/wal"
)

// Instrument registers the index's operational metrics on reg and starts
// reporting into them. It registers a fixed catalog of dblsh_* families
// (so calling it twice on one registry panics, as does mixing two
// instrumented indexes into one registry), samples index shape at scrape
// time, and counts WAL/checkpoint/compaction activity as it happens.
// Durability families are only registered when the index is durable (built
// with Open).
//
// The obs package is internal, so Instrument is callable from this
// module's binaries (dblsh-server) but not from external importers — the
// exposition endpoint, not the registry, is the public surface.
func (idx *Index) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("dblsh_vectors_resident",
		"Resident vectors, live plus tombstoned.",
		func() float64 { return float64(idx.set.Len()) })
	reg.GaugeFunc("dblsh_vectors_deleted",
		"Tombstoned vectors a compaction would reclaim.",
		func() float64 { return float64(idx.set.Deleted()) })
	reg.GaugeFunc("dblsh_index_bytes",
		"Estimated memory held by projections and trees, excluding raw vectors.",
		func() float64 { return float64(idx.set.IndexSizeBytes()) })
	reg.GaugeFunc("dblsh_shard_unpacked_rows",
		"Rows added since the index was last packed, which queries walk in arrival order.",
		func() float64 { return float64(idx.set.Unpacked()) })

	idx.set.SetMetrics(shard.Metrics{
		InsertSeconds: reg.Histogram("dblsh_shard_insert_seconds",
			"Time an add holds the index's write lock inside the index insert (searches wait this long).",
			obs.LatencyBuckets()),
		CompactionRuns: reg.Counter("dblsh_compactions_total",
			"Completed compactions and repacks (manual, API and auto-triggered)."),
		CompactionSeconds: reg.Histogram("dblsh_compaction_seconds",
			"Duration of completed compactions and repacks.", obs.LatencyBuckets()),
	})

	d := idx.dur
	if d == nil {
		return
	}
	d.setMetrics(wal.Metrics{
		Appends: reg.Counter("dblsh_wal_appends_total",
			"Records appended to the write-ahead op log."),
		AppendBytes: reg.Counter("dblsh_wal_append_bytes_total",
			"Framed bytes appended to the write-ahead op log."),
		Fsyncs: reg.Counter("dblsh_wal_fsyncs_total",
			"Physical fsyncs of the op log (no-op syncs excluded)."),
		FsyncSeconds: reg.Histogram("dblsh_wal_fsync_seconds",
			"Op-log fsync latency.", obs.LatencyBuckets()),
	}, reg.Histogram("dblsh_checkpoint_seconds",
		"Duration of completed checkpoints (rotation through segment retirement).",
		obs.LatencyBuckets()))

	reg.CounterFunc("dblsh_checkpoints_total",
		"Checkpoints completed since Open.",
		func() float64 {
			st, _ := idx.Durability()
			return float64(st.Checkpoints)
		})
	reg.GaugeFunc("dblsh_wal_bytes",
		"Op-log bytes not yet absorbed by a checkpoint (active plus rotated segments).",
		func() float64 {
			st, _ := idx.Durability()
			return float64(st.LogBytes)
		})
	reg.GaugeFunc("dblsh_wal_ops_since_checkpoint",
		"Logged mutations a reopen would replay on top of the newest checkpoint.",
		func() float64 {
			st, _ := idx.Durability()
			return float64(st.OpsSinceCheckpoint)
		})
	reg.GaugeFunc("dblsh_wal_segments",
		"Live op-log segments: the active segment plus rotated ones awaiting retirement.",
		func() float64 {
			d.mu.Lock()
			n := 1 + len(d.oldPaths)
			d.mu.Unlock()
			return float64(n)
		})
	// The replay facts of this process's Open, frozen for the lifetime of
	// the index: how much history recovery had to re-apply.
	reg.GaugeFunc("dblsh_wal_replay_segments",
		"Log segments replayed by this process's Open.",
		func() float64 { return float64(d.replaySegments) })
	reg.GaugeFunc("dblsh_wal_replay_records",
		"Log records re-applied on top of the checkpoint by this process's Open.",
		func() float64 { return float64(d.replayRecords) })
	reg.GaugeFunc("dblsh_wal_replay_torn_segments",
		"Replayed segments whose torn tail (crash mid-append) was dropped at Open.",
		func() float64 { return float64(d.replayTorn) })
	reg.GaugeFunc("dblsh_wal_replay_seconds",
		"Time this process's Open spent re-applying the log; the compactions it owed run afterwards, in the background.",
		func() float64 { return d.replaySeconds })
}
