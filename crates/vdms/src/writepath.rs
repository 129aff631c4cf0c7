//! The modeled write path: WAL group commit, a bounded insert buffer with
//! backpressure, and the growing-segment seal/compaction lifecycle.
//!
//! [`WalSim`] is a pure, deterministic state machine — no clocks, no RNG,
//! no scheduling. The discrete-event serving loop
//! (`workload::serving::simulate`) drives it: it *offers* arriving
//! inserts, asks for flush jobs at group-commit boundaries (a full batch
//! accumulated, or an end-of-tick deadline), prices each job through
//! [`CostModel`](crate::CostModel) against the same worker slots queries
//! use, and reports completions back. Keeping the machine free of time
//! sources is what makes the write path unit-testable and the serving
//! trace bit-identical across thread counts.
//!
//! The lifecycle mirrors what every commercial VDBMS does between an
//! insert and a searchable sealed segment (Pan et al.'s VDBMS survey calls
//! this the defining operational axis):
//!
//! 1. an **insert** is assigned a WAL LSN at admission, or *parked* when
//!    the accepted-but-not-durable window is full (backpressure), or
//!    *shed* when the parking queue overflows too;
//! 2. a **group commit** flushes admitted rows — triggered by a full
//!    batch ([`FlushReason::FullBatch`]) or by the flush-interval tick
//!    ([`FlushReason::EndOfTick`]);
//! 3. durable rows accumulate in a **growing segment** that *seals* every
//!    [`WriteKnobs::seal_rows`] rows;
//! 4. every [`COMPACT_SEALS_PER_MERGE`]-th seal triggers a **compaction**
//!    merging the sealed run.
//!
//! `gracefulTime` consistency waits resolve against this machine's actual
//! durability events ([`WalSim::durable_time_of`]) instead of the
//! quantized flush watermark the read-only simulator prices analytically.

/// How many group-commit batches the accepted-but-not-durable window
/// holds before admissions park (backpressure onto the arrival queue).
pub const BUFFERED_BATCHES: usize = 4;

/// Every this-many sealed segments, a compaction merges the sealed run.
pub const COMPACT_SEALS_PER_MERGE: usize = 4;

/// The tunable write-path knobs: the three dimensions
/// `SpaceSpec::with_writepath` exposes to the tuner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteKnobs {
    /// Rows per WAL group commit: a flush triggers as soon as this many
    /// admitted rows await durability ([`FlushReason::FullBatch`]).
    pub wal_batch_rows: usize,
    /// Group-commit deadline: every tick, admitted rows that never filled
    /// a batch are flushed anyway ([`FlushReason::EndOfTick`]).
    pub flush_interval_secs: f64,
    /// Rows at which the growing segment seals and becomes immutable.
    pub seal_rows: usize,
}

impl WriteKnobs {
    /// The fixed knobs a candidate carrying no write-path request is
    /// served with. Deliberately constants — *not* derived from
    /// `SystemParams` — so `writepath: Some(WriteKnobs::DEFAULT)`
    /// evaluates bit-identically to `writepath: None` (the frozen-dim
    /// equivalence contract, same trick as `replicas.unwrap_or(1)`).
    pub const DEFAULT: WriteKnobs =
        WriteKnobs { wal_batch_rows: 256, flush_interval_secs: 0.05, seal_rows: 1024 };

    /// Clamp into valid ranges, like a real deployment would.
    pub fn sanitized(self) -> WriteKnobs {
        WriteKnobs {
            wal_batch_rows: self.wal_batch_rows.max(1),
            flush_interval_secs: if self.flush_interval_secs.is_finite()
                && self.flush_interval_secs > 0.0
            {
                self.flush_interval_secs
            } else {
                WriteKnobs::DEFAULT.flush_interval_secs
            },
            seal_rows: self.seal_rows.max(1),
        }
    }
}

impl Default for WriteKnobs {
    fn default() -> WriteKnobs {
        WriteKnobs::DEFAULT
    }
}

/// Why a group commit fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// A full batch of [`WriteKnobs::wal_batch_rows`] rows accumulated.
    FullBatch,
    /// The flush-interval tick (or the end-of-run drain) flushed a
    /// partial batch.
    EndOfTick,
}

/// A triggered-but-not-yet-completed group commit, to be priced and
/// scheduled by the serving loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushJob {
    /// Every LSN `<= upto_lsn` is durable once this job completes.
    pub upto_lsn: u64,
    /// Rows this commit writes.
    pub rows: usize,
    pub reason: FlushReason,
}

/// One completed group commit, as recorded in the WAL's flush log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushRecord {
    pub upto_lsn: u64,
    pub rows: usize,
    pub reason: FlushReason,
    /// When the commit was triggered (batch filled / tick fired).
    pub trigger_secs: f64,
    /// When the commit finished (slot acquired + fsync + row writes) —
    /// the moment `upto_lsn` became durable.
    pub finish_secs: f64,
}

/// The outcome of an insert offered to the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted: the insert's WAL LSN is assigned now.
    Admitted { lsn: u64 },
    /// The accepted-but-not-durable window is full: the insert is
    /// accepted but parks in the arrival queue until a flush drains the
    /// window (backpressure). Its LSN is assigned at un-parking.
    Parked,
    /// The parking queue overflowed too: the insert is rejected.
    Shed,
}

/// Seal/compaction work released by a flush completion, plus the parked
/// inserts the drained window admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushCompletion {
    /// LSNs admitted from the parked queue at this completion (empty
    /// range when nothing was parked).
    pub admitted: std::ops::Range<u64>,
    /// Segments sealed by the rows this flush made durable.
    pub sealed_segments: usize,
    /// Rows across those sealed segments ([`WriteKnobs::seal_rows`] each).
    pub sealed_rows: usize,
    /// Compactions triggered (every [`COMPACT_SEALS_PER_MERGE`]-th seal).
    pub compactions: usize,
    /// Rows merged across those compactions.
    pub compacted_rows: usize,
}

/// The deterministic WAL + segment-lifecycle state machine.
#[derive(Debug, Clone)]
pub struct WalSim {
    knobs: WriteKnobs,
    /// Accepted-but-not-durable ceiling (rows) before admissions park.
    capacity_rows: usize,
    /// Parked-insert ceiling before offers shed.
    park_capacity: usize,
    /// Highest assigned LSN (LSNs start at 1; 0 = "nothing written").
    next_lsn: u64,
    /// Highest LSN covered by a *triggered* (possibly in-flight) flush.
    triggered_lsn: u64,
    /// Highest LSN known durable.
    durable_lsn: u64,
    /// `admit_times[l - 1]` = admission time of LSN `l`. Non-decreasing,
    /// because the event loop drives the machine in time order.
    admit_times: Vec<f64>,
    /// Accepted inserts waiting for buffer room (FIFO by count — inserts
    /// are indistinguishable until an LSN is assigned).
    parked: usize,
    /// Offers rejected because the parking queue was full.
    shed: usize,
    /// Completed-commit log, ordered by `upto_lsn` (and by `finish_secs`:
    /// commits to one WAL serialize).
    flushes: Vec<FlushRecord>,
    /// Rows in the growing (unsealed) segment.
    segment_rows: usize,
    seals: usize,
    compactions: usize,
}

impl WalSim {
    /// A write path with the given knobs, parking at most `park_capacity`
    /// inserts (the serving queue capacity — backpressure and query
    /// queueing share the bound).
    pub fn new(knobs: WriteKnobs, park_capacity: usize) -> WalSim {
        let knobs = knobs.sanitized();
        WalSim {
            capacity_rows: knobs.wal_batch_rows * BUFFERED_BATCHES,
            park_capacity,
            knobs,
            next_lsn: 0,
            triggered_lsn: 0,
            durable_lsn: 0,
            admit_times: Vec::new(),
            parked: 0,
            shed: 0,
            flushes: Vec::new(),
            segment_rows: 0,
            seals: 0,
            compactions: 0,
        }
    }

    /// The knobs this machine runs with (post-sanitization).
    pub fn knobs(&self) -> &WriteKnobs {
        &self.knobs
    }

    /// Accepted-but-not-durable rows (admitted, possibly in flight).
    pub fn buffered_rows(&self) -> usize {
        (self.next_lsn - self.durable_lsn) as usize
    }

    /// Admitted rows not yet covered by a triggered flush.
    pub fn pending_rows(&self) -> usize {
        (self.next_lsn - self.triggered_lsn) as usize
    }

    /// Inserts parked by backpressure right now.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// Offers rejected because the parking queue was full.
    pub fn shed(&self) -> usize {
        self.shed
    }

    /// Inserts accepted so far: admitted (with an LSN) plus parked.
    pub fn accepted(&self) -> usize {
        self.next_lsn as usize + self.parked
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Highest assigned LSN.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Segments sealed so far.
    pub fn seals(&self) -> usize {
        self.seals
    }

    /// Compactions run so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// The completed-commit log, ordered by LSN and finish time.
    pub fn flushes(&self) -> &[FlushRecord] {
        &self.flushes
    }

    /// Completed commits that fired for `reason`.
    pub fn flush_count(&self, reason: FlushReason) -> usize {
        self.flushes.iter().filter(|f| f.reason == reason).count()
    }

    /// Whether every accepted insert has become durable (the end-of-run
    /// invariant: backpressure parks and delays, it never drops).
    pub fn drained(&self) -> bool {
        self.parked == 0 && self.durable_lsn == self.next_lsn
    }

    /// An insert arriving `now`. Admitted inserts get their LSN here;
    /// parked ones get it when a flush completion drains the window.
    pub fn offer_insert(&mut self, now: f64) -> Admission {
        if self.buffered_rows() >= self.capacity_rows {
            if self.parked >= self.park_capacity {
                self.shed += 1;
                return Admission::Shed;
            }
            self.parked += 1;
            return Admission::Parked;
        }
        Admission::Admitted { lsn: self.admit(now) }
    }

    fn admit(&mut self, now: f64) -> u64 {
        debug_assert!(self.admit_times.last().is_none_or(|&t| t <= now));
        self.next_lsn += 1;
        self.admit_times.push(now);
        self.next_lsn
    }

    /// A full-batch group commit, if one batch of admitted rows awaits
    /// durability. Call in a loop after admissions — an un-parking wave
    /// can fill several batches at once.
    pub fn full_batch_job(&mut self) -> Option<FlushJob> {
        if self.pending_rows() < self.knobs.wal_batch_rows {
            return None;
        }
        self.triggered_lsn += self.knobs.wal_batch_rows as u64;
        Some(FlushJob {
            upto_lsn: self.triggered_lsn,
            rows: self.knobs.wal_batch_rows,
            reason: FlushReason::FullBatch,
        })
    }

    /// The end-of-tick group commit: flush every admitted row the batch
    /// trigger left behind. `None` when nothing is pending — idle ticks
    /// write nothing.
    pub fn tick_job(&mut self) -> Option<FlushJob> {
        let rows = self.pending_rows();
        if rows == 0 {
            return None;
        }
        self.triggered_lsn = self.next_lsn;
        Some(FlushJob { upto_lsn: self.triggered_lsn, rows, reason: FlushReason::EndOfTick })
    }

    /// Record a priced-and-scheduled job in the commit log. The loop
    /// calls this at trigger time with the completion time it computed
    /// (slot acquisition + WAL write, serialized after the previous
    /// commit), so [`durable_time_of`](Self::durable_time_of) can answer
    /// for in-flight commits.
    pub fn record_flush(&mut self, job: FlushJob, trigger_secs: f64, finish_secs: f64) {
        debug_assert!(self
            .flushes
            .last()
            .is_none_or(|f| { f.upto_lsn < job.upto_lsn && f.finish_secs <= finish_secs }));
        self.flushes.push(FlushRecord {
            upto_lsn: job.upto_lsn,
            rows: job.rows,
            reason: job.reason,
            trigger_secs,
            finish_secs,
        });
    }

    /// A recorded commit completed at `now`: its rows become durable and
    /// join the growing segment (sealing/compacting as thresholds cross),
    /// and the drained window re-admits parked inserts.
    pub fn flush_done(&mut self, upto_lsn: u64, now: f64) -> FlushCompletion {
        debug_assert!(upto_lsn > self.durable_lsn, "commits to one WAL serialize");
        let rows = (upto_lsn - self.durable_lsn) as usize;
        self.durable_lsn = upto_lsn;
        // Segment lifecycle: one flush can cross several seal thresholds
        // when seal_rows < the flushed row count.
        self.segment_rows += rows;
        let sealed_segments = self.segment_rows / self.knobs.seal_rows;
        self.segment_rows %= self.knobs.seal_rows;
        let sealed_rows = sealed_segments * self.knobs.seal_rows;
        let mut compactions = 0;
        for _ in 0..sealed_segments {
            self.seals += 1;
            if self.seals.is_multiple_of(COMPACT_SEALS_PER_MERGE) {
                compactions += 1;
            }
        }
        self.compactions += compactions;
        let compacted_rows = compactions * COMPACT_SEALS_PER_MERGE * self.knobs.seal_rows;
        // Backpressure release: the drained window admits parked inserts
        // (FIFO), which may immediately fill the next batch — the caller
        // re-checks `full_batch_job` after this.
        let room = self.capacity_rows.saturating_sub(self.buffered_rows());
        let unparked = room.min(self.parked);
        self.parked -= unparked;
        let first = self.next_lsn + 1;
        for _ in 0..unparked {
            self.admit(now);
        }
        FlushCompletion {
            admitted: first..self.next_lsn + 1,
            sealed_segments,
            sealed_rows,
            compactions,
            compacted_rows,
        }
    }

    /// When LSN `lsn` becomes (or became) durable, per the commit log:
    /// the finish time of the first recorded commit covering it. `None`
    /// when no triggered commit covers it yet — the asker must wait for
    /// the next tick. LSN 0 ("nothing to wait for") is durable at 0.
    pub fn durable_time_of(&self, lsn: u64) -> Option<f64> {
        if lsn == 0 {
            return Some(0.0);
        }
        let i = self.flushes.partition_point(|f| f.upto_lsn < lsn);
        self.flushes.get(i).map(|f| f.finish_secs)
    }

    /// The highest LSN admitted at or before `cutoff` — what a query with
    /// `gracefulTime` g arriving at t must see durable (`cutoff = t - g`).
    pub fn last_lsn_at_or_before(&self, cutoff: f64) -> u64 {
        self.admit_times.partition_point(|&t| t <= cutoff) as u64
    }

    /// [`last_lsn_at_or_before`](Self::last_lsn_at_or_before) for askers
    /// whose cutoffs never decrease: `prev` is the answer this machine gave
    /// the same asker last time (0 at first), and the search walks forward
    /// from it. Admissions only append, at non-decreasing times, so the
    /// answer never moves backwards and a whole run costs one pass over
    /// the admission log instead of a binary search per query.
    pub fn last_lsn_at_or_before_hinted(&self, cutoff: f64, prev: u64) -> u64 {
        let mut lsn = prev as usize;
        while self.admit_times.get(lsn).is_some_and(|&t| t <= cutoff) {
            lsn += 1;
        }
        debug_assert_eq!(
            lsn as u64,
            self.last_lsn_at_or_before(cutoff),
            "cutoffs must not decrease"
        );
        lsn as u64
    }

    /// [`durable_time_of`](Self::durable_time_of) for askers whose LSNs
    /// never decrease: `cursor` (0 at first) is left on the first recorded
    /// commit covering `lsn`, or at the end of the log when none does yet —
    /// where the next, higher, LSN resumes. Commits only append, in LSN
    /// order, so everything before the cursor stays too low forever.
    pub fn durable_time_of_hinted(&self, lsn: u64, cursor: &mut usize) -> Option<f64> {
        if lsn == 0 {
            return Some(0.0);
        }
        while self.flushes.get(*cursor).is_some_and(|f| f.upto_lsn < lsn) {
            *cursor += 1;
        }
        let durable = self.flushes.get(*cursor).map(|f| f.finish_secs);
        debug_assert_eq!(durable, self.durable_time_of(lsn), "LSNs must not decrease");
        durable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn knobs(batch: usize, flush: f64, seal: usize) -> WriteKnobs {
        WriteKnobs { wal_batch_rows: batch, flush_interval_secs: flush, seal_rows: seal }
    }

    #[test]
    fn lsns_are_assigned_at_admission_and_monotone() {
        let mut wal = WalSim::new(knobs(4, 0.1, 16), 8);
        for i in 0..3 {
            match wal.offer_insert(i as f64 * 0.01) {
                Admission::Admitted { lsn } => assert_eq!(lsn, i + 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(wal.last_lsn(), 3);
        assert_eq!(wal.durable_lsn(), 0);
        assert_eq!(wal.last_lsn_at_or_before(0.015), 2);
        assert_eq!(wal.last_lsn_at_or_before(-1.0), 0);
    }

    #[test]
    fn full_batch_triggers_at_exactly_the_batch_size() {
        let mut wal = WalSim::new(knobs(4, 0.1, 16), 8);
        for i in 0..3 {
            wal.offer_insert(i as f64 * 0.01);
            assert!(wal.full_batch_job().is_none(), "batch not full yet");
        }
        wal.offer_insert(0.03);
        let job = wal.full_batch_job().expect("batch full");
        assert_eq!(job, FlushJob { upto_lsn: 4, rows: 4, reason: FlushReason::FullBatch });
        assert!(wal.full_batch_job().is_none(), "triggered rows don't re-trigger");
        assert_eq!(wal.pending_rows(), 0);
    }

    #[test]
    fn tick_flushes_the_partial_batch_and_idle_ticks_write_nothing() {
        let mut wal = WalSim::new(knobs(4, 0.1, 16), 8);
        wal.offer_insert(0.01);
        wal.offer_insert(0.02);
        let job = wal.tick_job().expect("partial batch pending");
        assert_eq!(job, FlushJob { upto_lsn: 2, rows: 2, reason: FlushReason::EndOfTick });
        assert!(wal.tick_job().is_none(), "idle tick writes nothing");
    }

    #[test]
    fn durability_follows_the_commit_log() {
        let mut wal = WalSim::new(knobs(2, 0.1, 16), 8);
        wal.offer_insert(0.01);
        wal.offer_insert(0.02);
        let job = wal.full_batch_job().unwrap();
        wal.record_flush(job, 0.02, 0.05);
        // In-flight: the log already answers for covered LSNs.
        assert_eq!(wal.durable_time_of(1), Some(0.05));
        assert_eq!(wal.durable_time_of(2), Some(0.05));
        assert_eq!(wal.durable_time_of(3), None, "uncovered LSN must wait for a tick");
        assert_eq!(wal.durable_time_of(0), Some(0.0), "nothing to wait for");
        let done = wal.flush_done(job.upto_lsn, 0.05);
        assert_eq!(done.sealed_segments, 0);
        assert_eq!(wal.durable_lsn(), 2);
        assert!(wal.drained());
    }

    #[test]
    fn backpressure_parks_then_sheds_and_never_drops_accepted_inserts() {
        // Window = 4 batches × 2 rows = 8; park capacity 3.
        let mut wal = WalSim::new(knobs(2, 0.1, 64), 3);
        let mut admitted = 0;
        let mut parked = 0;
        let mut shed = 0;
        for i in 0..13 {
            match wal.offer_insert(i as f64 * 0.001) {
                Admission::Admitted { .. } => admitted += 1,
                Admission::Parked => parked += 1,
                Admission::Shed => shed += 1,
            }
        }
        assert_eq!((admitted, parked, shed), (8, 3, 2));
        assert_eq!(wal.accepted(), 11);
        // Drain one batch: the freed window re-admits parked inserts.
        let job = wal.full_batch_job().unwrap();
        wal.record_flush(job, 0.013, 0.02);
        let done = wal.flush_done(job.upto_lsn, 0.02);
        assert_eq!(done.admitted, 9..11, "two parked inserts re-admitted");
        assert_eq!(wal.parked(), 1);
        assert_eq!(wal.accepted(), 11, "parking never loses an accepted insert");
        // Un-parked admissions carry the completion time, keeping the
        // admission clock monotone.
        assert_eq!(wal.last_lsn_at_or_before(0.02), 10);
    }

    #[test]
    fn segments_seal_on_threshold_and_every_fourth_seal_compacts() {
        let mut wal = WalSim::new(knobs(4, 0.1, 8), 8);
        let mut t = 0.0;
        let mut sealed = 0;
        let mut compacted = 0;
        for round in 0..10u64 {
            for _ in 0..4 {
                t += 0.001;
                wal.offer_insert(t);
            }
            let job = wal.full_batch_job().unwrap();
            wal.record_flush(job, t, t + 0.001);
            let done = wal.flush_done(job.upto_lsn, t + 0.001);
            sealed += done.sealed_segments;
            compacted += done.compactions;
            // 8-row segments out of 4-row batches: a seal every 2 rounds.
            assert_eq!(sealed, round.div_ceil(2) as usize);
        }
        assert_eq!(wal.seals(), 5);
        assert_eq!(compacted, 1, "the 4th seal compacts");
        assert_eq!(wal.compactions(), 1);
    }

    #[test]
    fn one_flush_can_cross_several_seal_thresholds() {
        // seal_rows (2) < batch (8): one commit seals multiple segments.
        let mut wal = WalSim::new(knobs(8, 0.1, 2), 8);
        for i in 0..8 {
            wal.offer_insert(i as f64 * 0.001);
        }
        let job = wal.full_batch_job().unwrap();
        wal.record_flush(job, 0.008, 0.01);
        let done = wal.flush_done(job.upto_lsn, 0.01);
        assert_eq!(done.sealed_segments, 4);
        assert_eq!(done.sealed_rows, 8);
        assert_eq!(done.compactions, 1);
        assert_eq!(done.compacted_rows, 8);
    }

    #[test]
    fn hinted_lookups_resume_where_the_last_answer_left_off() {
        let mut wal = WalSim::new(knobs(2, 0.1, 16), 8);
        let (mut lsn, mut cursor) = (0u64, 0usize);
        assert_eq!(wal.last_lsn_at_or_before_hinted(1.0, lsn), 0, "empty log");
        assert_eq!(wal.durable_time_of_hinted(0, &mut cursor), Some(0.0), "nothing to wait for");
        for t in [0.01, 0.02, 0.02, 0.03] {
            wal.offer_insert(t);
        }
        // A cutoff exactly on an admission time includes that row — and
        // its same-instant twin.
        lsn = wal.last_lsn_at_or_before_hinted(0.01, lsn);
        assert_eq!(lsn, 1);
        assert_eq!(wal.durable_time_of_hinted(lsn, &mut cursor), None, "no commit yet");
        let first = wal.full_batch_job().unwrap();
        wal.record_flush(first, 0.03, 0.05);
        let second = wal.full_batch_job().unwrap();
        wal.record_flush(second, 0.03, 0.07);
        assert_eq!(wal.durable_time_of_hinted(lsn, &mut cursor), Some(0.05));
        lsn = wal.last_lsn_at_or_before_hinted(0.02, lsn);
        assert_eq!(lsn, 3);
        // LSN 2 is the last row of the first commit: the cursor must stay
        // on a commit that covers exactly, and move once it no longer does.
        assert_eq!(wal.durable_time_of_hinted(2, &mut cursor), Some(0.05));
        assert_eq!(cursor, 0);
        assert_eq!(wal.durable_time_of_hinted(lsn, &mut cursor), Some(0.07));
        assert_eq!(cursor, 1);
        assert_eq!(wal.last_lsn_at_or_before_hinted(f64::INFINITY, lsn), 4);
        assert_eq!(wal.durable_time_of_hinted(5, &mut cursor), None, "LSN 5 was never admitted");
        assert_eq!(cursor, 2, "parked at the end of the log until a commit is recorded");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Drive the machine the way the serving loop does — in time order,
        /// with repeated instants — while an in-order asker reads it through
        /// the hinted lookups: every answer equals the binary search's.
        #[test]
        fn hinted_lookups_equal_the_binary_searches(
            batch in 1usize..6,
            park in 0usize..4,
            graceful_pick in 0usize..3,
            ops in prop::collection::vec((0usize..8, 0usize..4), 1..160),
        ) {
            let mut wal = WalSim::new(knobs(batch, 0.1, 4), park);
            let graceful = [0.0, 0.004, 0.05][graceful_pick];
            let mut now = 0.0f64;
            // Recorded commits still in flight, oldest first; commits
            // serialize, 3 ms each.
            let mut in_flight: Vec<(u64, f64)> = Vec::new();
            let (mut lsn, mut cursor) = (0u64, 0usize);
            let record = |wal: &mut WalSim, in_flight: &mut Vec<(u64, f64)>, job: FlushJob, now| {
                let finish = wal.flushes().last().map_or(now, |f| f.finish_secs.max(now)) + 0.003;
                wal.record_flush(job, now, finish);
                in_flight.push((job.upto_lsn, finish));
            };
            for (op, dt) in ops {
                // Half the steps repeat the previous instant, so queries tie
                // with admissions and with commit completions.
                now += [0.0, 0.0, 0.001, 0.02][dt];
                match op {
                    0..=2 => {
                        wal.offer_insert(now);
                        while let Some(job) = wal.full_batch_job() {
                            record(&mut wal, &mut in_flight, job, now);
                        }
                    }
                    3 => {
                        if let Some(job) = wal.tick_job() {
                            record(&mut wal, &mut in_flight, job, now);
                        }
                    }
                    4 => {
                        if !in_flight.is_empty() {
                            let (upto_lsn, finish) = in_flight.remove(0);
                            now = now.max(finish);
                            wal.flush_done(upto_lsn, now);
                            while let Some(job) = wal.full_batch_job() {
                                record(&mut wal, &mut in_flight, job, now);
                            }
                        }
                    }
                    _ => {
                        let cutoff = now - graceful;
                        lsn = wal.last_lsn_at_or_before_hinted(cutoff, lsn);
                        prop_assert_eq!(lsn, wal.last_lsn_at_or_before(cutoff));
                        let durable = wal.durable_time_of_hinted(lsn, &mut cursor);
                        prop_assert_eq!(durable, wal.durable_time_of(lsn));
                    }
                }
            }
        }
    }

    #[test]
    fn sanitize_repairs_degenerate_knobs() {
        let k = WriteKnobs { wal_batch_rows: 0, flush_interval_secs: -1.0, seal_rows: 0 };
        let s = k.sanitized();
        assert_eq!(s.wal_batch_rows, 1);
        assert_eq!(s.seal_rows, 1);
        assert_eq!(s.flush_interval_secs, WriteKnobs::DEFAULT.flush_interval_secs);
        let nan = WriteKnobs { flush_interval_secs: f64::NAN, ..WriteKnobs::DEFAULT };
        assert_eq!(nan.sanitized().flush_interval_secs, WriteKnobs::DEFAULT.flush_interval_secs);
    }

    #[test]
    fn default_knobs_are_the_neutral_constants() {
        assert_eq!(WriteKnobs::default(), WriteKnobs::DEFAULT);
        assert_eq!(WriteKnobs::DEFAULT.sanitized(), WriteKnobs::DEFAULT);
    }
}
