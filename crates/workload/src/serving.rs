//! A deterministic discrete-event *serving* simulator: the live-traffic
//! counterpart to the offline batch replay.
//!
//! The offline replay runs the workload as a closed batch and derives QPS
//! analytically — `maxReadConcurrency` and `gracefulTime` are *costed*,
//! never *exercised*, so tail latency (the metric production VDBMSs are
//! provisioned for) is invisible to it. This module simulates the system
//! serving an **open-loop** arrival process instead, in **one event loop**
//! whose variants are data. A run has two halves. What is *offered* — the
//! [`ArrivalPlan`] — depends on `(spec, seed)` only and is drawn once; how
//! it is *served* — a [`Deployment`] — is the candidate, and is all the
//! loop computes. [`simulate`] does both for one candidate and keeps the
//! full [`ServingTrace`]; a backend's serving phase
//! ([`crate::SimBackend::serving`]) keeps the plan of the seed it is
//! evaluated with and asks each candidate only for its
//! [`ServingStats`] ([`ArrivalPlan::stats`]), which the loop feeds event by
//! event without ever materialising a trace.
//!
//! * **Arrivals.** A seeded process ([`ServingSpec::arrival_qps`],
//!   hyperexponential burstiness via [`ServingSpec::burstiness`]) generates
//!   query arrivals; when the spec carries an insert fraction
//!   ([`ServingSpec::insert_fraction`]) a second, independent stream
//!   generates insert arrivals. Both are time-sorted vectors walked by
//!   cursors; only the events a run creates while it runs — flush ticks,
//!   commit completions, deferred consistency retries — live in a heap.
//!   Pinning, knobs and service time change *scheduling*, never the
//!   offered workload.
//! * **Slots.** Eligible requests queue (bounded — overflow is **shed**)
//!   for a worker slot. The shared pool is one queue per replica group
//!   over [`vdms::CostModel::serving_slots`] slots (`maxReadConcurrency`
//!   capped by the node's cores, over-provisioning paying a scheduling
//!   penalty); shard reactors are [`vdms::CostModel::reactor_count`]
//!   single-slot queues per group, each with its own scan penalty and
//!   handoff. Same code, different queue count and per-queue constants.
//! * **Service.** Per-query service times come from the cost model's
//!   measured QPS ([`vdms::CostModel::service_secs_from_qps_replicated`] —
//!   the straggler and proxy-merge terms of the cluster path are already
//!   folded into a sharded backend's QPS) times a deterministic per-query
//!   jitter factor from the plan.
//! * **Visibility.** Arrivals wait for *consistency* — this is where
//!   `gracefulTime` becomes load-bearing. Without an insert stream a query
//!   may start once a flush has published a tsafe watermark covering
//!   `arrival - gracefulTime`
//!   ([`vdms::CostModel::consistency_wait_secs_replicated`]); the
//!   flush-cycle phase dependence is what creates its latency *tail*. With
//!   one, inserts flow through a [`vdms::WalSim`] write path and the wait
//!   resolves against the WAL's *actual* durability events
//!   ([`vdms::WalSim::durable_time_of`]) — by cursors over the admission
//!   and commit logs, since queries ask in arrival order.
//! * **Write work.** WAL group commits (full-batch or end-of-tick),
//!   segment seals and compactions are priced by the same cost model and
//!   occupy the primary queue's worker slots — the ones queries contend
//!   for — and backpressure from a full insert window parks arrivals
//!   against the primary queue.
//!
//! **Determinism is the contract**: every random draw is a pure function of
//! `(seed, index)`, the parallel precomputation uses an order-stable
//! collect, and the event loop itself is serial — so the same seed yields a
//! bit-identical [`ServingTrace`] no matter how many rayon worker threads
//! execute the simulation, and whether its plan was just drawn or came out
//! of a memo (`tests/serving.rs` proves 1 vs N thread invariance by
//! property; `tests/serving_trace_digests.rs` pins traces captured before
//! the loops were unified and holds the trace-free stats to them).

use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vdms::cluster::RoutingPolicy;
use vdms::cost_model::CostModel;
use vdms::system_params::SystemParams;
use vdms::topology::PinningPolicy;
use vdms::writepath::{FlushJob, FlushReason, WalSim, WriteKnobs};

/// The open-loop arrival process and serving-level objectives of one
/// simulation run. `Copy` so backends can embed it freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingSpec {
    /// Mean request arrival rate (requests/second). `<= 0` or NaN disables
    /// the simulation entirely: the backend degrades to pure offline
    /// semantics.
    pub arrival_qps: f64,
    /// Arrival burstiness `>= 0`: inter-arrival gaps are exponential draws
    /// scaled by a two-point mixture with mean 1 — half the gaps shrink by
    /// `1/(1+b)`, half stretch by `2 - 1/(1+b)` — so the mean rate is
    /// preserved while the squared coefficient of variation grows with
    /// `b`. `0.0` is a plain Poisson process.
    pub burstiness: f64,
    /// Number of requests to simulate.
    pub requests: usize,
    /// Bound of each replica's scheduler queue (requests waiting for a
    /// slot, not counting those in service). An arrival that finds its
    /// routed queue full is shed — counted, and charged its penalty
    /// latency in the percentile stream, but never served.
    pub queue_capacity: usize,
    /// Latency above which a completed request counts as a timeout — and
    /// the penalty latency a shed request is charged in the percentile
    /// stream (the client gives up after this long either way).
    pub timeout_secs: f64,
    /// Optional p99 service-level objective. When set, the serving backend
    /// records configs whose p99 exceeds it — or that shed *or time out*
    /// more than [`ServingSpec::max_shed_fraction`] of requests — as
    /// *failed* observations ([`vdms::VdmsError::SloViolation`]).
    pub slo_p99_secs: Option<f64>,
    /// Largest tolerable dropped fraction — shed, and (separately) timed
    /// out — before the SLO counts as violated.
    pub max_shed_fraction: f64,
    /// How arrivals choose a replica group when the deployment is
    /// replicated. [`RoutingPolicy::JoinShortestQueue`] inspects the real
    /// per-replica queue depths at arrival time;
    /// [`RoutingPolicy::Random`] draws a group per request. Irrelevant
    /// (and bit-invisible) for unreplicated deployments.
    pub routing: RoutingPolicy,
    /// Insert traffic as a fraction of the query arrival rate: inserts
    /// arrive in an independent seeded stream at `arrival_qps *
    /// insert_fraction`, and `requests * insert_fraction` (rounded) of
    /// them are simulated — so the insert:query mix is a scenario axis,
    /// not a split of the query budget. `0.0` (the default) disables the
    /// write path entirely: no insert stream, no WAL, and consistency
    /// waits follow the analytic watermark.
    pub insert_fraction: f64,
}

impl Default for ServingSpec {
    fn default() -> Self {
        ServingSpec {
            arrival_qps: 500.0,
            burstiness: 0.5,
            requests: 2_000,
            queue_capacity: 256,
            timeout_secs: 1.0,
            slo_p99_secs: None,
            max_shed_fraction: 0.01,
            routing: RoutingPolicy::JoinShortestQueue,
            insert_fraction: 0.0,
        }
    }
}

impl ServingSpec {
    /// Whether the spec offers any traffic: a positive arrival rate. A
    /// `<= 0` rate and a NaN one both mean "no serving phase" — the test
    /// is `> 0` because NaN fails every comparison.
    pub(crate) fn has_serving_phase(&self) -> bool {
        self.arrival_qps > 0.0
    }

    /// This spec at a different arrival rate.
    pub fn at_rate(self, arrival_qps: f64) -> ServingSpec {
        ServingSpec { arrival_qps, ..self }
    }

    /// This spec with a p99 SLO (seconds).
    pub fn with_slo(self, slo_p99_secs: f64) -> ServingSpec {
        ServingSpec { slo_p99_secs: Some(slo_p99_secs), ..self }
    }

    /// This spec with a different replica-routing policy.
    pub fn with_routing(self, routing: RoutingPolicy) -> ServingSpec {
        ServingSpec { routing, ..self }
    }

    /// This spec with insert traffic at `insert_fraction` times the query
    /// arrival rate — the write axis of a mixed read/write scenario.
    pub fn with_inserts(self, insert_fraction: f64) -> ServingSpec {
        ServingSpec { insert_fraction, ..self }
    }
}

/// One request's life in the event trace. Times are simulated seconds from
/// the start of the run; a shed request records only its arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEvent {
    /// Arrival time of the request.
    pub arrival_secs: f64,
    /// Consistency wait before the request became eligible for a slot.
    pub consistency_wait_secs: f64,
    /// Time spent executing on a worker slot (0 when shed).
    pub service_secs: f64,
    /// Completion time (equals `arrival_secs` when shed).
    pub finish_secs: f64,
    /// True when the routed bounded queue rejected this arrival.
    pub shed: bool,
    /// Replica group the router sent this request to (0 when
    /// unreplicated; recorded even for shed requests).
    pub replica: usize,
}

impl QueryEvent {
    /// End-to-end latency: consistency wait + queue wait + service.
    pub fn latency_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }
}

/// Aggregate write-path counters of one simulation — all zero for a
/// read-only run. `Copy` so it rides inside [`ServingStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WriteStats {
    /// Inserts that arrived.
    pub offered: usize,
    /// Inserts the write path accepted (admitted immediately, or parked by
    /// backpressure and admitted later). `accepted + shed == offered`, and
    /// every accepted insert is durable by the end of the run.
    pub accepted: usize,
    /// Inserts rejected because the backpressure parking queue overflowed.
    pub shed: usize,
    /// Group commits triggered by a full WAL batch.
    pub flushes_full_batch: usize,
    /// Group commits triggered by the flush-interval deadline (including
    /// the end-of-run drain).
    pub flushes_end_of_tick: usize,
    /// Growing segments sealed at [`WriteKnobs::seal_rows`].
    pub segments_sealed: usize,
    /// Compactions triggered (every
    /// [`vdms::writepath::COMPACT_SEALS_PER_MERGE`]-th seal).
    pub compactions: usize,
    /// Highest WAL LSN durable when the run drained — equals `accepted`,
    /// the never-drop invariant stated as data.
    pub last_durable_lsn: u64,
}

/// The full event trace of one simulation — the bit-identical artifact the
/// determinism contract is stated over.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingTrace {
    /// Per-request events, in arrival order.
    pub events: Vec<QueryEvent>,
    /// Worker slots *per replica group* (`maxReadConcurrency` capped by
    /// cores).
    pub slots: usize,
    /// Replica groups the simulation served.
    pub replicas: usize,
    /// Largest scheduler-queue depth observed at any arrival, across all
    /// replica groups.
    pub max_queue_depth: usize,
    /// Write-path counters (all zero for a read-only run).
    pub writes: WriteStats,
}

/// Aggregate serving metrics of one trace — what the tuner and the reports
/// consume. `Copy` so it can ride inside every `Outcome`/`Observation`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingStats {
    /// Offered load: the spec's mean arrival rate.
    pub offered_qps: f64,
    /// Completed requests divided by the makespan — *including* the ones
    /// that blew the timeout.
    pub achieved_qps: f64,
    /// **Goodput**: completions under [`ServingSpec::timeout_secs`]
    /// divided by the makespan — the throughput a client actually
    /// experienced. Always `<= achieved_qps`.
    pub goodput_qps: f64,
    /// Median latency of the shed-charged stream (see
    /// [`ServingTrace::stats`]).
    pub p50_latency_secs: f64,
    /// 95th-percentile latency of the shed-charged stream.
    pub p95_latency_secs: f64,
    /// 99th-percentile latency of the shed-charged stream — the SLO
    /// metric. Shed requests are charged their penalty latency here, so an
    /// overloaded config cannot understate its tail by dropping traffic
    /// (coordinated omission).
    pub p99_latency_secs: f64,
    /// Largest scheduler-queue depth observed (across replica groups).
    pub max_queue_depth: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected by a full bounded queue.
    pub shed: usize,
    /// Completed requests whose latency exceeded the timeout.
    pub timeouts: usize,
    /// Simulated wall time from the first arrival to the last completion.
    pub makespan_secs: f64,
    /// Write-path counters of the run (all zero when the spec offered no
    /// inserts), so reports can state flush reasons, seals, compactions
    /// and the never-drop invariant next to the query metrics.
    pub writes: WriteStats,
}

impl ServingStats {
    /// Fraction of offered requests that were shed.
    pub fn shed_fraction(&self) -> f64 {
        self.shed as f64 / (self.completed + self.shed).max(1) as f64
    }

    /// Fraction of offered requests that completed but blew the timeout.
    pub fn timeout_fraction(&self) -> f64 {
        self.timeouts as f64 / (self.completed + self.shed).max(1) as f64
    }

    /// Whether these stats violate `spec`'s SLO (when one is set): p99
    /// over the objective, or more than the tolerated fraction of requests
    /// shed, or more than the tolerated fraction timed out — a config that
    /// "serves" everything too late is as violating as one that drops it.
    pub fn violates_slo(&self, spec: &ServingSpec) -> bool {
        match spec.slo_p99_secs {
            Some(slo) => {
                self.p99_latency_secs > slo
                    || self.shed_fraction() > spec.max_shed_fraction
                    || self.timeout_fraction() > spec.max_shed_fraction
            }
            None => false,
        }
    }
}

/// SplitMix64 finalizer over `(seed, stream, index)` — every per-query
/// draw routes through this, which is what makes each draw a pure function
/// of its index (and the precomputation thread-count invariant).
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD2B7_4407_B1CE_6E93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `(0, 1]` from 53 high bits (never exactly zero, so
/// `ln` stays finite).
fn unit(bits: u64) -> f64 {
    (((bits >> 11) + 1) as f64) / (1u64 << 53) as f64
}

/// `(arrival, burst)` draw streams of the query and insert processes.
const STREAMS_QUERY: (u64, u64) = (0x5E21, 0x5E22);
const STREAMS_INSERT: (u64, u64) = (0x5E25, 0x5E26);
const STREAM_JITTER: u64 = 0x5E23;
const STREAM_ROUTE: u64 = 0x5E24;

/// Inter-arrival gap before request `i` of a process arriving at `rate`:
/// an exponential draw at the mean rate, scaled by the two-point
/// burstiness mixture (mean exactly 1). Queries and inserts are the same
/// process on independent `(arrival, burst)` streams.
fn interarrival_secs(
    rate: f64,
    burstiness: f64,
    (arrival, burst): (u64, u64),
    seed: u64,
    i: u64,
) -> f64 {
    let exp = -unit(mix(seed, arrival, i)).ln() / rate.max(1e-9);
    let tight = 1.0 / (1.0 + burstiness.max(0.0));
    let scale = if mix(seed, burst, i) & 1 == 0 { tight } else { 2.0 - tight };
    exp * scale
}

/// Turn inter-arrival gaps into arrival times, in place.
fn accumulate<'a>(gaps: impl Iterator<Item = &'a mut f64>) {
    let mut clock = 0.0f64;
    for gap in gaps {
        clock += *gap;
        *gap = clock;
    }
}

/// Per-query service-time jitter: lognormal around 1, clamped — stragglers
/// exist even without queueing, so p99 > p50 at idle.
fn service_jitter(seed: u64, i: u64) -> f64 {
    let u1 = unit(mix(seed, STREAM_JITTER, i));
    let u2 = unit(mix(seed, STREAM_JITTER, i ^ 0x8000_0000_0000_0000));
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (0.25 * z).exp().clamp(0.5, 3.0)
}

/// The offered workload of one run — query arrival times with their
/// service-jitter factors, and insert arrival times: every number a run
/// draws from its seed. A plan is a pure function of `(spec, seed)`;
/// nothing about the candidate being served (knobs, pinning, replicas,
/// service time) reaches it, so every candidate a backend evaluates under
/// one seed can share one plan and pay only for the event loop. The draws
/// fan out over rayon — each is a pure function of its index and the
/// collect is order-stable — and are summed serially.
#[derive(Debug)]
pub struct ArrivalPlan {
    spec: ServingSpec,
    seed: u64,
    /// `(arrival time, service-jitter factor)` per query, in arrival order.
    /// The factor multiplies the candidate's base service time at use.
    queries: Vec<(f64, f64)>,
    /// Insert arrival times, ascending.
    inserts: Vec<f64>,
}

/// The candidate-dependent half of a run: the deployment serving a plan's
/// traffic — everything [`simulate`] takes besides `(spec, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct Deployment<'a> {
    pub model: &'a CostModel,
    pub sys: &'a SystemParams,
    /// Per-query service time the cost model derived for the configuration
    /// ([`vdms::CostModel::service_secs_from_qps_replicated`]).
    pub base_service_secs: f64,
    /// Identical replica groups (at least one is simulated).
    pub replicas: usize,
    /// Each group's execution model: the shared slot pool, or reactors.
    pub policy: PinningPolicy,
    pub top_k: usize,
    /// The write path inserts run under (ignored without an insert stream).
    pub knobs: WriteKnobs,
}

impl ArrivalPlan {
    /// Draw the plan of `spec` under `seed`. A spec with no requests or a
    /// rate that is not positive (NaN included) offers nothing: the plan is
    /// empty and runs to an empty trace.
    pub fn new(spec: &ServingSpec, seed: u64) -> ArrivalPlan {
        let n = if spec.has_serving_phase() { spec.requests } else { 0 };
        let n_inserts = (n as f64 * spec.insert_fraction.max(0.0)).round() as usize;
        let mut queries: Vec<(f64, f64)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let i = i as u64;
                (
                    interarrival_secs(spec.arrival_qps, spec.burstiness, STREAMS_QUERY, seed, i),
                    service_jitter(seed, i),
                )
            })
            .collect();
        accumulate(queries.iter_mut().map(|q| &mut q.0));
        let insert_qps = spec.arrival_qps * spec.insert_fraction;
        let mut inserts: Vec<f64> = (0..n_inserts)
            .into_par_iter()
            .map(|j| interarrival_secs(insert_qps, spec.burstiness, STREAMS_INSERT, seed, j as u64))
            .collect();
        accumulate(inserts.iter_mut());
        ArrivalPlan { spec: *spec, seed, queries, inserts }
    }

    /// The seed this plan was drawn under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Serve the plan on `deployment` and keep every event: what
    /// [`simulate`] returns.
    pub fn trace(&self, deployment: &Deployment<'_>) -> ServingTrace {
        // Deferred queries resolve out of arrival order, so events land by
        // index over a placeholder; the count proves none is left.
        let unresolved = QueryEvent {
            arrival_secs: f64::NAN,
            consistency_wait_secs: f64::NAN,
            service_secs: f64::NAN,
            finish_secs: f64::NAN,
            shed: true,
            replica: usize::MAX,
        };
        let mut events = vec![unresolved; self.queries.len()];
        let mut resolved = 0usize;
        let summary = run(self, deployment, |i, event| {
            events[i] = event;
            resolved += 1;
        });
        assert_eq!(
            resolved,
            events.len(),
            "every query resolves exactly once by the end of the run"
        );
        ServingTrace { events, ..summary }
    }

    /// Serve the plan on `deployment` and keep only the aggregate:
    /// bit-identical to `self.trace(deployment).stats(spec)` for the spec
    /// the plan was drawn from, without materialising the trace — what a
    /// serving phase ([`crate::SimBackend::serving`]) pays per candidate.
    pub fn stats(&self, deployment: &Deployment<'_>) -> ServingStats {
        let mut acc = StatsAccumulator::new(&self.spec, self.queries.len());
        let summary = run(self, deployment, |i, event| acc.record(i, &event));
        acc.finish(summary.max_queue_depth, summary.writes)
    }
}

/// One *dynamic* event of the loop — the ones a run schedules while it
/// runs. Query and insert arrivals are known up front and never enter
/// the heap.
enum Ev {
    /// Flush-interval deadline: group-commit whatever the full-batch
    /// trigger left pending.
    Tick,
    /// A recorded group commit finished — rows up to the LSN are durable.
    FlushDone(u64),
    /// Query `query`, deferred because no triggered commit covered its
    /// consistency cutoff, retries right after the tick that triggers the
    /// covering commit.
    Retry { query: usize, queue: usize, arrival_secs: f64, lsn: u64 },
}

/// Heap entry of the event loop, ordered by `(time, push order)` — FIFO on
/// time ties, so a tick pushed before a same-instant retry fires first and
/// the loop is fully deterministic.
struct Scheduled {
    time_bits: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Scheduled) -> bool {
        self.time_bits == other.time_bits && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Scheduled) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    // Reversed: `BinaryHeap` is a max-heap, the loop wants earliest first.
    // `time_bits` ordering is the time ordering for the non-negative
    // times the simulation produces.
    fn cmp(&self, other: &Scheduled) -> std::cmp::Ordering {
        (other.time_bits, other.seq).cmp(&(self.time_bits, self.seq))
    }
}

/// The dynamic events still ahead, earliest first.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl Agenda {
    fn push(&mut self, at: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Scheduled { time_bits: at.to_bits(), seq: self.seq, ev });
    }
}

/// The deployment's scheduler queues, flat in group-major order. The
/// execution model is data, not a code path: the shared pool is one queue
/// per replica group backed by [`vdms::CostModel::serving_slots`] worker
/// slots, serving at the base service time (scan multiplier 1, no
/// handoff); shard reactors are [`vdms::CostModel::reactor_count`]
/// single-slot queues per group, each paying its own SMT scan penalty and
/// delegator handoff. Write work (commits, seals, compactions) always
/// lands on queue 0 — the primary's slots — which is exactly where it
/// competes with queries.
///
/// Slot free times and pending start times live in binary heaps keyed by
/// `f64::to_bits` — monotone for the non-negative times the simulation
/// produces, so the cheapest u64 ordering is the time ordering.
///
/// The router reads depths from counters, not heaps: every admitted
/// request that has not started is one entry `(start, queue)` in the one
/// `waiting` heap and one unit of `depths[queue]`, and
/// [`SlotPool::survey`] drains the heap up to the arrival it serves before
/// anyone reads a counter.
struct SlotPool {
    /// Per queue: when each of its worker slots next falls free.
    free: Vec<BinaryHeap<Reverse<u64>>>,
    /// `(start time, queue)` of every admitted request not yet in service,
    /// across all queues.
    waiting: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per queue: how many of `waiting`'s entries are its own.
    depths: Vec<usize>,
    queues_per_group: usize,
    /// Scan multiplier and additive handoff of queue `q`, indexed by
    /// `q % queues_per_group`.
    scan: Vec<f64>,
    handoff: Vec<f64>,
}

/// What the router read in one [`SlotPool::survey`].
struct Depths {
    /// The shortest queue (lowest index among equals) and its depth.
    shortest_queue: usize,
    shortest: usize,
    /// The deepest queue's depth.
    deepest: usize,
}

impl SlotPool {
    fn new(
        model: &CostModel,
        sys: &SystemParams,
        replicas: usize,
        policy: PinningPolicy,
        top_k: usize,
    ) -> SlotPool {
        let (queues_per_group, slots_per_queue) = match policy {
            PinningPolicy::Shared => (1, model.serving_slots(sys)),
            pinned => (model.reactor_count(pinned, sys), 1),
        };
        let queues = replicas * queues_per_group;
        SlotPool {
            free: vec![vec![Reverse(0u64); slots_per_queue].into(); queues],
            waiting: BinaryHeap::new(),
            depths: vec![0; queues],
            queues_per_group,
            scan: model.reactor_scan_penalties(policy, queues_per_group),
            handoff: model.reactor_handoff_secs(policy, queues_per_group, top_k),
        }
    }

    fn group_of(&self, q: usize) -> usize {
        q / self.queues_per_group
    }

    /// What [`ServingTrace::slots`] reports: worker slots per group.
    fn slots_per_group(&self) -> usize {
        self.free[0].len() * self.queues_per_group
    }

    /// Queue `q`'s depth in the router's eyes. Backpressure is visible to
    /// reads: `parked` inserts occupy the primary queue.
    fn depth(&self, q: usize, parked: usize) -> usize {
        self.depths[q] + if q == 0 { parked } else { 0 }
    }

    /// What an arrival at `now` pays for: requests whose service has
    /// started by `now` have left their scheduler queues, so drain them
    /// from the one heap, each taking one off its queue's counter; then
    /// scan the counters for the router (shortest queue, strict `<` so
    /// ties go to the lowest index) and for the trace's high-water mark.
    fn survey(&mut self, now: f64, parked: usize) -> Depths {
        while let Some(&Reverse((bits, q))) = self.waiting.peek() {
            if f64::from_bits(bits) <= now {
                self.waiting.pop();
                self.depths[q] -= 1;
            } else {
                break;
            }
        }
        let mut seen = Depths { shortest_queue: 0, shortest: usize::MAX, deepest: 0 };
        for q in 0..self.depths.len() {
            let depth = self.depth(q, parked);
            if depth < seen.shortest {
                (seen.shortest_queue, seen.shortest) = (q, depth);
            }
            seen.deepest = seen.deepest.max(depth);
        }
        seen
    }

    /// Occupy queue `q`'s earliest-free slot for `secs`, no sooner than
    /// `ready`; returns `(start, finish)`. The slot's free time is replaced
    /// in place (one sift, not a pop and a push): only the earliest is ever
    /// read, and the heap holds the same times either way.
    fn occupy(&mut self, q: usize, ready: f64, secs: f64) -> (f64, f64) {
        let mut earliest = self.free[q].peek_mut().expect("slots >= 1 by construction");
        let start = ready.max(f64::from_bits(earliest.0));
        let finish = start + secs;
        earliest.0 = finish.to_bits();
        (start, finish)
    }

    /// Start a query on queue `q`: its consistency wait ended at
    /// `eligible_secs`, so it takes a slot and completes.
    ///
    /// **Invariant:** a query that starts at its arrival is never queued.
    /// The loop visits events in non-decreasing time, and depths are read
    /// only after a [`SlotPool::survey`] has drained every start at or
    /// before the arrival it serves — so an entry with `start <= arrival`
    /// would always be drained before anyone counted it. A query held by
    /// a consistency wait (`start >= eligible > arrival`) is queued and
    /// counted until it starts.
    fn serve(
        &mut self,
        q: usize,
        arrival_secs: f64,
        eligible_secs: f64,
        consistency_wait_secs: f64,
        base_service_secs: f64,
    ) -> QueryEvent {
        let r = q % self.queues_per_group;
        let service_secs = base_service_secs * self.scan[r] + self.handoff[r];
        let (start, finish_secs) = self.occupy(q, eligible_secs, service_secs);
        if start > arrival_secs {
            self.waiting.push(Reverse((start.to_bits(), q)));
            self.depths[q] += 1;
        }
        QueryEvent {
            arrival_secs,
            consistency_wait_secs,
            service_secs,
            finish_secs,
            shed: false,
            replica: self.group_of(q),
        }
    }
}

/// Price and schedule a triggered group commit: it contends for a primary
/// (queue 0) worker slot like any query, serializes after the previous
/// commit to the same WAL, and its completion is a future event.
fn schedule_commit(
    model: &CostModel,
    pool: &mut SlotPool,
    wal: &mut WalSim,
    agenda: &mut Agenda,
    job: FlushJob,
    trigger_secs: f64,
) {
    let after = wal.flushes().last().map_or(trigger_secs, |f| trigger_secs.max(f.finish_secs));
    let (_, finish) = pool.occupy(0, after, model.wal_flush_secs(job.rows));
    wal.record_flush(job, trigger_secs, finish);
    agenda.push(finish, Ev::FlushDone(job.upto_lsn));
}

/// The serving simulation — the one event loop every entry point and
/// [`crate::SimBackend::serving`] drive, reporting each query's
/// [`QueryEvent`] to `resolved` (with its arrival index) the moment it
/// is known, and returning everything else a [`ServingTrace`] holds —
/// `events` is left empty for the caller that kept them. Arrivals, replica
/// routing, consistency waits, bounded queueing, slot scheduling and the
/// write path happen here.
///
/// The deployment is `replicas` identical groups. `policy` selects each
/// group's execution model: [`PinningPolicy::Shared`] is one bounded queue
/// drained by [`vdms::CostModel::serving_slots`] worker slots; any other
/// policy is [`vdms::CostModel::reactor_count`] single-owner reactors,
/// each its own single-slot queue with no work stealing (the
/// shared-nothing property), paying its SMT scan penalty
/// ([`vdms::CostModel::reactor_scan_penalties`]) and delegator handoff
/// ([`vdms::CostModel::reactor_handoff_secs`]). At every arrival the
/// router ([`ServingSpec::routing`]) picks one queue across the fleet:
/// join-shortest-queue reads the *real* depths (ties to the lowest index),
/// random routing draws a queue from the seed.
///
/// **Events.** Query and insert arrival times come from the plan — drawn
/// before the loop, never by it — and are walked by two cursors; only the
/// events a run schedules while it
/// runs (flush ticks, commit completions, deferred retries) live in a
/// heap. On a time tie a query fires before an insert before the heap,
/// and the heap is FIFO. The loop itself is serial, so the same inputs
/// give a bit-identical trace on any thread count.
///
/// **Visibility.** A query may start once the rows its `gracefulTime`
/// asks for are visible on its group, by one of two rules:
/// * no insert stream (`insert_fraction <= 0`): the analytic watermark —
///   the wait is [`vdms::CostModel::consistency_wait_secs_replicated`],
///   flush-cycle phase and slowest-replica lag included; no tick is ever
///   scheduled, so a read-only run never touches the heap;
/// * an insert stream: the WAL — inserts are offered to a [`WalSim`]
///   running `knobs`, and the query waits for the commit that makes the
///   last row admitted by `arrival - gracefulTime` durable (plus the
///   replica lag off the primary group). Queries ask in arrival order,
///   so both lookups advance cursors instead of searching. When no
///   triggered commit covers that row yet, the query retries right
///   after the next tick, which triggers everything pending.
///
/// **Write work.** Group commits (a full batch, or the tick deadline),
/// segment seals and compactions are priced by the cost model and occupy
/// the primary queue's worker slots, commits serialized one after
/// another. A full insert window parks arrivals (shedding past
/// `queue_capacity`); parked inserts count against the primary queue in
/// the router's eyes, steering JSQ away and shedding queries once the
/// shared bound fills. The tick chain runs until every accepted insert
/// is durable — backpressure delays, never drops.
fn run(
    plan: &ArrivalPlan,
    deployment: &Deployment<'_>,
    mut resolved: impl FnMut(usize, QueryEvent),
) -> ServingTrace {
    let &Deployment { model, sys, base_service_secs, replicas, policy, top_k, knobs } = deployment;
    let (spec, queries, inserts) = (&plan.spec, &plan.queries[..], &plan.inserts[..]);
    let replicas = replicas.max(1);
    let mut pool = SlotPool::new(model, sys, replicas, policy, top_k);
    let slots = pool.slots_per_group();
    let queues = pool.free.len();
    let (n, n_inserts) = (queries.len(), inserts.len());
    let has_inserts = spec.insert_fraction > 0.0;

    // Backpressure and query queueing share the bound: the parking queue
    // holds at most `queue_capacity` inserts.
    let mut wal = WalSim::new(knobs, spec.queue_capacity);
    let interval = wal.knobs().flush_interval_secs;
    let graceful_secs = sys.graceful_time_ms.max(0.0) / 1_000.0;
    let replica_lag_secs = CostModel::replica_lag_ms(replicas) / 1_000.0;
    // The jitter factor is the plan's; the product is the candidate's.
    let service_secs = |i: usize| base_service_secs * queries[i].1;
    // WAL visibility: the rows became durable on the primary at
    // `durable_secs`, and reach the other groups a replica lag later.
    let serve_visible =
        |pool: &mut SlotPool, i: usize, q: usize, arrival_secs: f64, durable_secs: f64| {
            let visible =
                if pool.group_of(q) == 0 { durable_secs } else { durable_secs + replica_lag_secs };
            let eligible = arrival_secs.max(visible);
            pool.serve(q, arrival_secs, eligible, eligible - arrival_secs, service_secs(i))
        };

    let mut agenda = Agenda::default();
    let mut next_tick = interval;
    if has_inserts {
        agenda.push(next_tick, Ev::Tick);
    }
    let mut max_queue_depth = 0usize;
    let (mut qi, mut ii) = (0usize, 0usize);
    // Where the last in-order query left the admission and commit logs.
    let (mut lsn_cursor, mut flush_cursor) = (0u64, 0usize);
    loop {
        let query_at = queries.get(qi).map_or(f64::INFINITY, |q| q.0);
        let insert_at = inserts.get(ii).copied().unwrap_or(f64::INFINITY);
        let agenda_at = agenda.heap.peek().map_or(f64::INFINITY, |s| f64::from_bits(s.time_bits));
        if qi < n && query_at <= insert_at && query_at <= agenda_at {
            let (i, now) = (qi, query_at);
            qi += 1;
            let seen = pool.survey(now, wal.parked());
            max_queue_depth = max_queue_depth.max(seen.deepest);
            let (q, depth) = match spec.routing {
                RoutingPolicy::JoinShortestQueue => (seen.shortest_queue, seen.shortest),
                RoutingPolicy::Random { seed: route_seed } => {
                    let q = (mix(route_seed, STREAM_ROUTE, i as u64) % queues as u64) as usize;
                    (q, pool.depth(q, wal.parked()))
                }
            };
            if depth >= spec.queue_capacity {
                let shed = QueryEvent {
                    arrival_secs: now,
                    consistency_wait_secs: 0.0,
                    service_secs: 0.0,
                    finish_secs: now,
                    shed: true,
                    replica: pool.group_of(q),
                };
                resolved(i, shed);
            } else if !has_inserts {
                let wait = CostModel::consistency_wait_secs_replicated(sys, now, replicas);
                resolved(i, pool.serve(q, now, now + wait, wait, service_secs(i)));
            } else {
                let lsn = wal.last_lsn_at_or_before_hinted(now - graceful_secs, lsn_cursor);
                lsn_cursor = lsn;
                match wal.durable_time_of_hinted(lsn, &mut flush_cursor) {
                    Some(durable) => resolved(i, serve_visible(&mut pool, i, q, now, durable)),
                    // The next tick triggers everything pending (and fires
                    // before the retry — pushed earlier, same instant), so
                    // one retry always resolves.
                    None => {
                        let retry = Ev::Retry { query: i, queue: q, arrival_secs: now, lsn };
                        agenda.push(next_tick, retry);
                    }
                }
            }
        } else if ii < n_inserts && insert_at <= agenda_at {
            ii += 1;
            let _ = wal.offer_insert(insert_at);
            while let Some(job) = wal.full_batch_job() {
                schedule_commit(model, &mut pool, &mut wal, &mut agenda, job, insert_at);
            }
        } else if let Some(Scheduled { time_bits, ev, .. }) = agenda.heap.pop() {
            let now = f64::from_bits(time_bits);
            match ev {
                Ev::Tick => {
                    if let Some(job) = wal.tick_job() {
                        schedule_commit(model, &mut pool, &mut wal, &mut agenda, job, now);
                    }
                    // Keep ticking while anything can still need a deadline
                    // flush: events ahead, or un-drained write state. This
                    // is the end-of-run drain.
                    if qi < n || ii < n_inserts || !agenda.heap.is_empty() || !wal.drained() {
                        next_tick = now + interval;
                        agenda.push(next_tick, Ev::Tick);
                    }
                }
                Ev::FlushDone(upto_lsn) => {
                    let done = wal.flush_done(upto_lsn, now);
                    // Seals and compactions occupy a primary worker slot too.
                    let rebuild = model.segment_seal_secs(done.sealed_rows)
                        + model.compaction_secs(done.compacted_rows);
                    if rebuild > 0.0 {
                        pool.occupy(0, now, rebuild);
                    }
                    // Un-parked admissions can fill whole batches at once.
                    while let Some(job) = wal.full_batch_job() {
                        schedule_commit(model, &mut pool, &mut wal, &mut agenda, job, now);
                    }
                }
                // A retry fires out of arrival order, so it searches the
                // commit log instead of moving the in-order cursor.
                Ev::Retry { query, queue, arrival_secs, lsn } => {
                    let durable = wal
                        .durable_time_of(lsn)
                        .expect("the tick preceding a retry triggers every pending commit");
                    resolved(query, serve_visible(&mut pool, query, queue, arrival_secs, durable));
                }
            }
        } else {
            break;
        }
    }

    debug_assert!(wal.drained(), "the tick chain drains every accepted insert");
    let writes = WriteStats {
        offered: n_inserts,
        accepted: wal.accepted(),
        shed: wal.shed(),
        flushes_full_batch: wal.flush_count(FlushReason::FullBatch),
        flushes_end_of_tick: wal.flush_count(FlushReason::EndOfTick),
        segments_sealed: wal.seals(),
        compactions: wal.compactions(),
        last_durable_lsn: wal.durable_lsn(),
    };
    ServingTrace { events: Vec::new(), slots, replicas, max_queue_depth, writes }
}

/// Run the serving simulation: draw the [`ArrivalPlan`] of `(spec, seed)`
/// and serve it on the given deployment ([`ArrivalPlan::trace`]).
/// `base_service_secs` is the per-query service time the cost model derived
/// for this configuration
/// ([`vdms::CostModel::service_secs_from_qps_replicated`]).
#[allow(clippy::too_many_arguments)]
pub fn simulate(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
    policy: PinningPolicy,
    top_k: usize,
    knobs: WriteKnobs,
) -> ServingTrace {
    ArrivalPlan::new(spec, seed).trace(&Deployment {
        model,
        sys,
        base_service_secs,
        replicas,
        policy,
        top_k,
        knobs,
    })
}

/// Read-only [`simulate`] over the shared slot pool: any insert fraction
/// the spec carries is ignored. Kept, with [`simulate_pinned`] and
/// [`simulate_pinned_mixed`], for the repo benchmark's serving probes.
pub fn simulate_replicated(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
) -> ServingTrace {
    let spec = spec.with_inserts(0.0);
    simulate(
        model,
        sys,
        base_service_secs,
        &spec,
        seed,
        replicas,
        PinningPolicy::Shared,
        0,
        WriteKnobs::DEFAULT,
    )
}

/// Read-only [`simulate`] under `policy`: any insert fraction the spec
/// carries is ignored.
#[allow(clippy::too_many_arguments)]
pub fn simulate_pinned(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
    policy: PinningPolicy,
    top_k: usize,
) -> ServingTrace {
    let spec = spec.with_inserts(0.0);
    simulate(
        model,
        sys,
        base_service_secs,
        &spec,
        seed,
        replicas,
        policy,
        top_k,
        WriteKnobs::DEFAULT,
    )
}

/// [`simulate`] under the name the repo benchmark imports.
#[allow(clippy::too_many_arguments)]
pub fn simulate_pinned_mixed(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
    policy: PinningPolicy,
    top_k: usize,
    knobs: WriteKnobs,
) -> ServingTrace {
    simulate(model, sys, base_service_secs, spec, seed, replicas, policy, top_k, knobs)
}

/// The `i64` whose integer order is [`f64::total_cmp`]'s order of `x`:
/// the sign bit stays, a negative value's other bits flip. Ordering keys is
/// plain integer comparison. The map is its own inverse ([`latency_of`]).
fn latency_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The latency a [`latency_key`] stands for, bit for bit.
fn latency_of(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// The quantiles [`ServingStats`] reports — p50, p95, p99 — ascending, the
/// order [`nearest_ranks`] selects them in.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// The nearest-rank [`QUANTILES`] of the latency keys, by selection rather
/// than a sort. Ranks ascend with the quantiles (scaling by the count and
/// rounding up are both monotone), and a selection leaves every key at or
/// above its pivot to the pivot's right, so each `select_nth_unstable`
/// searches only the suffix that starts at the previous pivot. The keys
/// are totally ordered integers, so the k-th smallest is one value
/// whatever order the selection leaves the rest in: the same bits a
/// sorted stream gives. Empty input yields `INFINITY` so an SLO can never
/// be "satisfied" by a run that completed nothing.
fn nearest_ranks(keys: &mut [i64]) -> [f64; 3] {
    let n = keys.len();
    if n == 0 {
        return [f64::INFINITY; 3];
    }
    let mut lo = 0;
    QUANTILES.map(|q| {
        let at = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        keys[lo..].select_nth_unstable(at - lo);
        lo = at;
        latency_of(keys[at])
    })
}

/// The one implementation of [`ServingStats`]: fed every [`QueryEvent`] of
/// a run — by [`ServingTrace::stats`] from a kept trace, by
/// [`ArrivalPlan::stats`] straight from the loop — in any order.
struct StatsAccumulator {
    spec: ServingSpec,
    /// The shed-charged latency stream, as [`latency_key`]s.
    keys: Vec<i64>,
    completed: usize,
    timeouts: usize,
    first_arrival: f64,
    last_finish: f64,
}

impl StatsAccumulator {
    fn new(spec: &ServingSpec, requests: usize) -> StatsAccumulator {
        StatsAccumulator {
            spec: *spec,
            keys: Vec::with_capacity(requests),
            completed: 0,
            timeouts: 0,
            first_arrival: 0.0,
            last_finish: 0.0,
        }
    }

    /// Request `index` (in arrival order) resolved as `event`.
    fn record(&mut self, index: usize, event: &QueryEvent) {
        let latency = if event.shed {
            self.spec.timeout_secs
        } else {
            self.completed += 1;
            let latency = event.latency_secs();
            if latency > self.spec.timeout_secs {
                self.timeouts += 1;
            }
            latency
        };
        self.keys.push(latency_key(latency));
        // The measurement window runs from the first arrival to the last
        // completion, so a long idle lead-in (low rates, few requests)
        // does not deflate the achieved throughput.
        if index == 0 {
            self.first_arrival = event.arrival_secs;
        }
        self.last_finish = self.last_finish.max(event.finish_secs);
    }

    fn finish(mut self, max_queue_depth: usize, writes: WriteStats) -> ServingStats {
        let [p50, p95, p99] = nearest_ranks(&mut self.keys);
        let (completed, timeouts) = (self.completed, self.timeouts);
        let makespan = (self.last_finish - self.first_arrival).max(0.0);
        ServingStats {
            offered_qps: self.spec.arrival_qps,
            achieved_qps: completed as f64 / makespan.max(1e-9),
            goodput_qps: (completed - timeouts) as f64 / makespan.max(1e-9),
            p50_latency_secs: p50,
            p95_latency_secs: p95,
            p99_latency_secs: p99,
            max_queue_depth,
            completed,
            shed: self.keys.len() - completed,
            timeouts,
            makespan_secs: makespan,
            writes,
        }
    }
}

impl ServingTrace {
    /// Aggregate the trace into [`ServingStats`].
    ///
    /// The latency stream is **shed-charged** (the HdrHistogram-style
    /// coordinated-omission correction): every *offered* request
    /// contributes one sample — completed requests their intended-start
    /// latency (arrival is the intended start of an open-loop process, so
    /// `finish - arrival` already includes all queueing), shed requests
    /// their penalty latency [`ServingSpec::timeout_secs`] (the client
    /// gives up after that long). An earlier revision computed percentiles
    /// over completed requests only, so a config that shed 40% of its
    /// traffic could report a *better* p99 than one that served
    /// everything — overload tails were systematically understated.
    pub fn stats(&self, spec: &ServingSpec) -> ServingStats {
        let mut acc = StatsAccumulator::new(spec, self.events.len());
        for (i, event) in self.events.iter().enumerate() {
            acc.record(i, event);
        }
        acc.finish(self.max_queue_depth, self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::panel::SPECIAL_F64;
    use proptest::prelude::*;

    fn spec(rate: f64) -> ServingSpec {
        ServingSpec { arrival_qps: rate, requests: 800, ..Default::default() }
    }

    fn sim(rate: f64, sys: &SystemParams) -> ServingStats {
        let model = CostModel::default();
        let s = spec(rate);
        simulate_replicated(&model, sys, 0.004, &s, 7, 1).stats(&s)
    }

    #[test]
    fn idle_system_has_no_queueing() {
        let sys = SystemParams::default();
        let stats = sim(5.0, &sys);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.completed, 800);
        assert_eq!(stats.max_queue_depth, 0, "arrivals far apart never queue");
        // Latency is just service + jitter: p50 near the base service time.
        assert!(stats.p50_latency_secs < 0.004 * 1.5, "{}", stats.p50_latency_secs);
        assert!(stats.p99_latency_secs >= stats.p50_latency_secs);
    }

    #[test]
    fn overload_sheds_and_bounds_the_queue() {
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let model = CostModel::default();
        // Service 10 ms on one slot = 100 QPS capacity; offer 5000 QPS.
        let s = ServingSpec {
            arrival_qps: 5_000.0,
            requests: 2_000,
            queue_capacity: 16,
            ..Default::default()
        };
        let trace = simulate_replicated(&model, &sys, 0.010, &s, 3, 1);
        let stats = trace.stats(&s);
        assert!(stats.shed > 0, "overload must shed");
        assert!(stats.max_queue_depth <= 16, "queue bound respected");
        assert!(stats.achieved_qps < 150.0, "one 10ms slot serves ~100 QPS");
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let sys = SystemParams::default();
        let model = CostModel::default();
        let s = spec(800.0);
        let a = simulate_replicated(&model, &sys, 0.004, &s, 11, 1);
        let b = simulate_replicated(&model, &sys, 0.004, &s, 11, 1);
        assert_eq!(a, b);
        assert_ne!(a, simulate_replicated(&model, &sys, 0.004, &s, 12, 1), "seed matters");
    }

    #[test]
    fn more_slots_cut_tail_latency_under_load() {
        let narrow = SystemParams { max_read_concurrency: 2, ..Default::default() };
        let wide = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let loaded = sim(900.0, &narrow);
        let relieved = sim(900.0, &wide);
        assert!(
            relieved.p99_latency_secs < loaded.p99_latency_secs,
            "16 slots must beat 2 under load: {} vs {}",
            relieved.p99_latency_secs,
            loaded.p99_latency_secs
        );
    }

    #[test]
    fn over_provisioned_slots_pay_overhead_not_parallelism() {
        let model = CostModel::default();
        let at_cores = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let over = SystemParams { max_read_concurrency: 64, ..Default::default() };
        assert_eq!(model.serving_slots(&at_cores), 16);
        assert_eq!(model.serving_slots(&over), 16, "slots cap at the node's cores");
        assert!(model.serving_overhead_factor(&over) > model.serving_overhead_factor(&at_cores));
    }

    #[test]
    fn graceful_time_shapes_the_consistency_tail() {
        // gracefulTime below the ingestion lag: every query waits, and the
        // flush-cycle phase spreads the waits into a tail.
        let stalled = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        let covered = SystemParams::default(); // graceful 5000ms >> lag
        let with_stall = sim(200.0, &stalled);
        let without = sim(200.0, &covered);
        assert!(
            with_stall.p99_latency_secs > without.p99_latency_secs + 0.05,
            "gracefulTime=0 must add ~lag to the tail: {} vs {}",
            with_stall.p99_latency_secs,
            without.p99_latency_secs
        );
        // The wait is phase-dependent, not constant: p99 strictly above p50
        // by more than the service-jitter spread alone.
        let spread_stalled = with_stall.p99_latency_secs - with_stall.p50_latency_secs;
        let spread_covered = without.p99_latency_secs - without.p50_latency_secs;
        assert!(spread_stalled > spread_covered, "{spread_stalled} vs {spread_covered}");
    }

    #[test]
    fn burstiness_inflates_the_tail_at_fixed_mean_rate() {
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let model = CostModel::default();
        let smooth = ServingSpec {
            arrival_qps: 700.0,
            burstiness: 0.0,
            requests: 2_000,
            ..Default::default()
        };
        let bursty = ServingSpec { burstiness: 3.0, ..smooth };
        let a = simulate_replicated(&model, &sys, 0.004, &smooth, 5, 1).stats(&smooth);
        let b = simulate_replicated(&model, &sys, 0.004, &bursty, 5, 1).stats(&bursty);
        assert!(
            b.p99_latency_secs > a.p99_latency_secs,
            "bursts queue deeper: {} vs {}",
            b.p99_latency_secs,
            a.p99_latency_secs
        );
    }

    #[test]
    fn empty_run_yields_infinite_percentiles() {
        let sys = SystemParams::default();
        let model = CostModel::default();
        let s = ServingSpec { requests: 0, ..Default::default() };
        let stats = simulate_replicated(&model, &sys, 0.004, &s, 1, 1).stats(&s);
        assert_eq!(stats.completed, 0);
        assert!(stats.p99_latency_secs.is_infinite(), "no completions can satisfy an SLO");
        assert!(stats.violates_slo(&s.with_slo(10.0)));
    }

    /// Regression: a NaN rate passed the `<= 0` test and drew its gaps at
    /// a rate of 1e-9 — a read-only run "completed" all 50 requests over
    /// 45 billion seconds without violating a 25 ms SLO, and a mixed run
    /// walked every flush tick up to t ≈ 1e9 s. NaN offers nothing, like a
    /// zero rate.
    #[test]
    fn a_nan_rate_offers_nothing() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec { requests: 50, ..Default::default() }.at_rate(f64::NAN);
        let reads = simulate_replicated(&model, &sys, 0.004, &s, 1, 1).stats(&s);
        assert_eq!((reads.completed, reads.shed), (0, 0));
        assert!(reads.violates_slo(&s.with_slo(0.025)), "an empty run satisfies no SLO");
        let mixed = ServingSpec { requests: 4, ..s }.with_inserts(0.5);
        let knobs = WriteKnobs::DEFAULT;
        let trace = simulate(&model, &sys, 0.004, &mixed, 1, 1, PinningPolicy::Shared, 10, knobs);
        assert!(trace.events.is_empty());
        assert_eq!(trace.writes, WriteStats::default());
    }

    #[test]
    fn timeouts_count_slow_completions() {
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let model = CostModel::default();
        let s = ServingSpec {
            arrival_qps: 400.0,
            requests: 500,
            timeout_secs: 0.02,
            queue_capacity: 10_000,
            ..Default::default()
        };
        let stats = simulate_replicated(&model, &sys, 0.010, &s, 9, 1).stats(&s);
        assert!(stats.timeouts > 0, "queueing at 4x capacity must blow a 20ms timeout");
        assert!(stats.timeouts <= stats.completed);
    }

    /// The oracle the selection is held to: the nearest-rank percentile of
    /// ascending latency keys, `INFINITY` when there are none.
    fn percentile(sorted_keys: &[i64], q: f64) -> f64 {
        if sorted_keys.is_empty() {
            return f64::INFINITY;
        }
        let rank = ((q * sorted_keys.len() as f64).ceil() as usize).clamp(1, sorted_keys.len());
        latency_of(sorted_keys[rank - 1])
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0].map(latency_key);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_infinite());
        let mut shuffled = [4.0, 1.0, 3.0, 2.0].map(latency_key);
        assert_eq!(nearest_ranks(&mut shuffled), [2.0, 4.0, 4.0]);
        assert_eq!(nearest_ranks(&mut []), [f64::INFINITY; 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The three selected ranks are the sorted oracle's, bit for bit,
        /// and the selection only permutes the keys. Half the cases stop at
        /// 20 samples, where the p95 and p99 ranks coincide (every n < 20
        /// puts both at n); a palette of `levels` ordinary latencies makes
        /// duplicates heavy; and a quarter of the samples are the values
        /// orderings disagree on — ±0, subnormals, ±∞, both NaN signs and a
        /// negative `timeout_secs` charged to a shed request.
        #[test]
        fn selected_ranks_equal_the_sorted_oracle_bitwise(
            short in 0usize..2,
            samples in prop::collection::vec((0usize..36, 0.0f64..1.0), 0..=300),
            levels in 1usize..=64,
        ) {
            let tiny = f64::MIN_POSITIVE / 4.0;
            let n = if short == 0 { samples.len() % 21 } else { samples.len() };
            let mut keys: Vec<i64> = samples[..n]
                .iter()
                .map(|&(kind, x)| match kind {
                    0..=5 => SPECIAL_F64[kind],
                    6 => tiny,
                    7 => -tiny,
                    8 => -0.02,
                    _ => (x * levels as f64).floor() / levels as f64 * 0.05,
                })
                .map(latency_key)
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let oracle = QUANTILES.map(|q| percentile(&sorted, q).to_bits());
            prop_assert_eq!(nearest_ranks(&mut keys).map(f64::to_bits), oracle);
            keys.sort_unstable();
            prop_assert_eq!(keys, sorted);
        }
    }

    #[test]
    fn latency_keys_sort_in_total_cmp_order() {
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let samples = [
            0.004,
            0.0,
            -0.0,
            tiny,
            -tiny,
            5e-324,
            0.004,
            1.0,
            -0.02, // a negative `timeout_secs` charged to a shed request
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            1.0,
        ];
        let mut by_total_cmp = samples;
        by_total_cmp.sort_by(f64::total_cmp);
        let mut keys = samples.map(latency_key);
        keys.sort_unstable();
        assert_eq!(keys.map(|k| latency_of(k).to_bits()), by_total_cmp.map(f64::to_bits));
    }

    /// The percentiles as they were computed before the keys: `f64`
    /// latencies under `sort_by(total_cmp)`.
    fn float_sorted_percentiles(trace: &ServingTrace, spec: &ServingSpec) -> [u64; 3] {
        let mut latencies: Vec<f64> = trace
            .events
            .iter()
            .map(|e| if e.shed { spec.timeout_secs } else { e.latency_secs() })
            .collect();
        latencies.sort_by(f64::total_cmp);
        QUANTILES.map(|q| {
            let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
            latencies[rank - 1].to_bits()
        })
    }

    #[test]
    fn selected_percentiles_equal_the_float_sorted_ones_bitwise() {
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let overload = ServingSpec {
            arrival_qps: 3_000.0,
            requests: 1_500,
            queue_capacity: 16,
            ..Default::default()
        };
        // Sheds charged an ordinary, a negative and an infinite timeout.
        for timeout_secs in [0.02, -0.02, f64::INFINITY] {
            let s = ServingSpec { timeout_secs, ..overload };
            let trace = simulate_replicated(&model, &sys, 0.002, &s, 3, 1);
            let stats = trace.stats(&s);
            assert!(stats.shed > 0 && stats.completed > 0);
            let ours = [stats.p50_latency_secs, stats.p95_latency_secs, stats.p99_latency_secs];
            assert_eq!(
                ours.map(f64::to_bits),
                float_sorted_percentiles(&trace, &s),
                "{timeout_secs}"
            );
        }
    }

    /// Regression (coordinated omission): an overloaded config that sheds
    /// a large fraction of its traffic must not report a *lower* p99 than
    /// a config that serves the same load entirely. Before the
    /// shed-charging fix, the shedding config's percentile stream held
    /// only the requests lucky enough to clear its tiny queue — a fast
    /// tail built from dropped evidence.
    #[test]
    fn shedding_config_cannot_report_a_better_p99_than_a_serving_one() {
        let model = CostModel::default();
        // An aggressive config: 1 ms service on one slot = 1000 QPS
        // capacity against 2000 QPS offered, behind a one-deep queue — it
        // sheds about half the traffic, and what it does serve, it serves
        // nearly instantly.
        let starved = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let shedding = ServingSpec {
            arrival_qps: 2_000.0,
            requests: 2_000,
            queue_capacity: 1,
            ..Default::default()
        };
        let shed_trace = simulate_replicated(&model, &starved, 0.001, &shedding, 3, 1);
        let shed_stats = shed_trace.stats(&shedding);
        assert!(
            shed_stats.shed_fraction() > 0.3,
            "the overload must actually shed: {}",
            shed_stats.shed_fraction()
        );
        // A conservative config: slower per query (5 ms) but with enough
        // slots to serve the same load outright.
        let provisioned = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let serving_spec = ServingSpec { queue_capacity: 10_000, ..shedding };
        let ok_stats = simulate_replicated(&model, &provisioned, 0.005, &serving_spec, 3, 1)
            .stats(&serving_spec);
        assert_eq!(ok_stats.shed, 0);
        assert_eq!(ok_stats.timeouts, 0, "the serving arm must be genuinely healthy");
        assert!(
            shed_stats.p99_latency_secs >= ok_stats.p99_latency_secs,
            "shed-charged p99 must not flatter the overloaded config: {} vs {}",
            shed_stats.p99_latency_secs,
            ok_stats.p99_latency_secs
        );
        // The pre-fix metric really would have reported the opposite —
        // completed-only percentiles of the shedding trace beat the
        // provisioned config's tail.
        let mut served_only: Vec<i64> = shed_trace
            .events
            .iter()
            .filter(|e| !e.shed)
            .map(|e| latency_key(e.latency_secs()))
            .collect();
        served_only.sort_unstable();
        let uncorrected_p99 = percentile(&served_only, 0.99);
        assert!(
            uncorrected_p99 < ok_stats.p99_latency_secs,
            "regression precondition: the old metric flattered shedding ({uncorrected_p99} vs {})",
            ok_stats.p99_latency_secs
        );
    }

    /// Pin (goodput): timed-out completions count toward `achieved_qps`
    /// but not `goodput_qps`, and a timeout fraction beyond the tolerance
    /// violates the SLO even when the p99 objective itself is generous.
    #[test]
    fn goodput_excludes_timeouts_and_the_slo_counts_them() {
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let model = CostModel::default();
        let s = ServingSpec {
            arrival_qps: 400.0,
            requests: 500,
            timeout_secs: 0.02,
            queue_capacity: 10_000,
            ..Default::default()
        };
        let stats = simulate_replicated(&model, &sys, 0.010, &s, 9, 1).stats(&s);
        assert!(stats.timeouts > 0 && stats.shed == 0);
        assert!(
            stats.goodput_qps < stats.achieved_qps,
            "{} vs {}",
            stats.goodput_qps,
            stats.achieved_qps
        );
        let expected = (stats.completed - stats.timeouts) as f64 / stats.makespan_secs;
        assert!((stats.goodput_qps - expected).abs() < 1e-9);
        assert!(stats.timeout_fraction() > s.max_shed_fraction);
        // A sky-high p99 SLO alone would pass; the timeout fraction trips it.
        assert!(stats.violates_slo(&s.with_slo(f64::MAX)));
    }

    #[test]
    fn replicas_relieve_an_overloaded_group() {
        // 4 slots at 4 ms = 1000 QPS per group; offer 1800 QPS.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let s = ServingSpec { arrival_qps: 1_800.0, requests: 3_000, ..Default::default() };
        let one = simulate_replicated(&model, &sys, 0.004, &s, 5, 1).stats(&s);
        let three = simulate_replicated(&model, &sys, 0.004, &s, 5, 3).stats(&s);
        assert!(
            three.p99_latency_secs < one.p99_latency_secs,
            "three replicas must cut the overload tail: {} vs {}",
            three.p99_latency_secs,
            one.p99_latency_secs
        );
        assert!(three.shed_fraction() < one.shed_fraction() + 1e-12);
    }

    #[test]
    fn jsq_routing_beats_random_routing_on_the_tail() {
        // Near saturation, random routing overloads some group by chance;
        // JSQ spreads by construction.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 2, ..Default::default() };
        let base = ServingSpec { arrival_qps: 1_300.0, requests: 4_000, ..Default::default() };
        let jsq = base.with_routing(RoutingPolicy::JoinShortestQueue);
        let rand = base.with_routing(RoutingPolicy::Random { seed: 21 });
        let a = simulate_replicated(&model, &sys, 0.004, &jsq, 13, 3).stats(&jsq);
        let b = simulate_replicated(&model, &sys, 0.004, &rand, 13, 3).stats(&rand);
        assert!(
            a.p99_latency_secs <= b.p99_latency_secs,
            "JSQ must not lose to blind routing: {} vs {}",
            a.p99_latency_secs,
            b.p99_latency_secs
        );
        assert!(a.max_queue_depth <= b.max_queue_depth);
    }

    #[test]
    fn routed_replicas_each_serve_traffic() {
        let model = CostModel::default();
        // One slot per group at 4 ms = 250 QPS/group; offering 600 QPS to
        // 3 groups keeps queues non-empty, so JSQ has depths to compare
        // (an idle fleet ties every arrival to group 0).
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let jsq = ServingSpec { arrival_qps: 600.0, requests: 1_200, ..Default::default() };
        let trace = simulate_replicated(&model, &sys, 0.004, &jsq, 7, 3);
        assert_eq!(trace.replicas, 3);
        for g in 0..3 {
            let served = trace.events.iter().filter(|e| e.replica == g && !e.shed).count();
            assert!(served > 120, "JSQ: group {g} must carry a share of the load ({served})");
        }
        // Random routing spreads even an idle fleet.
        let idle = SystemParams::default();
        let rand = ServingSpec { arrival_qps: 200.0, requests: 900, ..Default::default() }
            .with_routing(RoutingPolicy::Random { seed: 17 });
        let trace = simulate_replicated(&model, &idle, 0.004, &rand, 7, 3);
        for g in 0..3 {
            let served = trace.events.iter().filter(|e| e.replica == g).count();
            assert!(served > 100, "random: group {g} must carry a share of the load ({served})");
        }
    }

    #[test]
    fn one_reactor_pinned_serving_is_bitwise_the_one_slot_pool() {
        // On a single-core host every policy degenerates to one reactor,
        // penalty 1.0, handoff 0.0 — the same schedule as a 1-slot pool.
        let model = CostModel {
            topology: vdms::HostTopology::SINGLE_CORE,
            query_node_cores: 1,
            ..Default::default()
        };
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        for policy in PinningPolicy::ALL {
            for replicas in [1, 2] {
                let s = ServingSpec { arrival_qps: 900.0, requests: 800, ..Default::default() };
                let pinned = simulate_pinned(&model, &sys, 0.004, &s, 17, replicas, policy, 10);
                let pool = simulate_replicated(&model, &sys, 0.004, &s, 17, replicas);
                assert_eq!(pinned, pool, "{policy:?} x{replicas}");
            }
        }
    }

    #[test]
    fn smt_sharing_reactors_pay_a_tail_over_dedicated_cores() {
        // Compact fills SMT sibling pairs first (every reactor pays the
        // sibling scan penalty); smt-avoid spreads over dedicated physical
        // cores. Same arrival process, same reactor count.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let s = ServingSpec { arrival_qps: 1_500.0, requests: 2_000, ..Default::default() };
        let compact = simulate_pinned(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::Compact, 10);
        let avoid = simulate_pinned(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::SmtAvoid, 10);
        assert_eq!(compact.slots, avoid.slots, "both run 8 reactors");
        let (c, a) = (compact.stats(&s), avoid.stats(&s));
        assert!(
            c.p99_latency_secs > a.p99_latency_secs,
            "SMT-sharing reactors must show in the tail: {} vs {}",
            c.p99_latency_secs,
            a.p99_latency_secs
        );
    }

    #[test]
    fn mixed_traffic_commits_seals_and_compacts_deterministically() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec { arrival_qps: 900.0, requests: 800, ..Default::default() }
            .with_inserts(0.5);
        let knobs = WriteKnobs { wal_batch_rows: 16, flush_interval_secs: 0.02, seal_rows: 32 };
        let a = simulate(&model, &sys, 0.004, &s, 7, 1, PinningPolicy::Shared, 10, knobs);
        let b = simulate(&model, &sys, 0.004, &s, 7, 1, PinningPolicy::Shared, 10, knobs);
        assert_eq!(a, b, "same seed, same mixed trace");
        let w = a.writes;
        assert_eq!(w.offered, 400);
        assert_eq!(w.accepted + w.shed, w.offered, "every insert is admitted or shed, never lost");
        assert_eq!(
            w.last_durable_lsn as usize, w.accepted,
            "the end-of-run drain makes every accepted insert durable"
        );
        assert!(w.flushes_full_batch > 0, "16-row batches must fill at 450 inserts/s");
        assert!(w.flushes_end_of_tick > 0, "stragglers must flush at the tick");
        assert_eq!(w.segments_sealed, w.accepted / 32);
        assert_eq!(w.compactions, w.segments_sealed / 4, "every 4th seal compacts");
        assert_eq!(a.stats(&s).writes, w, "stats carry the write counters through");
    }

    #[test]
    fn per_insert_fsyncs_tax_the_tail_over_group_commits() {
        // batch 1 fsyncs every row (serialized commits stealing primary
        // slots); batch 256 amortizes the same traffic into a handful of
        // commits. Same arrivals, same service draws.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let s = ServingSpec { arrival_qps: 900.0, requests: 2_000, ..Default::default() }
            .with_inserts(1.0);
        let churny = WriteKnobs { wal_batch_rows: 1, flush_interval_secs: 0.05, seal_rows: 4096 };
        let amortized = WriteKnobs { wal_batch_rows: 256, ..churny };
        let taxed =
            simulate(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::Shared, 10, churny).stats(&s);
        let calm =
            simulate(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::Shared, 10, amortized).stats(&s);
        assert!(
            taxed.writes.flushes_full_batch > 10 * calm.writes.flushes_full_batch,
            "{} vs {}",
            taxed.writes.flushes_full_batch,
            calm.writes.flushes_full_batch
        );
        assert!(
            taxed.p99_latency_secs > calm.p99_latency_secs,
            "per-row fsyncs must show in the query tail: {} vs {}",
            taxed.p99_latency_secs,
            calm.p99_latency_secs
        );
    }

    #[test]
    fn tight_graceful_time_waits_on_real_durability_events() {
        let model = CostModel::default();
        let tight = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        let covered = SystemParams::default(); // graceful 5000ms >> the run
        let s = ServingSpec { arrival_qps: 600.0, requests: 800, ..Default::default() }
            .with_inserts(0.5);
        let knobs = WriteKnobs { wal_batch_rows: 64, flush_interval_secs: 0.04, seal_rows: 4096 };
        let t = simulate(&model, &tight, 0.004, &s, 9, 1, PinningPolicy::Shared, 10, knobs);
        let c = simulate(&model, &covered, 0.004, &s, 9, 1, PinningPolicy::Shared, 10, knobs);
        assert!(
            t.events.iter().any(|e| !e.shed && e.consistency_wait_secs > 0.0),
            "gracefulTime=0 must wait on commits that haven't finished yet"
        );
        assert!(
            c.events.iter().all(|e| e.consistency_wait_secs == 0.0),
            "a graceful window covering the whole run never waits"
        );
        let (ts, cs) = (t.stats(&s), c.stats(&s));
        assert!(
            ts.p99_latency_secs > cs.p99_latency_secs,
            "durability waits must show in the tail: {} vs {}",
            ts.p99_latency_secs,
            cs.p99_latency_secs
        );
    }

    #[test]
    fn backpressure_parks_against_the_primary_queue_and_sheds_only_on_overflow() {
        // 2000 inserts/s against serialized ~0.5ms commits: a 4-row window
        // (batch 1) backs up, parks, and overflows the shared bound; a
        // 1024-row window absorbs the same traffic without shedding.
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec {
            arrival_qps: 2_000.0,
            requests: 2_000,
            queue_capacity: 8,
            ..Default::default()
        }
        .with_inserts(1.0);
        let tiny = WriteKnobs { wal_batch_rows: 1, flush_interval_secs: 0.05, seal_rows: 4096 };
        let wide = WriteKnobs { wal_batch_rows: 256, ..tiny };
        let cramped = simulate(&model, &sys, 0.004, &s, 13, 1, PinningPolicy::Shared, 10, tiny);
        let roomy = simulate(&model, &sys, 0.004, &s, 13, 1, PinningPolicy::Shared, 10, wide);
        assert!(cramped.writes.shed > 0, "the 4-row window must overflow at 2000 inserts/s");
        assert_eq!(roomy.writes.shed, 0, "a 1024-row window absorbs the burst");
        for trace in [&cramped, &roomy] {
            let w = trace.writes;
            assert_eq!(w.accepted + w.shed, w.offered);
            assert_eq!(w.last_durable_lsn as usize, w.accepted, "accepted inserts never drop");
        }
        // Parked inserts occupy the primary queue: reads shed alongside.
        let q = cramped.stats(&s);
        let calm = roomy.stats(&s);
        assert!(
            q.shed > calm.shed,
            "write backpressure must push back on reads: {} vs {}",
            q.shed,
            calm.shed
        );
    }

    #[test]
    fn reactor_mixed_serving_commits_on_the_primary_reactor() {
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let s = ServingSpec { arrival_qps: 1_200.0, requests: 1_500, ..Default::default() }
            .with_inserts(0.4);
        // ~14 inserts arrive per 30ms tick: 8-row batches fill between
        // ticks, stragglers flush at the deadline — both reasons fire.
        let knobs = WriteKnobs { wal_batch_rows: 8, flush_interval_secs: 0.03, seal_rows: 128 };
        let trace = simulate(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::SmtAvoid, 10, knobs);
        let w = trace.writes;
        assert_eq!(w.offered, 600);
        assert_eq!(w.accepted + w.shed, w.offered);
        assert_eq!(w.last_durable_lsn as usize, w.accepted);
        assert!(w.segments_sealed > 0 && w.flushes_full_batch > 0);
        assert!(
            trace.events.iter().any(|e| !e.shed && e.replica == 0),
            "the primary group still serves queries alongside its write work"
        );
    }

    #[test]
    fn burstiness_mixture_preserves_the_mean_rate() {
        let s = ServingSpec { arrival_qps: 1_000.0, burstiness: 2.0, ..Default::default() };
        let n = 200_000u64;
        let total: f64 = (0..n)
            .map(|i| interarrival_secs(s.arrival_qps, s.burstiness, STREAMS_QUERY, 42, i))
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.001).abs() < 5e-5, "mean gap {mean} should be ~1ms");
    }
}
