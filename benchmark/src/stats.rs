//! The benchmark's own arithmetic: medians, the percentile picker, the
//! steady-state detector, the history digest and the `VmHWM` parser.

use std::time::Instant;
use vdms::VdmsConfig;
use workload::Observation;

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice, which the report layer refuses to write.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` in (0, 100) of `values`, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a p90 of 50 samples
/// is the mean of five points, not a tail estimate.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie inside (0, 100)");
    let n = values.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Repetitions the steady-state window spans.
pub const SETTLE_WINDOW: usize = 5;
/// Coefficient of variation under which the window counts as settled.
pub const SETTLE_CV: f64 = 0.05;
/// Repetitions after which a probe gives up and is listed as unsettled.
pub const MAX_REPS: usize = 30;

/// True when the last [`SETTLE_WINDOW`] samples vary by less than
/// [`SETTLE_CV`] (standard deviation over mean).
pub fn settled(samples: &[f64]) -> bool {
    if samples.len() < SETTLE_WINDOW {
        return false;
    }
    let w = &samples[samples.len() - SETTLE_WINDOW..];
    let mean = w.iter().sum::<f64>() / w.len() as f64;
    if mean <= 0.0 {
        return true;
    }
    let var = w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / w.len() as f64;
    var.sqrt() / mean < SETTLE_CV
}

/// One probe's result: the median repetition, how many ran, and whether
/// the steady-state window settled.
#[derive(Debug, Clone, Copy)]
pub struct Steady {
    /// Seconds per call of the probed closure.
    pub median_secs: f64,
    pub reps: usize,
    pub settled: bool,
}

/// Shortest repetition worth timing: shorter calls are batched up to it,
/// so the clock's own cost and resolution stay below a percent.
const MIN_REP_SECS: f64 = 2e-3;

/// Time `f` repeatedly until the window settles, [`MAX_REPS`] repetitions
/// ran, or — for probes whose single call is long — `budget_secs` is spent
/// and at least three repetitions exist. A first, discarded call warms up
/// and sizes the batch.
pub fn steady<F: FnMut()>(budget_secs: f64, mut f: F) -> Steady {
    let start = Instant::now();
    f();
    let first = start.elapsed().as_secs_f64();
    let batch = (MIN_REP_SECS / first.max(1e-9)).ceil().clamp(1.0, 1e6) as usize;
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
        let done = settled(&samples)
            || samples.len() >= MAX_REPS
            || (samples.len() >= 3 && start.elapsed().as_secs_f64() > budget_secs);
        if done {
            return Steady {
                median_secs: median(&samples),
                reps: samples.len(),
                settled: settled(&samples),
            };
        }
    }
}

/// Peak resident set in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib / 1024.0)
}

/// FNV-1a over 64-bit words: stable across Rust releases and hosts, which
/// `std`'s `DefaultHasher` does not promise.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Every field of a configuration, floats bit-exact.
fn config_words(c: &VdmsConfig) -> [u64; 22] {
    let w = c.writepath;
    [
        c.index_type.ordinal() as u64,
        c.index.nlist as u64,
        c.index.nprobe as u64,
        c.index.m as u64,
        c.index.nbits as u64,
        c.index.hnsw_m as u64,
        c.index.ef_construction as u64,
        c.index.ef as u64,
        c.index.reorder_k as u64,
        c.system.segment_max_size_mb.to_bits(),
        c.system.segment_seal_proportion.to_bits(),
        c.system.graceful_time_ms.to_bits(),
        c.system.insert_buf_size_mb.to_bits(),
        c.system.max_read_concurrency as u64,
        c.system.chunk_rows as u64,
        c.system.build_parallelism as u64,
        c.shards.map_or(0, |s| s as u64),
        c.replicas.map_or(0, |r| r as u64),
        c.pinning.map_or(0, |p| p.ordinal() as u64 + 1),
        w.map_or(0, |k| k.wal_batch_rows as u64),
        w.map_or(0, |k| k.flush_interval_secs.to_bits()),
        w.map_or(0, |k| k.seal_rows as u64),
    ]
}

/// Digest of one tune's history: per observation the configuration, the
/// `qps`/`recall` bits and the failure flag — everything a tuner sees,
/// nothing that depends on the clock.
pub fn history_digest(history: &[Observation]) -> u64 {
    let mut h = Fnv::new();
    for o in history {
        for w in config_words(&o.config) {
            h.word(w);
        }
        h.word(o.qps.to_bits());
        h.word(o.recall.to_bits());
        h.word(u64::from(o.failed));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly ten beyond it; of 99, only nine.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v[..99], 90.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn steady_state_needs_a_full_quiet_window() {
        assert!(!settled(&[1.0, 1.0, 1.0, 1.0]), "four samples are not a window");
        assert!(settled(&[9.0, 1.0, 1.01, 0.99, 1.0, 1.02]), "a warm-up spike ages out");
        assert!(!settled(&[1.0, 1.0, 1.0, 1.0, 1.3]), "a fresh spike unsettles");
    }

    #[test]
    fn steady_batches_short_calls_and_honours_the_budget() {
        let mut calls = 0u32;
        let quick = steady(f64::INFINITY, || {
            calls += 1;
            std::hint::black_box((0..100u64).fold(0, |a, b| a ^ b));
        });
        assert!(quick.reps >= SETTLE_WINDOW && quick.reps <= MAX_REPS);
        assert!(calls as usize > 100 * quick.reps, "sub-millisecond calls are batched");
        assert!(quick.median_secs > 0.0 && quick.median_secs < MIN_REP_SECS);
        // A spent budget stops a slow probe at three repetitions, unsettled.
        let slow = steady(0.0, || std::thread::sleep(std::time::Duration::from_millis(3)));
        assert_eq!((slow.reps, slow.settled), (3, false));
    }

    #[test]
    fn vm_hwm_parser_reads_kib_and_rejects_garbage() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t12 kB\n"), None);
    }

    fn obs(qps: f64, failed: bool) -> Observation {
        Observation {
            iter: 0,
            config: VdmsConfig::default_config(),
            qps,
            recall: 0.9,
            memory_gib: 1.0,
            failed,
            replay_secs: 1.0,
            recommend_secs: 0.5,
            serving: None,
        }
    }

    #[test]
    fn digest_is_pinned_and_ignores_the_clock() {
        let a = vec![obs(100.0, false), obs(50.0, true)];
        let mut b = a.clone();
        b[0].recommend_secs = 9.0;
        b[1].replay_secs = 9.0;
        assert_eq!(history_digest(&a), history_digest(&b));
        // Pinned: a change of hash or field order must be deliberate.
        assert_eq!(history_digest(&a), 0xa8fc_3c3a_58d9_e650);
        b[1].failed = false;
        assert_ne!(history_digest(&a), history_digest(&b));
        let mut c = a.clone();
        c[0].config.writepath = Some(vdms::WriteKnobs::DEFAULT);
        assert_ne!(history_digest(&a), history_digest(&c));
    }
}
