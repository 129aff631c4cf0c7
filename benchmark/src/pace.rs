//! Host-speed normalisation of the untraced run's timings.
//!
//! On the small shared VMs this benchmark runs on, identical work takes up
//! to twice as long from one minute — sometimes one second — to the next
//! (measured: the same 23 s panel between 23.2 and 36.5 s within a quarter
//! of an hour, every step of a slow run 1.4–2 × its fastest self), and
//! unrelated code slows down together: per 25 s block an HNSW build, an
//! IVF replay, a GP fit and a serving trace stayed within 2 % of each
//! other's slow-down while each moved by 35 %. No run of affordable length
//! averages that out, so the run co-measures a fixed reference kernel —
//! before every evaluation, on the thread that evaluates (a sampler on the
//! second vCPU did not track the first at all) — and reports timings in
//! *reference seconds*: the wall-clock between two samples scaled by
//! `quiet / reading`, where `reading` is the mean of those two samples and
//! `quiet` is what a sample takes when nothing else contends for the core.
//! `quiet` is read off the run itself (its fastest single factorisation),
//! never a constant: the kernel's speed depends on the host model and, by
//! several percent, on what the compiler and linker made of it. On a host
//! that is quiet throughout, reference seconds are seconds to within a few
//! percent.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use vdms::VdmsConfig;
use workload::{BackendInfo, EvalBackend, Outcome};

/// Order of the reference factorisation.
const N: usize = 96;

/// Factorisations per sample in the untraced run: about 3 ms. The reading's
/// own noise falls with the time spent sampling; 120–360 samples of 3 ms
/// are 2–3 % of a run, and are taken out of its timings again.
pub const ROUNDS: usize = 40;

/// Factorisations per sample in the traced run, whose spans are wall-clock
/// and would otherwise carry the sample inside `workload.observe`.
pub const TRACED_ROUNDS: usize = 4;

/// The matrix every sample factorises.
fn reference_matrix() -> Vec<f64> {
    let mut source = vec![0.0f64; N * N];
    for i in 0..N {
        for j in 0..N {
            source[i * N + j] =
                if i == j { N as f64 } else { 1.0 / (1.0 + (i as f64 - j as f64).abs()) };
        }
    }
    source
}

/// The reference kernel: one Cholesky factorisation of a fixed 96 × 96
/// matrix, written out here so that no change to the code under test can
/// speed it up, and never inlined, so that its machine code does not depend
/// on its caller. Dense floating point over a cache-resident matrix, like
/// the GP fits and distance scans that dominate the panels.
#[inline(never)]
fn factorise(source: &[f64], a: &mut [f64]) {
    a.copy_from_slice(source);
    for j in 0..N {
        let mut d = a[j * N + j];
        for k in 0..j {
            d -= a[j * N + k] * a[j * N + k];
        }
        let d = d.max(1e-12).sqrt();
        a[j * N + j] = d;
        for i in j + 1..N {
            let mut s = a[i * N + j];
            for k in 0..j {
                s -= a[i * N + k] * a[j * N + k];
            }
            a[i * N + j] = s / d;
        }
    }
    black_box(&a);
}

/// One reference sample: when it was taken, how long its factorisations
/// took together, and how long the fastest of them took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds since the recorder was created.
    pub at_secs: f64,
    pub sample_secs: f64,
    pub fastest_round_secs: f64,
}

/// Collects reference samples from whichever threads evaluate.
pub struct Pace {
    origin: Instant,
    rounds: usize,
    source: Vec<f64>,
    samples: Mutex<Vec<Sample>>,
}

impl Pace {
    /// A recorder whose samples are `rounds` factorisations each.
    pub fn new(rounds: usize) -> Pace {
        Pace {
            origin: Instant::now(),
            rounds,
            source: reference_matrix(),
            samples: Mutex::new(Vec::with_capacity(1024)),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now_secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run the reference kernel `rounds` times and record it.
    pub fn sample(&self) {
        let mut a = self.source.clone();
        let at_secs = self.now_secs();
        let mut fastest_round_secs = f64::INFINITY;
        let mut last = Instant::now();
        let start = last;
        for _ in 0..self.rounds {
            factorise(&self.source, &mut a);
            let now = Instant::now();
            fastest_round_secs = fastest_round_secs.min((now - last).as_secs_f64());
            last = now;
        }
        let sample_secs = (last - start).as_secs_f64();
        self.samples
            .lock()
            .expect("no evaluation panics while holding the sample list")
            .push(Sample { at_secs, sample_secs, fastest_round_secs });
    }

    /// Samples so far, by time.
    pub fn samples(&self) -> Vec<Sample> {
        let mut s = self
            .samples
            .lock()
            .expect("no evaluation panics while holding the sample list")
            .clone();
        s.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        s
    }

    /// What a sample takes when nothing contends for the core: `rounds`
    /// times the fastest single factorisation of the run so far. Contention
    /// only ever adds time, so the minimum is the steadiest reading there is
    /// (within 1 % between runs here, 5 % high in a run that never saw a
    /// quiet moment). `None` before the first sample.
    pub fn quiet_sample_secs(&self) -> Option<f64> {
        let samples = self.samples.lock().expect("no evaluation panics while holding the list");
        let fastest = samples.iter().map(|s| s.fastest_round_secs).fold(f64::INFINITY, f64::min);
        fastest.is_finite().then_some(fastest * self.rounds as f64)
    }
}

/// A backend that takes one reference sample before every evaluation and is
/// otherwise `inner`.
pub struct Paced<'a> {
    pub inner: &'a dyn EvalBackend,
    pub pace: &'a Pace,
}

impl EvalBackend for Paced<'_> {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        self.pace.sample();
        self.inner.evaluate(config, seed)
    }
}

/// `[from_secs, to_secs]` without the samples taken inside it, in wall-clock
/// seconds and in reference seconds. Between two consecutive samples the
/// host's speed is taken to be `quiet_secs / reading`, `reading` being the
/// mean of the two (before the first sample and after the last, that one
/// alone): whatever ran there is scaled by the reference either side of it.
/// `samples` are by time. `None` without samples.
pub fn reference_secs(
    samples: &[Sample],
    quiet_secs: f64,
    from_secs: f64,
    to_secs: f64,
) -> Option<(f64, f64)> {
    let n = samples.len();
    let (mut wall, mut reference) = (0.0, 0.0);
    for gap in 0..=n {
        let before = gap.checked_sub(1).map(|i| &samples[i]);
        let after = samples.get(gap);
        let opens = before.map_or(f64::NEG_INFINITY, |s| s.at_secs + s.sample_secs);
        let closes = after.map_or(f64::INFINITY, |s| s.at_secs);
        let overlap = closes.min(to_secs) - opens.max(from_secs);
        if overlap <= 0.0 {
            continue;
        }
        let reading = match (before, after) {
            (Some(b), Some(a)) => 0.5 * (b.sample_secs + a.sample_secs),
            (Some(only), None) | (None, Some(only)) => only.sample_secs,
            (None, None) => return None,
        };
        wall += overlap;
        reference += overlap * quiet_secs / reading;
    }
    Some((wall, reference))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_secs: f64, sample_secs: f64) -> Sample {
        Sample { at_secs, sample_secs, fastest_round_secs: sample_secs }
    }

    #[test]
    fn a_quiet_host_reads_wall_clock() {
        let s = [sample(1.0, 3e-3), sample(2.0, 3e-3)];
        let (wall, reference) = reference_secs(&s, 3e-3, 0.5, 4.0).expect("samples");
        // Three and a half seconds less the two samples inside them.
        assert!((wall - 3.494).abs() < 1e-12 && (reference - 3.494).abs() < 1e-12, "{wall}");
        assert_eq!(reference_secs(&[], 3e-3, 0.5, 4.0), None);
    }

    #[test]
    fn a_stretch_is_scaled_by_the_samples_either_side_of_it() {
        // Readings 2, 4 and 1 against a quiet 1: the lead-in runs at 1/2,
        // the first gap at 1/3, the second at 1/2.5, the tail at full speed.
        let s = [sample(1.0, 2.0), sample(4.0, 4.0), sample(9.0, 1.0)];
        let (wall, reference) = reference_secs(&s, 1.0, 0.0, 12.0).expect("samples");
        // Gaps: [0, 1], [3, 4], [8, 9], [10, 12]; the samples are nobody's work.
        assert!((wall - 5.0).abs() < 1e-12, "{wall}");
        assert!((reference - (0.5 + 1.0 / 3.0 + 0.4 + 2.0)).abs() < 1e-12, "{reference}");
        // An interval inside one gap takes that gap's factor alone.
        let (wall, reference) = reference_secs(&s, 1.0, 8.25, 8.75).expect("samples");
        assert!((wall - 0.5).abs() < 1e-12 && (reference - 0.2).abs() < 1e-12);
        // An interval inside a sample holds nothing.
        assert_eq!(reference_secs(&s, 1.0, 5.0, 7.0), Some((0.0, 0.0)));
    }

    #[test]
    fn the_quiet_sample_is_the_fastest_round_times_the_rounds() {
        let pace = Pace::new(8);
        assert_eq!(pace.quiet_sample_secs(), None);
        for _ in 0..20 {
            pace.sample();
        }
        let quiet = pace.quiet_sample_secs().expect("sampled");
        let samples = pace.samples();
        assert_eq!(samples.len(), 20);
        // No sample beats eight of the fastest round, and the kernel was
        // neither deleted by the compiler nor takes forever.
        assert!(samples.iter().all(|s| s.sample_secs >= quiet * 0.999), "{quiet} {samples:?}");
        assert!(quiet > 8.0 * 5e-6 && quiet < 8.0 * 5e-3, "{quiet}");
    }

    #[test]
    fn the_paced_backend_samples_once_per_evaluation() {
        let def = *crate::workloads::find("surrogate-22d").expect("known workload");
        let prepared = def.prepare();
        let backend = def.backend(&prepared);
        let pace = Pace::new(TRACED_ROUNDS);
        let paced = Paced { inner: &*backend, pace: &pace };
        let plain = crate::run::run_library(&def, &*backend, 0, 9);
        let with_samples = crate::run::run_library(&def, &paced, 0, 9);
        assert_eq!(plain.digest, with_samples.digest, "sampling must not change the history");
        assert_eq!(pace.samples().len(), 9);
    }
}
