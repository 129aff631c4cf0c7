//! Real pinned multi-threaded replay calibration for the reactor penalty
//! surface (`repro reactors`).
//!
//! The simulator charges [`PenaltyMatrix`] multipliers for SMT sibling
//! sharing and cross-core/cross-socket handoffs. This module replaces the
//! analytic constants with numbers measured *on this host*, by actually
//! pinning threads:
//!
//! * the logical-CPU topology is discovered from
//!   `/sys/devices/system/cpu/cpu*/topology/` (package and core ids),
//! * threads are pinned with raw `sched_setaffinity` syscalls (the
//!   workspace links no libc wrapper — the syscall is invoked directly,
//!   and a failed or refused pin degrades gracefully),
//! * `same_core_smt` is the per-thread slowdown of a scan kernel when its
//!   SMT sibling runs the same scan (solo rate / co-running rate),
//! * `same_socket` / `cross_socket` are cache-line ping-pong round-trip
//!   times between pinned pairs of each relation, normalized to the
//!   fastest measured pair (handoff on the same core is the model's 1.0).
//!
//! Every entry the host cannot measure (a 1-CPU container has no pairs at
//! all) falls back to [`PenaltyMatrix::ANALYTIC`] *per entry*, and the
//! calibration records which entries are measurements — the emitted
//! `results/reactors.json` never lets an analytic fallback masquerade as
//! a measurement.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vdms::{HostTopology, PenaltyMatrix};

/// One logical CPU as discovered from sysfs, with dense socket/core ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalCpu {
    /// Kernel CPU number (the `sched_setaffinity` bit).
    pub cpu: usize,
    /// Dense socket index.
    pub socket: usize,
    /// Dense physical-core index within the socket.
    pub core: usize,
    /// SMT sibling index within the core (0 = primary thread).
    pub smt: usize,
}

/// Where one penalty entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntrySource {
    /// Measured on this host by a pinned pair.
    Measured,
    /// The host has no CPU pair of this relation (or pinning failed);
    /// the analytic constant was kept.
    Analytic,
}

impl EntrySource {
    pub fn name(self) -> &'static str {
        match self {
            EntrySource::Measured => "measured",
            EntrySource::Analytic => "analytic",
        }
    }
}

/// The result of a host calibration run.
#[derive(Debug, Clone)]
pub struct HostCalibration {
    /// The discovered host shape (rectangularized: max cores per socket,
    /// max siblings per core).
    pub topology: HostTopology,
    /// The penalty surface, measured entries where the host has pairs.
    pub penalties: PenaltyMatrix,
    /// Per-entry provenance: (same_core_smt, same_socket, cross_socket).
    pub sources: [EntrySource; 3],
    /// Logical CPUs discovered.
    pub logical_cpus: usize,
    /// Whether `sched_setaffinity` round-tripped (pin + verify) at all.
    pub pinning_works: bool,
    /// Solo pinned scan throughput, million f32 dims/sec (0.0 if the scan
    /// could not be pinned).
    pub solo_scan_mdps: f64,
}

impl HostCalibration {
    /// True when every penalty entry is a real host measurement.
    pub fn fully_measured(&self) -> bool {
        self.sources.iter().all(|s| *s == EntrySource::Measured)
    }
}

// ---------------------------------------------------------------------------
// Raw affinity syscalls (linux x86_64 only; no libc dependency)
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    /// 1024-bit CPU mask, the kernel's default `cpu_set_t` width.
    pub const MASK_WORDS: usize = 16;
    const SCHED_SETAFFINITY: usize = 203;
    const SCHED_GETAFFINITY: usize = 204;

    /// # Safety
    /// `n` must be a syscall taking three integer arguments with no
    /// pointer-validity requirements beyond what the caller passes.
    unsafe fn syscall3(n: usize, a1: usize, a2: usize, a3: usize) -> isize {
        let ret: isize;
        // SAFETY: the x86_64 Linux syscall ABI: number in rax, arguments in
        // rdi/rsi/rdx, rcx and r11 clobbered, no stack use; the caller
        // vouches for what `n` does with its arguments.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// The calling thread's affinity mask, or `None` on syscall failure.
    pub fn get_affinity() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: pid 0 = self; the buffer outlives the call and the
        // length is its true size in bytes.
        let ret =
            unsafe { syscall3(SCHED_GETAFFINITY, 0, MASK_WORDS * 8, mask.as_mut_ptr() as usize) };
        (ret > 0).then_some(mask)
    }

    /// Set the calling thread's affinity mask; true on success.
    pub fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: pid 0 = self; the buffer outlives the call.
        let ret = unsafe { syscall3(SCHED_SETAFFINITY, 0, MASK_WORDS * 8, mask.as_ptr() as usize) };
        ret == 0
    }

    /// Pin the calling thread to one CPU; true on success.
    pub fn pin_to(cpu: usize) -> bool {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        set_affinity(&mask)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub const MASK_WORDS: usize = 16;
    pub fn get_affinity() -> Option<[u64; MASK_WORDS]> {
        None
    }
    pub fn set_affinity(_mask: &[u64; MASK_WORDS]) -> bool {
        false
    }
    pub fn pin_to(_cpu: usize) -> bool {
        false
    }
}

/// Pin the calling thread to `cpu` and verify the mask stuck. Returns the
/// previous mask for restoration, or `None` if pinning is unavailable.
fn pin_verified(cpu: usize) -> Option<[u64; sys::MASK_WORDS]> {
    let prev = sys::get_affinity()?;
    if !sys::pin_to(cpu) {
        return None;
    }
    match sys::get_affinity() {
        Some(m) if m.iter().map(|w| w.count_ones()).sum::<u32>() == 1 => Some(prev),
        _ => {
            sys::set_affinity(&prev);
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Topology discovery
// ---------------------------------------------------------------------------

/// Discover the logical CPUs from sysfs. `None` when the tree is absent or
/// unreadable (non-Linux, masked /sys).
pub fn discover_cpus() -> Option<Vec<LogicalCpu>> {
    let base = std::path::Path::new("/sys/devices/system/cpu");
    let read_id = |cpu: usize, leaf: &str| -> Option<usize> {
        std::fs::read_to_string(base.join(format!("cpu{cpu}/topology/{leaf}")))
            .ok()?
            .trim()
            .parse()
            .ok()
    };
    let mut raw: Vec<(usize, usize, usize)> = Vec::new(); // (cpu, pkg, core_id)
    for entry in std::fs::read_dir(base).ok()? {
        let name = entry.ok()?.file_name();
        let name = name.to_string_lossy();
        let Some(num) = name.strip_prefix("cpu").and_then(|s| s.parse::<usize>().ok()) else {
            continue;
        };
        // Offline CPUs have no topology directory; skip them.
        if let (Some(pkg), Some(core)) =
            (read_id(num, "physical_package_id"), read_id(num, "core_id"))
        {
            raw.push((num, pkg, core));
        }
    }
    if raw.is_empty() {
        return None;
    }
    raw.sort_unstable();
    // Densify package ids, then (socket, core_id) pairs, then assign SMT
    // sibling indices in CPU-number order.
    let mut sockets: Vec<usize> = raw.iter().map(|r| r.1).collect();
    sockets.sort_unstable();
    sockets.dedup();
    let mut cores: Vec<(usize, usize)> = raw.iter().map(|r| (r.1, r.2)).collect();
    cores.sort_unstable();
    cores.dedup();
    let mut smt_seen: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    let cpus = raw
        .iter()
        .map(|&(cpu, pkg, core_id)| {
            let socket = sockets.binary_search(&pkg).unwrap();
            let core = cores.binary_search(&(pkg, core_id)).unwrap()
                - cores.partition_point(|&(p, _)| p < pkg);
            let smt = smt_seen.entry((pkg, core_id)).or_insert(0);
            let slot = LogicalCpu { cpu, socket, core, smt: *smt };
            *smt += 1;
            slot
        })
        .collect();
    Some(cpus)
}

/// Rectangularize a discovered CPU list into the model's
/// sockets × cores × smt shape (max cores over sockets, max siblings over
/// cores — a heterogeneous host rounds up).
pub fn topology_of(cpus: &[LogicalCpu]) -> HostTopology {
    let sockets = cpus.iter().map(|c| c.socket).max().map_or(1, |s| s + 1);
    let cores_per_socket = cpus.iter().map(|c| c.core).max().map_or(1, |c| c + 1);
    let smt = cpus.iter().map(|c| c.smt).max().map_or(1, |s| s + 1);
    HostTopology { sockets, cores_per_socket, smt }
}

// ---------------------------------------------------------------------------
// Pinned measurements
// ---------------------------------------------------------------------------

/// Execution-port-bound scan body: an 8-lane f32 multiply-add sweep over an
/// L1-resident buffer, the same arithmetic shape as the workspace's scan
/// kernels. Returns a value the optimizer cannot discard.
fn scan_pass(buf: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    for chunk in buf.chunks_exact(8) {
        for lane in 0..8 {
            acc[lane] = chunk[lane].mul_add(1.000_1, acc[lane]);
        }
    }
    acc.iter().sum()
}

const SCAN_BUF: usize = 4096;
const MEASURE: Duration = Duration::from_millis(60);

/// Pinned scan throughput in million f32 dims/sec on `cpu`, co-running
/// until `stop`; counts whole passes. Returns 0.0 if pinning fails.
fn pinned_scan_rate(cpu: usize, start: &AtomicU64, stop: &AtomicBool) -> f64 {
    let Some(prev) = pin_verified(cpu) else {
        start.fetch_add(1, Ordering::SeqCst);
        return 0.0;
    };
    let buf: Vec<f32> = (0..SCAN_BUF).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut sink = 0.0f32;
    // Rendezvous: both threads of a pair spin here until everyone is
    // pinned, so the measured window is fully co-scheduled.
    start.fetch_add(1, Ordering::SeqCst);
    while start.load(Ordering::SeqCst) < 2 && !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
    let t0 = Instant::now();
    let mut passes = 0u64;
    while t0.elapsed() < MEASURE && !stop.load(Ordering::Relaxed) {
        sink += scan_pass(&buf);
        passes += 1;
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(sink);
    sys::set_affinity(&prev);
    (passes as f64 * SCAN_BUF as f64) / secs / 1e6
}

/// Solo pinned scan rate on `cpu` (median of 3 runs), 0.0 if unpinnable.
fn solo_scan_rate(cpu: usize) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let start = AtomicU64::new(1); // solo: rendezvous of one
            let stop = AtomicBool::new(false);
            pinned_scan_rate(cpu, &start, &stop)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// Per-thread scan rate of `cpu_a` while `cpu_b` co-runs the same scan.
fn paired_scan_rate(cpu_a: usize, cpu_b: usize) -> f64 {
    let start = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (s2, p2) = (Arc::clone(&start), Arc::clone(&stop));
    let other = std::thread::spawn(move || pinned_scan_rate(cpu_b, &s2, &p2));
    let rate = pinned_scan_rate(cpu_a, &start, &stop);
    stop.store(true, Ordering::Relaxed);
    let _ = other.join();
    rate
}

/// Cache-line ping-pong round trips per second between two pinned threads,
/// or `None` if either pin fails.
fn pingpong_hz(cpu_a: usize, cpu_b: usize) -> Option<f64> {
    let turn = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicU64::new(0));
    let (t2, p2, r2) = (Arc::clone(&turn), Arc::clone(&stop), Arc::clone(&ready));
    let other = std::thread::spawn(move || {
        let Some(prev) = pin_verified(cpu_b) else {
            r2.fetch_add(10, Ordering::SeqCst); // poison the rendezvous
            return;
        };
        r2.fetch_add(1, Ordering::SeqCst);
        // Odd turns belong to this thread.
        while !p2.load(Ordering::Relaxed) {
            let t = t2.load(Ordering::Acquire);
            if t % 2 == 1 {
                t2.store(t + 1, Ordering::Release);
            } else {
                std::hint::spin_loop();
            }
        }
        sys::set_affinity(&prev);
    });
    let result = (|| {
        let prev = pin_verified(cpu_a)?;
        ready.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        // Wait for the partner to be pinned (or to have failed).
        while ready.load(Ordering::SeqCst) < 2 {
            if t0.elapsed() > Duration::from_secs(2) {
                sys::set_affinity(&prev);
                return None;
            }
            std::hint::spin_loop();
        }
        if ready.load(Ordering::SeqCst) > 2 {
            sys::set_affinity(&prev);
            return None; // partner failed to pin
        }
        let t0 = Instant::now();
        let mut rounds = 0u64;
        while t0.elapsed() < MEASURE {
            let t = turn.load(Ordering::Acquire);
            if t.is_multiple_of(2) {
                turn.store(t + 1, Ordering::Release);
                rounds += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        sys::set_affinity(&prev);
        Some(rounds as f64 / secs)
    })();
    stop.store(true, Ordering::Relaxed);
    let _ = other.join();
    result.filter(|hz| *hz > 0.0)
}

/// Median ping-pong hz over 3 runs, `None` if any run fails.
fn pingpong_median(cpu_a: usize, cpu_b: usize) -> Option<f64> {
    let mut v: Vec<f64> =
        (0..3).map(|_| pingpong_hz(cpu_a, cpu_b)).collect::<Option<Vec<f64>>>()?;
    v.sort_by(f64::total_cmp);
    Some(v[1])
}

/// Find a CPU pair with the given relation predicate, preferring low CPU
/// numbers (cache-warm, typically the least noisy).
fn find_pair(
    cpus: &[LogicalCpu],
    pred: impl Fn(&LogicalCpu, &LogicalCpu) -> bool,
) -> Option<(usize, usize)> {
    for (i, a) in cpus.iter().enumerate() {
        for b in &cpus[i + 1..] {
            if pred(a, b) {
                return Some((a.cpu, b.cpu));
            }
        }
    }
    None
}

/// Run the full host calibration: discover the topology, pin and measure
/// every penalty class the host has pairs for, and fall back per entry to
/// the analytic constants otherwise. Returns `None` only when even
/// topology discovery fails (no sysfs) — partial measurement still
/// produces a calibration with honest per-entry sources.
pub fn calibrate() -> Option<HostCalibration> {
    let cpus = discover_cpus()?;
    let topology = topology_of(&cpus);
    let first = cpus[0].cpu;
    let pinning_works = pin_verified(first).map(|prev| sys::set_affinity(&prev)).is_some();
    let analytic = PenaltyMatrix::ANALYTIC;
    let mut penalties = analytic;
    let mut sources = [EntrySource::Analytic; 3];
    let mut solo_scan_mdps = 0.0;

    if pinning_works {
        solo_scan_mdps = solo_scan_rate(first);

        // SMT scan penalty: co-run the scan on a sibling pair.
        if let Some((a, b)) =
            find_pair(&cpus, |x, y| x.socket == y.socket && x.core == y.core && x.smt != y.smt)
        {
            let solo = solo_scan_rate(a);
            let paired = paired_scan_rate(a, b);
            if solo > 0.0 && paired > 0.0 {
                penalties.same_core_smt = (solo / paired).max(1.0);
                sources[0] = EntrySource::Measured;
            }
        }

        // Handoff penalties: ping-pong per relation, normalized to the
        // fastest pair (the model's same-core handoff is 1.0; an SMT
        // sibling pair is the closest measurable proxy when it exists).
        let smt_pair =
            find_pair(&cpus, |x, y| x.socket == y.socket && x.core == y.core && x.smt != y.smt);
        let sock_pair = find_pair(&cpus, |x, y| x.socket == y.socket && x.core != y.core);
        let cross_pair = find_pair(&cpus, |x, y| x.socket != y.socket);
        let hz = |p: Option<(usize, usize)>| p.and_then(|(a, b)| pingpong_median(a, b));
        let (smt_hz, sock_hz, cross_hz) = (hz(smt_pair), hz(sock_pair), hz(cross_pair));
        // Baseline = the fastest measured pair; every ratio ≥ 1.0.
        let base = [smt_hz, sock_hz, cross_hz]
            .iter()
            .flatten()
            .copied()
            .fold(None::<f64>, |acc, h| Some(acc.map_or(h, |a| a.max(h))));
        if let Some(base) = base {
            if let Some(h) = sock_hz {
                penalties.same_socket = (base / h).max(1.0);
                sources[1] = EntrySource::Measured;
            }
            if let Some(h) = cross_hz {
                penalties.cross_socket = (base / h).max(1.0);
                sources[2] = EntrySource::Measured;
            }
        }
        // The model orders cross_socket ≥ same_socket; a noisy host can
        // momentarily invert them, so restore the order without touching
        // measured same-socket.
        if penalties.cross_socket < penalties.same_socket {
            penalties.cross_socket = penalties.same_socket;
        }
    }

    Some(HostCalibration {
        topology,
        penalties,
        sources,
        logical_cpus: cpus.len(),
        pinning_works,
        solo_scan_mdps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_of_handles_empty_and_rectangular() {
        assert_eq!(topology_of(&[]), HostTopology { sockets: 1, cores_per_socket: 1, smt: 1 });
        let cpus = [
            LogicalCpu { cpu: 0, socket: 0, core: 0, smt: 0 },
            LogicalCpu { cpu: 1, socket: 0, core: 1, smt: 0 },
            LogicalCpu { cpu: 2, socket: 1, core: 0, smt: 0 },
            LogicalCpu { cpu: 3, socket: 1, core: 0, smt: 1 },
        ];
        assert_eq!(topology_of(&cpus), HostTopology { sockets: 2, cores_per_socket: 2, smt: 2 });
    }

    #[test]
    fn discovery_is_consistent_when_sysfs_exists() {
        // On hosts without the sysfs tree this is a clean None; where it
        // exists, the dense ids must be in range for the derived shape.
        if let Some(cpus) = discover_cpus() {
            assert!(!cpus.is_empty());
            let t = topology_of(&cpus);
            for c in &cpus {
                assert!(c.socket < t.sockets);
                assert!(c.core < t.cores_per_socket);
                assert!(c.smt < t.smt);
            }
        }
    }

    #[test]
    fn calibration_penalties_are_model_legal() {
        // Whatever this host measures (or falls back to), the matrix must
        // be chargeable: every entry finite and ≥ 1.0 (a penalty below 1.0
        // would mean contention speeds work up).
        if let Some(cal) = calibrate() {
            for p in
                [cal.penalties.same_core_smt, cal.penalties.same_socket, cal.penalties.cross_socket]
            {
                assert!(p.is_finite() && p >= 1.0, "illegal penalty {p}");
            }
            assert!(cal.penalties.cross_socket >= cal.penalties.same_socket);
            assert!(cal.logical_cpus >= 1);
            // A fully-measured claim requires pinning to have worked.
            if cal.fully_measured() {
                assert!(cal.pinning_works);
            }
        }
    }

    #[test]
    fn pinning_restores_the_previous_mask() {
        let Some(before) = sys::get_affinity() else { return };
        if let Some(prev) = pin_verified(0) {
            assert!(sys::set_affinity(&prev));
            let after = sys::get_affinity().unwrap();
            assert_eq!(before, after, "affinity mask must round-trip");
        }
    }
}
