//! How an arm is judged against its rivals: the one verdict rule under
//! every `*_verdict.csv` and every JSON `comparison`.
//!
//! A [`Comparison`] holds one metric's readings in the reported unit (ms
//! for p99) and reads exactly one word. `None` is an arm with no feasible
//! reading, never counted as beaten. A claim with two axes is two
//! comparisons: nothing is ORed or ANDed into one word.

use crate::report::{f1, JsonValue, Table};
use std::io;

/// An experiment's in-run contracts, `(name, holds)`, as its result: `Err`
/// naming every one that does not hold. A false contract is a determinism
/// regression, so the run that finds one fails; experiments call this
/// after writing their artifacts, which keep the `false` row to inspect.
pub fn contracts_hold(contracts: &[(&str, bool)]) -> io::Result<()> {
    let broken: Vec<&str> = contracts.iter().filter(|c| !c.1).map(|c| c.0).collect();
    if broken.is_empty() {
        return Ok(());
    }
    Err(io::Error::other(format!("in-run contract does not hold: {}", broken.join("; "))))
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric, one subject arm, its rivals: `(arm name, reading)` pairs.
#[derive(Debug)]
pub struct Comparison {
    pub metric: &'static str,
    pub better: Better,
    pub subject: (String, Option<f64>),
    pub rivals: Vec<(String, Option<f64>)>,
}

/// A reading that exists: non-finite numbers count as none.
fn feasible(v: Option<f64>) -> Option<f64> {
    v.filter(|x| x.is_finite())
}

impl Comparison {
    /// `no feasible point` when the subject has no reading; `no feasible
    /// rival` when no rival has one; otherwise `beats`, `indistinguishable`
    /// or `loses`: the subject strictly better than, exactly equal to, or
    /// strictly worse than the best rival that has a reading.
    pub fn verdict(&self) -> &'static str {
        // Higher-is-better keys, so one `max` picks the best rival.
        let key = |v: f64| if self.better == Better::Higher { v } else { -v };
        let Some(subject) = feasible(self.subject.1).map(key) else {
            return "no feasible point";
        };
        let best = self.rivals.iter().filter_map(|r| feasible(r.1)).map(key).reduce(f64::max);
        match best {
            None => "no feasible rival",
            Some(b) if subject > b => "beats",
            Some(b) if subject == b => "indistinguishable",
            Some(_) => "loses",
        }
    }

    /// The verdict table: per comparison, every reading (rivals, then the
    /// subject) and the word; then the experiment's in-run contract rows.
    pub fn table(comparisons: &[Comparison], contracts: &[(&str, bool)]) -> Table {
        let mut t = Table::new(vec!["metric", "value"]);
        for c in comparisons {
            for (arm, v) in c.rivals.iter().chain([&c.subject]) {
                t.row(vec![format!("{}: {arm}", c.metric), feasible(*v).map_or("-".into(), f1)]);
            }
            t.row(vec![format!("{}: verdict", c.metric), c.verdict().into()]);
        }
        for (contract, holds) in contracts {
            t.row(vec![contract.to_string(), holds.to_string()]);
        }
        t
    }

    /// The JSON `comparison` array: one object per comparison, keys
    /// `metric`, `better`, `subject`, `rivals`, `verdict`.
    pub fn json(comparisons: &[Comparison]) -> JsonValue {
        let arm = |(name, v): &(String, Option<f64>)| {
            JsonValue::obj(vec![
                ("arm", JsonValue::Str(name.clone())),
                ("value", JsonValue::opt_finite(*v)),
            ])
        };
        let one = |c: &Comparison| {
            let better = if c.better == Better::Higher { "higher" } else { "lower" };
            JsonValue::obj(vec![
                ("metric", JsonValue::Str(c.metric.into())),
                ("better", JsonValue::Str(better.into())),
                ("subject", arm(&c.subject)),
                ("rivals", JsonValue::Arr(c.rivals.iter().map(arm).collect())),
                ("verdict", JsonValue::Str(c.verdict().into())),
            ])
        };
        JsonValue::Arr(comparisons.iter().map(one).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cotuning::{at_top, p99_ms, SERVING_SLO_P99_SECS, TOP_P99_MS};
    use workload::{ServingSpec, ServingStats, WriteStats};

    fn cmp(better: Better, subject: Option<f64>, rivals: &[Option<f64>]) -> Comparison {
        Comparison {
            metric: "m",
            better,
            subject: ("co-tuned".into(), subject),
            rivals: rivals.iter().enumerate().map(|(i, &v)| (format!("fixed {i}"), v)).collect(),
        }
    }

    #[test]
    fn each_word_in_both_directions() {
        for (better, good, bad) in [(Better::Higher, 2.0, 1.0), (Better::Lower, 1.0, 2.0)] {
            let verdict = |s, r: &[Option<f64>]| cmp(better, s, r).verdict();
            assert_eq!(verdict(None, &[Some(good)]), "no feasible point");
            assert_eq!(verdict(None, &[]), "no feasible point");
            assert_eq!(verdict(Some(good), &[None, None]), "no feasible rival");
            assert_eq!(verdict(Some(good), &[]), "no feasible rival");
            assert_eq!(verdict(Some(good), &[Some(bad), None]), "beats");
            assert_eq!(verdict(Some(bad), &[None, Some(good)]), "loses");
            // Judged against the best rival with a reading, not every one.
            assert_eq!(verdict(Some(bad), &[Some(bad), Some(good)]), "loses");
        }
    }

    #[test]
    fn an_exact_tie_is_indistinguishable() {
        for better in [Better::Higher, Better::Lower] {
            assert_eq!(cmp(better, Some(3.5), &[Some(3.5), None]).verdict(), "indistinguishable");
        }
        // Not a tie: one ulp apart is a strict order.
        let next = f64::from_bits(3.5f64.to_bits() + 1);
        assert_eq!(cmp(Better::Higher, Some(next), &[Some(3.5)]).verdict(), "beats");
        assert_eq!(cmp(Better::Lower, Some(next), &[Some(3.5)]).verdict(), "loses");
    }

    #[test]
    fn a_non_finite_reading_is_no_reading() {
        assert_eq!(cmp(Better::Lower, Some(f64::NAN), &[Some(1.0)]).verdict(), "no feasible point");
        assert_eq!(
            cmp(Better::Higher, Some(1.0), &[Some(f64::INFINITY)]).verdict(),
            "no feasible rival"
        );
    }

    /// Replication: both fixed arms have no feasible point, so the co-tuned
    /// arm has nothing to beat.
    #[test]
    fn replication_fixture_reads_no_feasible_rival() {
        let c = Comparison {
            metric: TOP_P99_MS,
            better: Better::Lower,
            subject: ("co-tuned".into(), Some(7.3)),
            rivals: vec![("fixed 1-replica".into(), None), ("fixed 2-replica".into(), None)],
        };
        assert_eq!(c.verdict(), "no feasible rival");
        let csv = Comparison::table(
            std::slice::from_ref(&c),
            &[("frozen-at-1 ≡ 17-dim (bitwise)", true)],
        );
        assert_eq!(
            csv.to_csv(),
            "metric,value\n\
             p99 @ top rate (ms): fixed 1-replica,-\n\
             p99 @ top rate (ms): fixed 2-replica,-\n\
             p99 @ top rate (ms): co-tuned,7.3\n\
             p99 @ top rate (ms): verdict,no feasible rival\n\
             frozen-at-1 ≡ 17-dim (bitwise),true\n"
        );
        let JsonValue::Arr(entries) = Comparison::json(&[c]) else { panic!("an array") };
        let JsonValue::Obj(keys) = &entries[0] else { panic!("an object") };
        let keys: Vec<&str> = keys.iter().map(|k| k.0.as_str()).collect();
        assert_eq!(keys, ["metric", "better", "subject", "rivals", "verdict"]);
    }

    #[test]
    fn a_false_contract_is_an_error_naming_it() {
        let frozen = "frozen write knobs ≡ 19-dim (bitwise)";
        let quiet = "write rate 0 ≡ read-only (bitwise)";
        assert!(contracts_hold(&[(frozen, true), (quiet, true)]).is_ok());
        assert!(contracts_hold(&[]).is_ok());
        let err = contracts_hold(&[(frozen, true), (quiet, false)]).unwrap_err().to_string();
        assert!(err.contains(quiet) && !err.contains(frozen), "{err}");
        let err = contracts_hold(&[(frozen, false), (quiet, false)]).unwrap_err().to_string();
        assert!(err.contains(frozen) && err.contains(quiet), "{err}");
    }

    /// Reactors: the co-tuned winner passed the SLO in tuning but reads the
    /// 1,000 ms timeout ceiling with 74 requests shed at the top rate, so
    /// it has no reading there.
    #[test]
    fn reactors_fixture_reads_no_feasible_point() {
        let stats = ServingStats {
            offered_qps: 200_912.3,
            achieved_qps: 53_463.3,
            goodput_qps: 53_463.3,
            p50_latency_secs: 0.0125,
            p95_latency_secs: 0.5,
            p99_latency_secs: 1.0,
            max_queue_depth: 32,
            completed: 60_000,
            shed: 74,
            timeouts: 0,
            makespan_secs: 1.0,
            writes: WriteStats::default(),
        };
        let spec = ServingSpec::default().at_rate(200_912.3).with_slo(SERVING_SLO_P99_SECS);
        let ladder = [None, Some(ServingStats { p99_latency_secs: 0.002, ..stats }), Some(stats)];
        assert_eq!(at_top(&ladder, &spec), None);
        // The same ladder read without the SLO is the raw 1,000 ms.
        assert_eq!(at_top(&ladder, &ServingSpec::default()).map(p99_ms), Some(1_000.0));
        let c = Comparison {
            metric: TOP_P99_MS,
            better: Better::Lower,
            subject: ("co-tuned".into(), at_top(&ladder, &spec).map(p99_ms)),
            rivals: vec![("fixed compact".into(), Some(20.6)), ("fixed shared".into(), None)],
        };
        assert_eq!(c.verdict(), "no feasible point");
    }
}
