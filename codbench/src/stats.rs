//! Order statistics, process memory and the benchmark's report.

use std::fmt::Write as _;

/// The `p`-quantile (`0 < p <= 1`) of `values` by nearest rank, or 0 for
/// an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `struct timeval` of the C library.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the C library on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage(who: i32) -> Option<Rusage> {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and `getrusage` writes only within it.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage)
}

fn cpu_s(who: i32) -> f64 {
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    rusage(who).map_or(0.0, |u| secs(&u.utime) + secs(&u.stime))
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// CPU seconds (user + system) this process has used. Time the host
/// steals from the virtual CPUs is not charged to it.
pub fn process_cpu_s() -> f64 {
    cpu_s(RUSAGE_SELF)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_s(RUSAGE_THREAD)
}

/// Peak resident set size of this process in MiB, which covers exactly
/// one workload because every run is its own process.
pub fn peak_rss_mb() -> f64 {
    // Linux reports `ru_maxrss` in KiB.
    rusage(RUSAGE_SELF).map_or(0.0, |u| u.maxrss as f64 / 1024.0)
}

/// One named metric with its unit and, for ratios and normalized values,
/// the base counts it was computed from.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub base: String,
}

/// Everything one run measured: the pass/fail tally, the end-to-end
/// metrics (untraced) and the per-layer metrics (traced runs only).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Answer or durability mismatches found by the checks.
    pub mismatches: Vec<String>,
    /// Findings that are printed but do not fail the run.
    pub notes: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64, base: String) {
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            base,
        });
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64, base: String) {
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            base,
        });
    }

    /// Records a mismatch; only the first few are printed.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// The human-readable report: every metric the run measured, by name
    /// and unit, with its base counts.
    pub fn render_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {workload}: attempted {} failed {} mismatches {}",
            self.attempted,
            self.failed,
            self.mismatches.len()
        );
        for m in self.mismatches.iter().take(5) {
            let _ = writeln!(out, "# mismatch: {m}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "# note: {n}");
        }
        for (kind, metrics) in [("e2e", &self.end_to_end), ("layer", &self.per_layer)] {
            for m in metrics {
                let _ = writeln!(
                    out,
                    "{kind:5} {:32} {:>16.6} {:8} {}",
                    m.name, m.value, m.unit, m.base
                );
            }
        }
        out
    }

    /// The result line: exactly the metrics `wanted` names, in order.
    /// Every wanted metric must have been measured.
    pub fn json_line(&self, wanted: &[&str], trace: bool) -> Result<String, String> {
        let pool = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut metrics = Vec::with_capacity(wanted.len());
        for name in wanted {
            let m = pool
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
