//! Rounds, timing, per-layer attribution and the result line.
//!
//! A workload runs whole rounds of the same operations until the run's
//! time is used up. Each round records the seconds of every set-up step
//! and every timed operation; a metric is the sum over operations of
//! that operation's median across rounds, which keeps one slow round
//! from moving the figure. Correctness checks run between the timed
//! operations and are never inside their clocks.

use std::time::Instant;

use memsci_solvers::bicgstab::bicgstab;
use memsci_solvers::cg::cg;
use memsci_solvers::{Platform, SolveOptions, SolveReport};
use memsci_telemetry::{Counter, SpanStat};

use crate::probe::{KernelTimes, Probe};
use crate::procstat;

/// Which model a probed solve runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The GPU baseline model.
    Gpu,
    /// An accelerator engine (fast or exact).
    Accel,
}

/// Per-layer figures of one traced round, measured from outside the
/// program (clocks around public calls, the probe, the program's own
/// span and counter totals).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    pub generate_s: f64,
    pub block_s: f64,
    pub program_s: f64,
    pub gpu_solve_s: f64,
    pub accel: KernelTimes,
    pub gpu: KernelTimes,
    pub solve_s: f64,
    pub iterations: u64,
    pub service_call_s: f64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_programs: u64,
}

/// What one round measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Seconds of each set-up step (input generation, blocking,
    /// programming), in a fixed order.
    pub setup: Vec<f64>,
    /// Seconds of each timed operation (a solver call), in a fixed
    /// order.
    pub timed: Vec<f64>,
    /// Operator applications the solves needed (one per iteration and
    /// right-hand side; two per BiCGStab iteration).
    pub applications: u64,
    /// Solves attempted.
    pub attempted: u64,
    /// Solves that did not converge.
    pub failed: u64,
    /// Fingerprint of every solution and iteration count.
    pub digest: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Host wall seconds of the whole round.
    pub wall_s: f64,
    /// Process CPU seconds of the whole round.
    pub cpu_s: f64,
    /// Seconds of the host reference loop run just before the round.
    pub host_ref_s: f64,
    /// Per-layer figures (traced rounds only).
    pub layers: Layers,
    /// Span and counter figures (traced rounds only).
    pub spans: SpanLayers,
}

/// State a workload's round reports into.
#[derive(Debug, Default)]
pub struct Ctx {
    /// Whether this round is traced.
    pub traced: bool,
    /// The round being recorded.
    pub round: Round,
}

impl Ctx {
    /// Runs a set-up step and records its time; `layer` (traced rounds)
    /// also receives it.
    pub fn setup<R>(&mut self, layer: fn(&mut Layers) -> &mut f64, f: impl FnOnce() -> R) -> R {
        let (r, s) = timed(f);
        self.round.setup.push(s);
        *layer(&mut self.round.layers) += s;
        r
    }

    /// Runs CG (`spd`) or BiCGStab on `platform`, through the probe in
    /// traced rounds. Returns the report and the solve's seconds; the
    /// caller decides which timed operation they belong to.
    pub fn solve<P: Platform>(
        &mut self,
        engine: Engine,
        spd: bool,
        platform: &mut P,
        b: &[f64],
        x: &mut [f64],
        opts: &SolveOptions,
    ) -> (SolveReport, f64) {
        let (report, seconds) = if self.traced {
            let mut probe = Probe::new(platform);
            let out = timed(|| krylov(spd, &mut probe, b, x, opts));
            let t = probe.times();
            let into = match engine {
                Engine::Gpu => &mut self.round.layers.gpu,
                Engine::Accel => &mut self.round.layers.accel,
            };
            into.spmv_s += t.spmv_s;
            into.spmv_calls += t.spmv_calls;
            into.blas1_s += t.blas1_s;
            out
        } else {
            timed(|| krylov(spd, platform, b, x, opts))
        };
        let layers = &mut self.round.layers;
        layers.solve_s += seconds;
        layers.iterations += report.iterations as u64;
        if engine == Engine::Gpu {
            layers.gpu_solve_s += seconds;
        }
        self.count_solve(&report, if spd { 1 } else { 2 });
        (report, seconds)
    }

    /// Books one solve's outcome: attempted, failed, applications.
    pub fn count_solve(&mut self, report: &SolveReport, applications_per_iteration: u64) {
        self.round.attempted += 1;
        if !report.converged {
            self.round.failed += 1;
        }
        self.round.applications += applications_per_iteration * report.iterations as u64;
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.round.errors.push(what);
    }
}

/// CG for SPD systems, BiCGStab otherwise (the paper's split).
pub fn krylov<P: Platform + ?Sized>(
    spd: bool,
    platform: &mut P,
    b: &[f64],
    x: &mut [f64],
    opts: &SolveOptions,
) -> SolveReport {
    if spd {
        cg(platform, b, x, opts)
    } else {
        bicgstab(platform, b, x, opts)
    }
}

/// Runs `f` and returns its result with its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// A workload: the same round of operations, repeated.
pub trait Workload {
    /// Runs one round, reporting into `ctx`.
    fn round(&mut self, ctx: &mut Ctx);

    /// A line of workload-specific figures from the last round.
    fn summary(&self) -> Option<String> {
        None
    }
}

/// Runs rounds until `seconds` have passed and at least `min_rounds`
/// untraced rounds have completed. With `traced`, every untraced round
/// is followed by a traced one, so host drift reaches both halves
/// alike. Returns the untraced and the traced rounds.
pub fn run_rounds(
    w: &mut dyn Workload,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
) -> (Vec<Round>, Vec<Round>) {
    let start = Instant::now();
    let (mut plain, mut probed) = (Vec::new(), Vec::new());
    while plain.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        plain.push(run_round(w, false));
        if traced {
            probed.push(run_round(w, true));
        }
    }
    (plain, probed)
}

/// Runs one round with the telemetry sink on (`traced`) or off.
fn run_round(w: &mut dyn Workload, traced: bool) -> Round {
    let host_ref = host_ref_s();
    if traced {
        memsci_telemetry::enable();
    }
    memsci_telemetry::reset();
    let cpu0 = procstat::cpu_seconds().unwrap_or(0.0);
    let mut ctx = Ctx {
        traced,
        round: Round::default(),
    };
    let ((), wall) = timed(|| w.round(&mut ctx));
    let mut round = ctx.round;
    round.host_ref_s = host_ref;
    round.wall_s = wall;
    round.cpu_s = procstat::cpu_seconds().unwrap_or(0.0) - cpu0;
    if traced {
        round.spans = SpanLayers::from_snapshot(&memsci_telemetry::snapshot());
    }
    memsci_telemetry::disable();
    round
}

/// A fixed floating-point loop owned by the benchmark (median of three
/// passes over cache-resident data): its time moves only with the host,
/// so drift in it is host drift.
fn host_ref_s() -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut v: Vec<f64> = (0..1 << 14).map(|i| i as f64 * 1e-3).collect();
            timed(|| {
                for _ in 0..400 {
                    for x in v.iter_mut() {
                        *x = (*x * 0.999_9 + 0.25).sqrt();
                    }
                    std::hint::black_box(&mut v);
                }
            })
            .1
        })
        .collect();
    median(&samples)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Σ over operation slots of the slot's median across rounds.
pub fn sum_of_medians(rounds: &[Round], slot: fn(&Round) -> &Vec<f64>) -> f64 {
    let ops = slot(&rounds[0]).len();
    (0..ops)
        .map(|i| median(&rounds.iter().map(|r| slot(r)[i]).collect::<Vec<_>>()))
        .sum()
}

/// Kernel spans whose time the span breakdown attributes.
const SPMV_SPANS: [&str; 6] = [
    "engine/spmv",
    "engine/spmv_batch",
    "engine/spmv_transpose",
    "exact/spmv",
    "exact/spmv_batch",
    "exact/spmv_transpose",
];

/// Figures read from the program's own spans and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanLayers {
    /// Total of the outermost engine SpMV spans.
    pub spmv_span_s: f64,
    /// Total of every `cluster_mvm` span.
    pub cluster_mvm_s: f64,
    /// Total of every `residual_csr` span.
    pub residual_csr_s: f64,
    /// Total of every `merge` span.
    pub merge_s: f64,
    /// Direct children of the engine SpMV spans that are none of the
    /// three above.
    pub other_children_s: f64,
    /// Engine SpMV span time that no child span covers.
    pub unattributed_s: f64,
    /// `adc_conversions` counter.
    pub adc_conversions: u64,
    /// `slices_skipped` counter.
    pub slices_skipped: u64,
}

fn leaf_is(path: &str, name: &str) -> bool {
    path == name
        || path
            .strip_suffix(name)
            .is_some_and(|head| head.ends_with('/'))
}

fn extends(path: &str, parent: &str) -> bool {
    path.len() > parent.len() + 1
        && path.starts_with(parent)
        && path.as_bytes()[parent.len()] == b'/'
}

impl SpanLayers {
    /// Attributes the engine SpMV spans of a snapshot to their direct
    /// children, generically: a direct child of span `P` is any
    /// recorded path below `P` with no other recorded path in between.
    pub fn from_snapshot(snap: &memsci_telemetry::TelemetrySnapshot) -> Self {
        Self::from_spans(&snap.spans, |c| snap.counters.get(c))
    }

    fn from_spans(spans: &[SpanStat], counter: impl Fn(Counter) -> u64) -> Self {
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| leaf_is(&s.name, name))
                .map(|s| s.seconds)
                .sum()
        };
        let is_kernel = |p: &str| SPMV_SPANS.iter().any(|k| leaf_is(p, k));
        let kernels: Vec<&SpanStat> = spans
            .iter()
            .filter(|s| is_kernel(&s.name))
            .filter(|s| {
                !spans
                    .iter()
                    .any(|o| is_kernel(&o.name) && extends(&s.name, &o.name))
            })
            .collect();
        let mut out = SpanLayers {
            cluster_mvm_s: total("cluster_mvm"),
            residual_csr_s: total("residual_csr"),
            merge_s: total("merge"),
            adc_conversions: counter(Counter::AdcConversions),
            slices_skipped: counter(Counter::SlicesSkipped),
            ..Default::default()
        };
        let mut named_children = 0.0;
        for k in kernels {
            out.spmv_span_s += k.seconds;
            let below: Vec<&SpanStat> =
                spans.iter().filter(|s| extends(&s.name, &k.name)).collect();
            let mut children = 0.0;
            for c in &below {
                let direct = !below.iter().any(|m| extends(&c.name, &m.name));
                if direct {
                    children += c.seconds;
                    if ["cluster_mvm", "residual_csr", "merge"]
                        .contains(&&c.name[k.name.len() + 1..])
                    {
                        named_children += c.seconds;
                    }
                }
            }
            out.other_children_s += children;
            out.unattributed_s += k.seconds - children;
        }
        out.other_children_s -= named_children;
        out
    }
}

/// A metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &str, seconds: f64) -> SpanStat {
        let mut s = SpanStat::from_durations(name, &[seconds]);
        s.seconds = seconds;
        s
    }

    #[test]
    fn medians_and_sums_of_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let r = |t: Vec<f64>| Round {
            timed: t,
            ..Default::default()
        };
        let rounds = vec![r(vec![1.0, 10.0]), r(vec![9.0, 11.0]), r(vec![2.0, 30.0])];
        assert_eq!(sum_of_medians(&rounds, |r| &r.timed), 2.0 + 11.0);
    }

    #[test]
    fn span_breakdown_attributes_direct_children_only() {
        let spans = vec![
            stat("solve/cg", 10.0),
            stat("solve/cg/iter", 9.0),
            stat("solve/cg/iter/engine/spmv", 6.0),
            stat("solve/cg/iter/engine/spmv/cluster_mvm", 2.0),
            stat("solve/cg/iter/engine/spmv/residual_csr", 1.0),
            stat("solve/cg/iter/engine/spmv/merge", 0.5),
            stat("solve/cg/iter/engine/spmv/cost_model", 1.5),
            stat("solve/cg/iter/engine/spmv/cost_model/inner", 1.0),
            stat("engine/spmv_batch", 2.0),
            stat("engine/spmv_batch/batch_mvm", 1.5),
            stat("engine/spmv_batch/batch_mvm/cluster_mvm", 1.0),
            stat("exact/bank_shard", 0.7),
        ];
        let s = SpanLayers::from_spans(&spans, |_| 0);
        assert_eq!(s.spmv_span_s, 8.0);
        assert_eq!(s.cluster_mvm_s, 3.0);
        assert_eq!(s.residual_csr_s, 1.0);
        assert_eq!(s.merge_s, 0.5);
        // cost_model (1.5) and batch_mvm (1.5) are the other children.
        assert_eq!(s.other_children_s, 3.0);
        assert_eq!(s.unattributed_s, (6.0 - 5.0) + (2.0 - 1.5));
        // Named + other children + unattributed add up to the spans.
        let named = 2.0 + 1.0 + 0.5;
        assert_eq!(named + s.other_children_s + s.unattributed_s, s.spmv_span_s);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let line = result_json(
            true,
            12,
            0,
            &[
                Metric {
                    name: "wall_s",
                    value: 1.25,
                    unit: "s",
                },
                Metric {
                    name: "spmv_per_s",
                    value: 3.0,
                    unit: "1/s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"spmv_per_s\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
    }
}
