//! End-to-end and per-layer host benchmark of the memsci workspace.
//!
//! ```text
//! e2ebench --workload <suite_fast|exact_cg|mc_analog|service_batch>
//!          --seed <n> --seconds <s> --trace <0|1> [--threads <n>]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics (`wall_s`, `setup_s`, `spmv_per_s`,
//! `peak_rss_mb`); with `--trace 1` the run alternates untraced and
//! traced rounds and prints the per-layer metrics instead.
//! See `README.md` for what each figure means.

mod check;
mod harness;
mod probe;
mod procstat;
mod workloads;

use std::process::ExitCode;

use harness::{median, result_json, run_rounds, sum_of_medians, Metric, Round, Workload};

/// Rounds an untraced run completes at least, so every slot's median
/// has three samples.
const MIN_ROUNDS: usize = 3;

/// Untraced-traced round pairs a traced run completes at least.
const MIN_TRACE_PAIRS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

const USAGE: &str = "usage: e2ebench --workload <suite_fast|exact_cg|mc_analog|service_batch> \
                     --seed <n> --seconds <s> --trace <0|1> [--threads <n>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--threads" => {
                let t: usize = value.parse().map_err(|_| bad("a whole number"))?;
                if !(1..=64).contains(&t) {
                    return Err(bad("in 1..=64"));
                }
                threads = Some(t);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

/// The workload and its pinned worker-thread count.
fn workload(name: &str, seed: u64) -> Option<(Box<dyn Workload>, usize)> {
    Some(match name {
        "suite_fast" => (Box::new(workloads::SuiteFast::new(seed)), 1),
        "exact_cg" => (Box::new(workloads::ExactCg::new(seed)), 2),
        "mc_analog" => (Box::new(workloads::McAnalog::new(seed)), 1),
        "service_batch" => (Box::new(workloads::ServiceBatch::new(seed)), 2),
        _ => return None,
    })
}

/// The failed checks of a set of rounds, plus any round that does not
/// reproduce the first round's solutions and iteration counts bit for
/// bit.
fn verdict(rounds: &[&Round]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        errors.extend(r.errors.iter().cloned());
        if r.digest != rounds[0].digest || r.applications != rounds[0].applications {
            errors.push(format!(
                "round {i} did not reproduce round 0's solutions and iteration counts"
            ));
        }
    }
    errors
}

fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let wall_s = sum_of_medians(rounds, |r| &r.timed);
    vec![
        Metric {
            name: "wall_s",
            value: wall_s,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: sum_of_medians(rounds, |r| &r.setup),
            unit: "s",
        },
        Metric {
            name: "spmv_per_s",
            value: rounds[0].applications as f64 / wall_s,
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: procstat::peak_rss_mb().unwrap_or(f64::NAN),
            unit: "MB",
        },
    ]
}

fn per_layer(traced: &[Round], host_ref: f64, overhead: f64) -> Vec<Metric> {
    let m = |name: &'static str, unit: &'static str, f: fn(&Round) -> f64| Metric {
        name,
        unit,
        value: median(&traced.iter().map(f).collect::<Vec<_>>()),
    };
    vec![
        m("sparse.generate_s", "s", |r| r.layers.generate_s),
        m("sparse.block_s", "s", |r| r.layers.block_s),
        m("core.program_s", "s", |r| r.layers.program_s),
        m("gpu.solve_s", "s", |r| r.layers.gpu_solve_s),
        m("core.spmv_s", "s", |r| r.layers.accel.spmv_s),
        m("core.spmv_calls", "count", |r| {
            r.layers.accel.spmv_calls as f64
        }),
        m("core.spmv_span_s", "s", |r| r.spans.spmv_span_s),
        m("core.cluster_mvm_s", "s", |r| r.spans.cluster_mvm_s),
        m("core.residual_csr_s", "s", |r| r.spans.residual_csr_s),
        m("core.merge_s", "s", |r| r.spans.merge_s),
        m("core.spmv_unattributed_s", "s", |r| r.spans.unattributed_s),
        m("solvers.blas1_s", "s", |r| {
            r.layers.accel.blas1_s + r.layers.gpu.blas1_s
        }),
        m("solvers.self_s", "s", |r| {
            let l = &r.layers;
            l.solve_s - l.accel.spmv_s - l.gpu.spmv_s - l.accel.blas1_s - l.gpu.blas1_s
        }),
        m("solvers.iterations", "count", |r| {
            r.layers.iterations as f64
        }),
        m("xbar.adc_conversions", "count", |r| {
            r.spans.adc_conversions as f64
        }),
        m("xbar.slices_skipped", "count", |r| {
            r.spans.slices_skipped as f64
        }),
        m("core.service_call_s", "s", |r| r.layers.service_call_s),
        m("core.cache_hit_ratio", "ratio", |r| {
            let l = &r.layers;
            if l.cache_lookups == 0 {
                0.0
            } else {
                l.cache_hits as f64 / l.cache_lookups as f64
            }
        }),
        m("core.cache_programs", "count", |r| {
            r.layers.cache_programs as f64
        }),
        m("exec.cpu_s", "s", |r| r.cpu_s),
        m("exec.parallelism", "ratio", |r| r.cpu_s / r.wall_s),
        Metric {
            name: "host.ref_s",
            value: host_ref,
            unit: "s",
        },
        Metric {
            name: "bench.trace_overhead_s",
            value: overhead,
            unit: "s",
        },
    ]
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some((mut w, pinned)) = workload(&args.workload, args.seed) else {
        eprintln!("e2ebench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let threads = args.threads.unwrap_or(pinned);
    // The thread count is part of each workload's definition; the
    // environment of the caller must not change it, nor switch lane
    // overlap on. Set before any worker exists.
    std::env::set_var(memsci_exec::THREADS_ENV, threads.to_string());
    std::env::remove_var("MEMSCI_OVERLAP");

    let min_rounds = if args.trace {
        MIN_TRACE_PAIRS
    } else {
        MIN_ROUNDS
    };
    let (plain, traced) = run_rounds(w.as_mut(), args.seconds, min_rounds, args.trace);
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let host_ref = median(&all.iter().map(|r| r.host_ref_s).collect::<Vec<_>>());
    let metrics = if args.trace {
        let overhead = sum_of_medians(&traced, |r| &r.timed) - sum_of_medians(&plain, |r| &r.timed);
        per_layer(&traced, host_ref, overhead)
    } else {
        end_to_end(&plain)
    };
    // Traced rounds must reproduce the untraced ones bit for bit.
    let mut errors = verdict(&all);
    if metrics.iter().any(|m| !m.value.is_finite()) {
        errors.push("a metric is not finite".into());
    }
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    for e in errors.iter().take(20) {
        eprintln!("check failed: {e}");
    }
    println!(
        "# {} seed={} threads={threads} rounds={} traced_rounds={} attempted={attempted} failed={failed} applications/round={} host.ref_s={host_ref:.6}",
        args.workload,
        args.seed,
        all.len(),
        traced.len(),
        all[0].applications,
    );
    let walls: Vec<String> = all.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("# round wall seconds: {}", walls.join(" "));
    if let Some(line) = w.summary() {
        println!("# {line}");
    }
    if let Some(last) = traced.last() {
        let s = &last.spans;
        println!(
            "# engine SpMV spans {:.6} s = cluster_mvm {:.6} + residual_csr {:.6} + merge {:.6} + other children {:.6} + unattributed {:.6}",
            s.spmv_span_s, s.cluster_mvm_s, s.residual_csr_s, s.merge_s, s.other_children_s, s.unattributed_s
        );
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!(
        "{}",
        result_json(errors.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
