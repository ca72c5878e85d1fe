//! End-to-end job benchmark for `microgradd`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <clone-cold|stress-sweep|warm-repeat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run starts an in-process daemon, drives it from
//! closed-loop clients for at least `--seconds`, checks every answer, and
//! prints the end-to-end metrics.  With `--trace 1` it repeats the window
//! with client-side spans, then replays the workload's leading jobs
//! in-process with a span around every layer call, and prints the
//! per-layer metrics.  The last stdout line is one JSON object.  See
//! `README.md` for the workloads and what each metric should move.

mod daemon;
mod mirror;
mod mix;
mod pin;
mod stats;
mod trace;

use micrograd_core::{
    ExecutionPlatform, FrameworkConfig, FrameworkOutput, MetricKind, MicroGrad, SimPlatform,
};
use micrograd_service::ResultStore;
use mix::Workload;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 9] = [
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("clone_accuracy", "ratio"),
    ("clone_accuracy_heldout", "ratio"),
    ("evals_per_job", "count"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [(&str, &str); 41] = [
    ("codegen.generate_us", "us"),
    ("codegen.expand_ns_per_instr", "ns/instr"),
    ("sim.run_ns_per_instr", "ns/instr"),
    ("sim.fused_ns_per_instr", "ns/instr"),
    ("power.estimate_us", "us"),
    ("core.evaluate_miss_us", "us"),
    ("core.evaluate_hit_ns", "ns"),
    ("core.batch_size_mean", "count"),
    ("core.epoch_ms", "ms"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.import_cache_ms", "ms"),
    ("core.export_cache_ms", "ms"),
    ("store.load_cache_ms", "ms"),
    ("store.save_cache_ms", "ms"),
    ("store.cache_bytes", "bytes"),
    ("store.cache_entries", "count"),
    ("workloads.characterize_ms", "ms"),
    ("workloads.simpoint_analyze_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.load_report_us", "us"),
    ("store.save_report_ms", "ms"),
    ("protocol.submit_codec_us", "us"),
    ("protocol.report_codec_us", "us"),
    ("service.status_rtt_us", "us"),
    ("service.store_hit_share", "ratio"),
    ("service.dedup_share", "ratio"),
    ("scheduler.queue_wait_ms", "ms"),
    ("scheduler.execute_ms", "ms"),
    ("service.shutdown_ms", "ms"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.spans", "count"),
    ("job.self_ms", "ms/job"),
    ("codegen.self_ms", "ms/job"),
    ("sim.self_ms", "ms/job"),
    ("power.self_ms", "ms/job"),
    ("core.self_ms", "ms/job"),
    ("workloads.self_ms", "ms/job"),
    ("store.self_ms", "ms/job"),
    ("protocol.self_ms", "ms/job"),
    ("service.self_ms", "ms/job"),
];

/// Library re-runs compared bit for bit with fetched reports, per run.
const LIBRARY_CHECKS: usize = 3;

/// `ResultStore::open` calls timed for `store.open_ms`.
const OPEN_PROBES: usize = 5;

/// Mixed into a job's seed for the held-out platform, so the re-measured
/// trace expansion and code layout were never seen during tuning.
const HELDOUT_SALT: u64 = 0x4E1D_0075_EED5_0000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                values.insert(&flag[2..], value.as_str());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |name: &str| values.get(name).copied().ok_or(format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} wants a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(get("workload")?)
            .ok_or("--workload is one of clone-cold, stress-sweep, warm-repeat")?,
        seed: number("seed")?,
        seconds: number("seconds")?.max(1),
        traced: match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace is 0 or 1".into()),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Before any thread starts, so that every thread inherits it.
    let host = match pin::to_one_cpu() {
        Ok(cpu) => host_stamp(nproc, cpu),
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::FAILURE;
        }
    };
    let work = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}-pid{}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced),
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &host));
    // Stores are large and per-run; the span file is kept beside them.
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Counts of attempted and failed operations with the metrics of a run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

fn run(args: &Args, work: &Path, host: &str) -> Result<String, String> {
    println!("host: {host}");
    println!(
        "note: the simulator is unvalidated (the repository holds no hardware reference \
         results); clone accuracies compare each clone with the simulated original"
    );
    let dir = |name: &str| -> Result<PathBuf, String> {
        let path = work.join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(path)
    };

    let store = dir("store")?;
    let stored = if args.workload == Workload::WarmRepeat {
        daemon::fill_warm_store(args.seed, &store)?
    } else {
        Vec::new()
    };
    let pass = daemon::run(
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        &store,
        &stored,
    )?;
    println!(
        "window: {} jobs in {:.3} s, {} failed, {} store hits, {} dedup hits",
        pass.jobs.len(),
        pass.window_s,
        pass.failed,
        pass.store_hits,
        pass.dedups
    );

    let outcome = if args.traced {
        let untraced = mirror::run(
            args.workload,
            args.seed,
            false,
            &store,
            &dir("replay-untraced")?,
            &stored,
        )?;
        let traced = mirror::run(
            args.workload,
            args.seed,
            true,
            &store,
            &dir("replay-traced")?,
            &stored,
        )?;
        let outcome = per_layer(args.workload, &pass, &untraced, &traced, &store)?;
        let mut spans = pass.spans;
        spans.extend(traced.spans);
        write_spans(args, host, &spans)?;
        outcome
    } else {
        end_to_end(args, &pass, &stored)
    };

    let expected: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let value = outcome
            .metrics
            .get(name)
            .ok_or(format!("metric {name} was not computed"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

/// Writes the run's spans, after a host-stamp header line, as JSON lines.
fn write_spans(args: &Args, host: &str, spans: &[trace::Span]) -> Result<(), String> {
    let path = Path::new(".bench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(
        &path,
        format!("{{\"host\":{host}}}\n{}", trace::to_jsonl(spans)),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))
}

fn end_to_end(args: &Args, pass: &daemon::DaemonPass, stored: &[FrameworkOutput]) -> Outcome {
    let workload = args.workload;
    let mut attempted = pass.attempted;
    let mut failed = pass.failed;
    let scored: Vec<(FrameworkConfig, FrameworkOutput)> = (0..workload.scored_jobs())
        .filter_map(|index| match workload {
            Workload::WarmRepeat => {
                let k = mix::warm_draw(args.seed, index);
                Some((mix::warm_stored(args.seed, k), stored[k].clone()))
            }
            _ => pass
                .outcomes
                .get(index)
                .filter(|o| o.index == index)
                .and_then(|o| o.output.clone().map(|out| (o.config.clone(), out))),
        })
        .collect();
    if scored.len() != workload.scored_jobs() {
        eprintln!("perfbench: only {} scored jobs completed", scored.len());
        failed += 1;
    }

    // Fetched reports must be bit-identical to a library run.
    if workload != Workload::WarmRepeat {
        for pick in 0..LIBRARY_CHECKS {
            let index =
                (mix::splitmix(args.seed ^ 0x11B) as usize + pick * 37) % workload.scored_jobs();
            attempted += 1;
            let same = pass.outcomes.get(index).is_some_and(|o| {
                o.output.is_some() && MicroGrad::new(o.config.clone()).run().ok() == o.output
            });
            if !same {
                eprintln!("perfbench: job {index} differs from its library run");
                failed += 1;
            }
        }
    }

    let mut accuracy = Vec::new();
    let mut heldout = Vec::new();
    // Warm-repeat draws repeat configurations; score each one once.
    let mut heldout_cache: HashMap<u64, Option<f64>> = HashMap::new();
    for (config, output) in &scored {
        let job_accuracy = match output {
            FrameworkOutput::Clone(r) => r.mean_accuracy,
            FrameworkOutput::SimpointClone(r) => r.mean_accuracy,
            FrameworkOutput::Stress(_) => continue,
        };
        accuracy.push(job_accuracy);
        match *heldout_cache
            .entry(config.fingerprint())
            .or_insert_with(|| heldout_accuracy(config, output))
        {
            Some(value) => heldout.push(value),
            None => failed += 1,
        }
    }
    let evaluations: Vec<f64> = scored
        .iter()
        .map(|(_, output)| match output {
            FrameworkOutput::Clone(r) => r.evaluations as f64,
            FrameworkOutput::SimpointClone(r) => r.evaluations as f64,
            FrameworkOutput::Stress(r) => r.evaluations as f64,
        })
        .collect();

    let latencies: Vec<f64> = pass.jobs.iter().map(|&(_, _, ms)| ms).collect();
    let timing = stats::median_group(&groups(&pass.jobs, workload.grouping(), pass.window_s))
        .unwrap_or(stats::Timing {
            p50: 0.0,
            p90: 0.0,
            per_s: 0.0,
            beyond_p90: 0,
        });
    if timing.beyond_p90 < 10 {
        eprintln!("perfbench: only {} samples beyond p90", timing.beyond_p90);
        failed += 1;
    }
    if let Some([q1, q2, q3]) = stats::quartiles(&latencies) {
        println!(
            "job ms quartiles over all {} jobs: {q1:.4} {q2:.4} {q3:.4}, p90 {:.4}; \
             median group: p50 {:.4} p90 {:.4}",
            latencies.len(),
            stats::percentile(&latencies, 0.9).unwrap_or(0.0),
            timing.p50,
            timing.p90
        );
    }
    if let Some([q1, q2, q3]) = stats::quartiles(&pass.setup_s) {
        println!(
            "setup s quartiles over {} starts: {q1:.6} {q2:.6} {q3:.6}",
            pass.setup_s.len()
        );
    }

    let metrics = BTreeMap::from([
        ("job_ms_p50", timing.p50),
        ("job_ms_p90", timing.p90),
        ("jobs_per_s", timing.per_s),
        ("clone_accuracy", stats::mean(&accuracy)),
        ("clone_accuracy_heldout", stats::mean(&heldout)),
        ("evals_per_job", stats::mean(&evaluations)),
        (
            "ok_ratio",
            (attempted.saturating_sub(failed)) as f64 / attempted.max(1) as f64,
        ),
        ("setup_s", stats::median(&pass.setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Cuts the window's `(index, end, latency)` jobs into timing groups.
fn groups(jobs: &[(usize, f64, f64)], grouping: mix::Grouping, window_s: f64) -> Vec<stats::Group> {
    match grouping {
        mix::Grouping::Seconds => {
            let mut slices = vec![
                stats::Group {
                    wall_s: 1.0,
                    latencies: Vec::new()
                };
                window_s.floor() as usize
            ];
            for &(_, end_s, ms) in jobs {
                if let Some(slice) = slices.get_mut(end_s.floor() as usize) {
                    slice.latencies.push(ms);
                }
            }
            slices
        }
        mix::Grouping::Jobs(size) => jobs
            .chunks_exact(size)
            .map(|block| {
                let first = block
                    .iter()
                    .map(|&(_, end, ms)| end - ms / 1e3)
                    .fold(f64::INFINITY, f64::min);
                let last = block.iter().map(|&(_, end, _)| end).fold(0.0, f64::max);
                stats::Group {
                    wall_s: last - first,
                    latencies: block.iter().map(|&(_, _, ms)| ms).collect(),
                }
            })
            .collect(),
    }
}

/// Mean accuracy of a clone re-measured on a platform and generator seed
/// not used in tuning, scored against the job's own targets.
fn heldout_accuracy(config: &FrameworkConfig, output: &FrameworkOutput) -> Option<f64> {
    let space = config.knob_space.build();
    let seed = config.seed ^ HELDOUT_SALT;
    let platform = SimPlatform::new(config.core.config())
        .with_dynamic_len(config.dynamic_len)
        .with_seed(seed);
    let score = |knobs, target| -> Option<f64> {
        let metrics = platform.evaluate(&space.resolve(knobs, seed).ok()?).ok()?;
        Some(metrics.mean_accuracy(target, &MetricKind::CLONING))
    };
    match output {
        FrameworkOutput::Clone(r) => score(&r.knob_config, &r.target),
        FrameworkOutput::SimpointClone(r) => {
            let phases: Option<Vec<f64>> = r
                .phases
                .iter()
                .map(|p| score(&p.report.knob_config, &p.report.target))
                .collect();
            phases.map(|p| stats::mean(&p))
        }
        FrameworkOutput::Stress(_) => None,
    }
}

fn per_layer(
    workload: Workload,
    pass: &daemon::DaemonPass,
    untraced: &mirror::MirrorPass,
    traced: &mirror::MirrorPass,
    store: &Path,
) -> Result<Outcome, String> {
    let mut durations: HashMap<&str, Vec<f64>> = HashMap::new();
    for span in &traced.spans {
        durations
            .entry(span.name)
            .or_default()
            .push(span.duration_ns() as f64);
    }
    // Mean duration of a span name, in `scale` nanoseconds (0 when the
    // workload never makes that call).
    let mean = |name: &str, scale: f64| stats::mean(durations.get(name).map_or(&[], |v| v)) / scale;
    // Every job of a workload expands the same dynamic length.
    let per_instr = |name: &str| mean(name, 1.0) / workload.job(0, 0).dynamic_len as f64;

    let mut opens = Vec::with_capacity(OPEN_PROBES);
    for _ in 0..OPEN_PROBES {
        let started = Instant::now();
        ResultStore::open(store).map_err(|e| format!("reopen store: {e}"))?;
        opens.push(started.elapsed().as_secs_f64() * 1e3);
    }

    let replayed = workload.replay_jobs() as f64;
    let daemon_jobs = pass.attempted.max(1) as f64;
    let mirror_self = trace::layer_self_ns(&traced.spans);
    let service_self = trace::layer_self_ns(&pass.spans);
    let self_ms =
        |layer: &str| mirror_self.get(layer).copied().unwrap_or(0) as f64 / 1e6 / replayed;
    let scheduler_ms = |histogram: &str| {
        let read = |suffix: &str| {
            prometheus_value(&pass.metrics_text, &format!("{histogram}_{suffix}")).unwrap_or(0.0)
        };
        read("sum") / read("count").max(1.0) / 1e3
    };

    let lookups = (traced.memo_hits + traced.memo_misses).max(1) as f64;
    let metrics = BTreeMap::from([
        ("codegen.generate_us", mean("codegen.generate", 1e3)),
        ("codegen.expand_ns_per_instr", per_instr("codegen.expand")),
        ("sim.run_ns_per_instr", per_instr("sim.run")),
        ("sim.fused_ns_per_instr", per_instr("sim.fused")),
        ("power.estimate_us", mean("power.estimate", 1e3)),
        ("core.evaluate_miss_us", mean("core.evaluate_miss", 1e3)),
        ("core.evaluate_hit_ns", mean("core.evaluate_hit", 1.0)),
        ("core.batch_size_mean", stats::mean(&traced.batch_sizes)),
        ("core.epoch_ms", mean("core.epoch", 1e6)),
        ("core.memo_hit_ratio", traced.memo_hits as f64 / lookups),
        ("core.import_cache_ms", mean("core.import_cache", 1e6)),
        ("core.export_cache_ms", mean("core.export_cache", 1e6)),
        ("store.load_cache_ms", mean("store.load_cache", 1e6)),
        ("store.save_cache_ms", mean("store.save_cache", 1e6)),
        ("store.cache_bytes", traced.dump_bytes as f64),
        ("store.cache_entries", traced.dump_entries as f64),
        (
            "workloads.characterize_ms",
            mean("workloads.characterize", 1e6),
        ),
        (
            "workloads.simpoint_analyze_ms",
            mean("workloads.simpoint_analyze", 1e6),
        ),
        ("store.open_ms", stats::median(&opens)),
        ("store.load_report_us", mean("store.load_report", 1e3)),
        ("store.save_report_ms", mean("store.save_report", 1e6)),
        (
            "protocol.submit_codec_us",
            mean("protocol.submit_codec", 1e3),
        ),
        (
            "protocol.report_codec_us",
            mean("protocol.report_codec", 1e3),
        ),
        ("service.status_rtt_us", stats::median(&pass.status_rtt_us)),
        (
            "service.store_hit_share",
            pass.store_hits as f64 / daemon_jobs,
        ),
        ("service.dedup_share", pass.dedups as f64 / daemon_jobs),
        (
            "scheduler.queue_wait_ms",
            scheduler_ms("micrograd_job_queue_wait_us"),
        ),
        (
            "scheduler.execute_ms",
            scheduler_ms("micrograd_job_execution_us"),
        ),
        ("service.shutdown_ms", pass.shutdown_ms),
        ("trace.traced_s", traced.wall_s),
        ("trace.untraced_s", untraced.wall_s),
        (
            "trace.spans",
            (pass.spans.len() + traced.spans.len()) as f64,
        ),
        ("job.self_ms", self_ms("job")),
        ("codegen.self_ms", self_ms("codegen")),
        ("sim.self_ms", self_ms("sim")),
        ("power.self_ms", self_ms("power")),
        ("core.self_ms", self_ms("core")),
        ("workloads.self_ms", self_ms("workloads")),
        ("store.self_ms", self_ms("store")),
        ("protocol.self_ms", self_ms("protocol")),
        (
            "service.self_ms",
            service_self.get("service").copied().unwrap_or(0) as f64 / 1e6 / daemon_jobs,
        ),
    ]);
    println!(
        "replay: {} jobs, traced {:.3} s vs untraced {:.3} s",
        workload.replay_jobs(),
        traced.wall_s,
        untraced.wall_s
    );
    Ok(Outcome {
        attempted: pass.attempted + untraced.attempted + traced.attempted,
        failed: pass.failed + untraced.failed + traced.failed,
        metrics,
    })
}

/// The value of an unlabelled series in Prometheus text exposition.
fn prometheus_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (name, value) = line.split_once(' ')?;
        (name == series).then(|| value.trim().parse().ok())?
    })
}

/// Host fingerprint: results compare only within one host.
fn host_stamp(nproc: usize, pinned_cpu: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"pinned_cpu\":{pinned_cpu},\"rustc\":\"{}\"}}",
        cpu.replace('"', "'"),
        env!("PERFBENCH_RUSTC")
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
