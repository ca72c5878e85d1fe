//! The traced in-process replay.  It repeats, through public functions
//! only, what the daemon's `execute_job` does for each of a workload's
//! leading jobs — stored-report lookup, memo-dump load and import, the
//! tuning run, export, dump and report persistence — with a span around
//! every call, plus the wire codec on the job's real messages.  After each
//! job a probe re-evaluates the job's result configuration stage by stage
//! (generate, expand, simulate, power) so each layer gets its own series,
//! and checks that the stages reproduce the report bit for bit.

use crate::mix::{self, Workload};
use crate::trace::{Span, Tracer};
use micrograd_codegen::{collect_trace, GeneratorInput, StreamingExpander, TraceSource};
use micrograd_core::{
    ExecutionPlatform, FrameworkConfig, FrameworkOutput, Metrics, MicroGrad, ProgressObserver,
    TunerKind, UseCaseConfig,
};
use micrograd_power::PowerModel;
use micrograd_service::{
    decode_request, decode_response, encode_line, platform_key, Request, RequestBody, Response,
    ResponseBody, ResultStore,
};
use micrograd_sim::Simulator;
use micrograd_workloads::{simpoint, ApplicationTraceGenerator, Benchmark};
use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one replay pass measured.
#[derive(Default)]
pub struct MirrorPass {
    /// Summed wall time of the replayed jobs (probes excluded).
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub batch_sizes: Vec<f64>,
    /// Entries and bytes of the largest memo dump written.
    pub dump_entries: usize,
    pub dump_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Replays the workload's leading jobs: warm-repeat's against its filled
/// store `warm`, the cold workloads' against a fresh store under the empty
/// directory `scratch`.  With `traced` false the same calls run without
/// spans or probes.
pub fn run(
    workload: Workload,
    seed: u64,
    traced: bool,
    warm: &Path,
    scratch: &Path,
    stored: &[FrameworkOutput],
) -> Result<MirrorPass, String> {
    let dir = if workload == Workload::WarmRepeat {
        warm.to_path_buf()
    } else {
        scratch.join("store")
    };
    let store = ResultStore::open(&dir).map_err(|e| format!("open replay store: {e}"))?;
    let origin = Instant::now();
    let tracer = Tracer::new(origin, traced, 1 << 48);
    let mut pass = MirrorPass::default();
    let mut seen = HashSet::new();
    for index in 0..workload.replay_jobs() {
        pass.attempted += 1;
        let started = Instant::now();
        let outcome = match workload {
            Workload::WarmRepeat => {
                let k = mix::warm_draw(seed, index);
                warm_job(
                    index as u64,
                    seed,
                    k,
                    seen.insert(k),
                    &store,
                    &tracer,
                    stored,
                )
                .map(|()| None)
            }
            _ => cold_job(
                index as u64,
                &workload.job(seed, index),
                &store,
                &tracer,
                &mut pass,
            )
            .map(Some),
        };
        pass.wall_s += started.elapsed().as_secs_f64();
        let checked = match outcome {
            Ok(Some(output)) if traced => {
                probe(index as u64, &workload.job(seed, index), &output, &tracer)
            }
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        };
        if let Err(why) = checked {
            pass.failed += 1;
            eprintln!("perfbench: replay job {index}: {why}");
        }
    }
    if workload == Workload::WarmRepeat && traced {
        // The set-up persisted these reports; replay those writes.
        let replica = ResultStore::open(scratch.join("replica")).map_err(|e| e.to_string())?;
        for (k, output) in stored.iter().enumerate() {
            let config = mix::warm_stored(seed, k);
            tracer
                .span("store.save_report", k as u64, None, |_| {
                    replica.save_report(&config, output)
                })
                .map_err(|e| format!("save_report: {e}"))?;
        }
    }
    if workload != Workload::WarmRepeat {
        pass.dump_bytes = largest_dump_bytes(&dir);
    }
    pass.spans = tracer.into_spans();
    Ok(pass)
}

/// Mirror of `execute_job` for a job the store has not seen.
fn cold_job(
    job: u64,
    config: &FrameworkConfig,
    store: &ResultStore,
    tracer: &Tracer,
    pass: &mut MirrorPass,
) -> Result<FrameworkOutput, String> {
    tracer.span("job", job, None, |root| {
        if tracer
            .span("store.load_report", job, root, |_| {
                store.load_report(config)
            })
            .is_some()
        {
            return Err("a cold job's report was already stored".into());
        }
        tracer.span("protocol.submit_codec", job, root, |_| submit_codec(config))?;

        let framework = MicroGrad::new(config.clone());
        let marks: Arc<Mutex<Vec<(u64, usize)>>> = Arc::default();
        let observer = {
            let marks = Arc::clone(&marks);
            let (enabled, origin) = (tracer.enabled(), tracer.origin());
            ProgressObserver::new(move |evaluations| {
                if enabled {
                    let at = u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    marks
                        .lock()
                        .expect("observer never panics")
                        .push((at, evaluations));
                }
            })
        };
        let platform = framework.platform().with_progress_observer(observer);
        let key = platform_key(config);
        let entries = tracer.span("store.load_cache", job, root, |_| store.load_cache(&key));
        tracer.span("core.import_cache", job, root, |_| {
            platform.import_cache(entries)
        });
        let (result, run_span) = tracer.span("core.run_on", job, root, |run| {
            let start = tracer.now_ns();
            let result = framework.run_on(&platform);
            (result, run.map(|id| (id, start, tracer.now_ns())))
        });
        if let Some((run, start, end)) = run_span {
            let marks = marks.lock().expect("observer never panics");
            for (i, &(at, size)) in marks.iter().enumerate() {
                let until = marks.get(i + 1).map_or(end, |next| next.0);
                tracer.record("core.epoch", job, Some(run), at.max(start), until);
                pass.batch_sizes.push(size as f64);
            }
        }
        let exported = tracer.span("core.export_cache", job, root, |_| platform.export_cache());
        pass.dump_entries = pass.dump_entries.max(exported.len());
        tracer
            .span("store.save_cache", job, root, |_| {
                store.save_cache(&key, exported)
            })
            .map_err(|e| format!("save_cache: {e}"))?;
        let stats = platform.cache_stats();
        pass.memo_hits += stats.hits;
        pass.memo_misses += stats.misses;
        let output = result.map_err(|e| format!("run: {e}"))?;
        tracer
            .span("store.save_report", job, root, |_| {
                store.save_report(config, &output)
            })
            .map_err(|e| format!("save_report: {e}"))?;
        tracer.span("protocol.report_codec", job, root, |_| {
            report_codec(job, &output)
        })?;
        Ok(output)
    })
}

/// Mirror of what the daemon does for a warm-repeat submission: the first
/// touch of a configuration reads its stored report, later touches are
/// answered from the daemon's job table (no store access).
fn warm_job(
    job: u64,
    seed: u64,
    k: usize,
    first_touch: bool,
    store: &ResultStore,
    tracer: &Tracer,
    stored: &[FrameworkOutput],
) -> Result<(), String> {
    let config = mix::warm_stored(seed, k);
    tracer.span("job", job, None, |root| {
        tracer.span("protocol.submit_codec", job, root, |_| {
            submit_codec(&config)
        })?;
        if first_touch {
            let found = tracer.span("store.load_report", job, root, |_| {
                store.load_report(&config)
            });
            if found.as_ref() != Some(&stored[k]) {
                return Err("stored report missing or different".into());
            }
        }
        tracer.span("protocol.report_codec", job, root, |_| {
            report_codec(job, &stored[k])
        })
    })
}

fn submit_codec(config: &FrameworkConfig) -> Result<(), String> {
    let request = Request::new(RequestBody::Submit {
        config: config.clone(),
        priority: 0,
        deadline_ms: None,
    });
    let line = encode_line(&request).map_err(|e| e.to_string())?;
    match decode_request(&line).map_err(|e| e.to_string())?.body {
        RequestBody::Submit { config: back, .. } if back == *config => Ok(()),
        _ => Err("submit request did not survive the codec".into()),
    }
}

fn report_codec(job: u64, output: &FrameworkOutput) -> Result<(), String> {
    let response = Response::new(ResponseBody::Report {
        job,
        output: output.clone(),
    });
    let line = encode_line(&response).map_err(|e| e.to_string())?;
    match decode_response(&line).map_err(|e| e.to_string())?.body {
        ResponseBody::Report { output: back, .. } if back == *output => Ok(()),
        _ => Err("report response did not survive the codec".into()),
    }
}

/// The generator inputs a report's result configurations resolve to, with
/// the metrics the report claims for each.
fn result_inputs(
    config: &FrameworkConfig,
    output: &FrameworkOutput,
) -> Result<Vec<(GeneratorInput, Metrics)>, String> {
    let space = config.knob_space.build();
    let resolve = |knobs, seed| space.resolve(knobs, seed).map_err(|e| e.to_string());
    Ok(match output {
        FrameworkOutput::Clone(r) => {
            vec![(
                resolve(&r.knob_config, config.seed)?,
                r.clone_metrics.clone(),
            )]
        }
        FrameworkOutput::SimpointClone(r) => r
            .phases
            .iter()
            .map(|p| {
                Ok((
                    resolve(&p.report.knob_config, p.seed)?,
                    p.report.clone_metrics.clone(),
                ))
            })
            .collect::<Result<_, String>>()?,
        FrameworkOutput::Stress(r) => {
            vec![(
                resolve(&r.best_config, config.seed)?,
                r.best_metrics.clone(),
            )]
        }
    })
}

/// Re-evaluates a job's result configurations stage by stage and checks
/// every stage against the report.
fn probe(
    job: u64,
    config: &FrameworkConfig,
    output: &FrameworkOutput,
    tracer: &Tracer,
) -> Result<(), String> {
    tracer.span("probe", job, None, |root| {
        let framework = MicroGrad::new(config.clone());
        let len = config.dynamic_len;
        for (input, claimed) in result_inputs(config, output)? {
            let fresh = framework.platform();
            let miss = tracer.span("core.evaluate_miss", job, root, |_| fresh.evaluate(&input));
            let hit = tracer.span("core.evaluate_hit", job, root, |_| fresh.evaluate(&input));
            let test_case = tracer
                .span("codegen.generate", job, root, |_| fresh.generate(&input))
                .map_err(|e| e.to_string())?;
            let expanded = tracer.span("codegen.expand", job, root, |_| {
                let mut source = StreamingExpander::new(&test_case, len, config.seed);
                let mut n = 0usize;
                while let Some(instr) = source.next_dynamic() {
                    std::hint::black_box(instr);
                    n += 1;
                }
                n
            });
            let trace = tracer.span("codegen.materialize", job, root, |_| {
                collect_trace(&mut StreamingExpander::new(&test_case, len, config.seed))
            });
            let mut sim = Simulator::new(fresh.core().clone());
            let simulated = tracer.span("sim.run", job, root, |_| sim.run(&trace));
            let fused = tracer.span("sim.fused", job, root, |_| {
                sim.run_source(&mut StreamingExpander::new(&test_case, len, config.seed))
            });
            let power = tracer.span("power.estimate", job, root, |_| {
                PowerModel::new(fresh.power().clone()).estimate(&fused)
            });
            let staged = Metrics::from_run(&fused, Some(&power));
            // Brute force resolves its grid with a fixed seed of its own,
            // so its best configuration cannot be re-resolved from the
            // report; its stages are still checked against each other.
            let reproduces = config.tuner == TunerKind::BruteForce || staged == claimed;
            let agree = miss.as_ref().ok() == Some(&staged)
                && hit.as_ref().ok() == Some(&staged)
                && reproduces
                && simulated == fused
                && expanded == len;
            if !agree {
                return Err("stage-by-stage evaluation differs from the report".into());
            }
        }
        let name = match &config.use_case {
            UseCaseConfig::CloneBenchmark { benchmark, .. }
            | UseCaseConfig::CloneSimpoints { benchmark, .. } => benchmark,
            _ => return Ok(()),
        };
        let benchmark: Benchmark = name.parse().map_err(|_| format!("unknown {name}"))?;
        match (&config.use_case, output) {
            (UseCaseConfig::CloneBenchmark { .. }, FrameworkOutput::Clone(report)) => {
                let target = tracer.span("workloads.characterize", job, root, |_| {
                    framework.characterize_benchmark_on(&framework.platform(), name)
                });
                if target.ok().as_ref() != Some(&report.target) {
                    return Err("re-characterized target differs from the report".into());
                }
            }
            (
                UseCaseConfig::CloneSimpoints {
                    interval_len,
                    max_phases,
                    ..
                },
                FrameworkOutput::SimpointClone(report),
            ) => {
                let generator = ApplicationTraceGenerator::new(config.reference_len, config.seed);
                let analysis = tracer.span("workloads.simpoint_analyze", job, root, |_| {
                    simpoint::analyze_source(
                        &mut generator.stream(&benchmark.profile()),
                        *interval_len,
                        *max_phases,
                        config.seed,
                    )
                });
                if analysis.map(|a| a.simpoints.len()) != Some(report.phases.len()) {
                    return Err("re-analyzed simpoints differ from the report".into());
                }
            }
            _ => return Err("wrong report kind".into()),
        }
        Ok(())
    })
}

fn largest_dump_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("cache-"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}
