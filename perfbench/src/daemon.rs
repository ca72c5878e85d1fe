//! The live-daemon side of a run: set-up probes, the closed-loop timed
//! window against an in-process `micrograd_service::Server`, and teardown.

use crate::mix::{self, Workload};
use crate::trace::{Span, Tracer};
use micrograd_core::{FrameworkConfig, FrameworkOutput, UseCaseConfig};
use micrograd_service::{
    Client, FetchResult, JobState, ResultStore, Scheduler, SchedulerConfig, Server, ServerConfig,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Server starts timed per run, at least this many and for at least
/// [`SETUP_BUDGET`]; the median is `setup_s`.  A daemon over an empty
/// store starts in well under a millisecond, and the first starts of a
/// run were slower than later ones, so the median of 15 spread by a third
/// across runs.
const SETUP_PROBES: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Server-side budget for one `watch`; a job still running after it
/// counts as failed.
const WATCH_BUDGET_MS: u64 = 60_000;

/// No window runs past this, so a run always ends well within its limit.
const WINDOW_CAP: Duration = Duration::from_secs(120);

/// What one finished job left for the checks after the window.
pub struct JobOutcome {
    pub index: usize,
    pub config: FrameworkConfig,
    pub output: Option<FrameworkOutput>,
}

/// Everything the daemon side of a run measured.
#[derive(Default)]
pub struct DaemonPass {
    pub setup_s: Vec<f64>,
    /// `(index, end, latency)` of every answered job: end in seconds
    /// since the window opened, latency in milliseconds.
    pub jobs: Vec<(usize, f64, f64)>,
    /// Seconds from the window's opening to its last answer.
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub store_hits: u64,
    pub dedups: u64,
    pub status_rtt_us: Vec<f64>,
    /// Outcomes of clone-cold and stress-sweep jobs (warm-repeat answers
    /// are checked as they arrive and not kept).
    pub outcomes: Vec<JobOutcome>,
    /// The daemon's `metrics` text at the end of a traced window.
    pub metrics_text: String,
    pub shutdown_ms: f64,
    pub spans: Vec<Span>,
}

/// Fills `dir` with the warm-repeat reports through an in-process
/// scheduler (the daemon's own execute-and-persist path) and returns the
/// stored reports by configuration index.
pub fn fill_warm_store(seed: u64, dir: &Path) -> Result<Vec<FrameworkOutput>, String> {
    let store = ResultStore::open(dir).map_err(|e| format!("open warm store: {e}"))?;
    let scheduler = Scheduler::new(
        SchedulerConfig {
            workers: 2,
            ..SchedulerConfig::default()
        },
        store,
    );
    let mut outputs = Vec::with_capacity(mix::WARM_STORED);
    let indices: Vec<usize> = (0..mix::WARM_STORED).collect();
    for chunk in indices.chunks(32) {
        let mut jobs = Vec::with_capacity(chunk.len());
        for &k in chunk {
            let outcome = scheduler
                .submit(mix::warm_stored(seed, k), 0)
                .map_err(|e| format!("fill submit {k}: {e:?}"))?;
            jobs.push(outcome.job);
        }
        for job in jobs {
            match scheduler.wait(job, Duration::from_secs(60)) {
                Some(JobState::Done) => {}
                other => return Err(format!("fill job {job} ended as {other:?}")),
            }
            match scheduler.fetch(job) {
                FetchResult::Ready(output) => outputs.push(output),
                other => return Err(format!("fill fetch {job}: {other:?}")),
            }
        }
    }
    scheduler.shutdown();
    Ok(outputs)
}

/// Starts a daemon over `dir` and times it until its first answer.
fn start_timed(dir: &Path) -> Result<(Server, Client, f64), String> {
    let started = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        // One closed-loop client keeps at most one job in flight.
        workers: 1,
        store_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client.stats().map_err(|e| format!("first request: {e}"))?;
    Ok((server, client, started.elapsed().as_secs_f64()))
}

/// Stops a daemon by the `shutdown` request, which returns at once; the
/// in-process `Server::shutdown` alone can wait out the reactor's drain
/// timeout (see `README.md`).
fn stop_quickly(server: Server, mut client: Client) -> Result<(), String> {
    client
        .shutdown()
        .map_err(|e| format!("shutdown request: {e}"))?;
    drop(client);
    server.shutdown();
    Ok(())
}

/// Runs set-up probes and one closed-loop window over a daemon whose store
/// is `dir`.  `stored` holds warm-repeat's reports, which every answer
/// must equal.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    dir: &Path,
    stored: &[FrameworkOutput],
) -> Result<DaemonPass, String> {
    let mut pass = DaemonPass::default();
    let probing = Instant::now();
    while pass.setup_s.len() + 1 < SETUP_PROBES || probing.elapsed() < SETUP_BUDGET {
        let (server, client, setup) = start_timed(dir)?;
        pass.setup_s.push(setup);
        stop_quickly(server, client)?;
    }
    let (server, mut client, setup) = start_timed(dir)?;
    pass.setup_s.push(setup);

    // One closed-loop client.  The process runs on one CPU, where a second
    // client's requests only queued behind the first's: warm-repeat's p50
    // doubled at the same throughput.
    let origin = Instant::now();
    let window = Duration::from_secs(seconds);
    let tracer = Tracer::new(origin, traced, 0);
    for index in 0.. {
        let elapsed = origin.elapsed();
        // A cold window ends on a whole group, so every group does the
        // same work.
        let group_done = match workload.grouping() {
            mix::Grouping::Jobs(size) => index % size == 0,
            mix::Grouping::Seconds => true,
        };
        if (elapsed >= window && index >= workload.min_jobs() && group_done)
            || elapsed >= WINDOW_CAP
        {
            break;
        }
        one_job(
            workload,
            seed,
            index,
            &mut client,
            &tracer,
            stored,
            &mut pass,
        );
    }
    pass.spans = tracer.into_spans();
    pass.window_s = pass.jobs.iter().map(|&(_, end, _)| end).fold(0.0, f64::max);

    if traced {
        pass.metrics_text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        // Teardown as an embedding program sees it: clients gone, then
        // `Server::shutdown`.  Outside every timed window.
        drop(client);
        let stopping = Instant::now();
        server.shutdown();
        pass.shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;
    } else {
        stop_quickly(server, client)?;
    }
    Ok(pass)
}

impl DaemonPass {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: failure: {why}");
        }
    }
}

/// One closed-loop job: submit → watch until terminal → fetch, timed on
/// the client, then checked.
fn one_job(
    workload: Workload,
    seed: u64,
    index: usize,
    client: &mut Client,
    tracer: &Tracer,
    stored: &[FrameworkOutput],
    log: &mut DaemonPass,
) {
    let config = workload.job(seed, index);
    let job = index as u64;
    log.attempted += 1;
    let started = Instant::now();
    let answer = tracer.span("service.job", job, None, |root| {
        let receipt = tracer
            .span("service.submit", job, root, |_| client.submit(&config, 0))
            .map_err(|e| format!("submit: {e}"))?;
        if tracer.enabled() {
            let asked = Instant::now();
            tracer
                .span("service.status", job, root, |_| client.status(receipt.job))
                .map_err(|e| format!("status: {e}"))?;
            log.status_rtt_us.push(asked.elapsed().as_secs_f64() * 1e6);
        }
        let state = tracer
            .span("service.watch", job, root, |_| {
                client.watch(receipt.job, Some(WATCH_BUDGET_MS))
            })
            .map_err(|e| format!("watch: {e}"))?;
        if state != JobState::Done {
            return Err(format!("job ended as {state:?}"));
        }
        let output = tracer
            .span("service.fetch", job, root, |_| client.fetch(receipt.job))
            .map_err(|e| format!("fetch: {e}"))?;
        Ok((receipt, output))
    });
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;

    let (receipt, output) = match answer {
        Ok(answer) => answer,
        Err(why) => {
            log.fail(format!("{} job {index}: {why}", workload.name()));
            if workload != Workload::WarmRepeat {
                log.outcomes.push(JobOutcome {
                    index,
                    config,
                    output: None,
                });
            }
            return;
        }
    };
    log.jobs
        .push((index, tracer.origin().elapsed().as_secs_f64(), latency_ms));
    log.store_hits += u64::from(receipt.cached);
    log.dedups += u64::from(receipt.deduped);
    let verdict = match workload {
        Workload::WarmRepeat => {
            if output == stored[mix::warm_draw(seed, index)] {
                Ok(())
            } else {
                Err("answer differs from the report stored during set-up".to_owned())
            }
        }
        _ if receipt.cached || receipt.deduped => {
            Err("a cold job was answered without executing".to_owned())
        }
        _ => check_kind(&config, &output),
    };
    if let Err(why) = verdict {
        log.fail(format!("{} job {index}: {why}", workload.name()));
    }
    if workload != Workload::WarmRepeat {
        log.outcomes.push(JobOutcome {
            index,
            config,
            output: Some(output),
        });
    }
}

/// The report's kind must match the use case, with a sane accuracy and a
/// non-zero evaluation count.
fn check_kind(config: &FrameworkConfig, output: &FrameworkOutput) -> Result<(), String> {
    let (accuracy, evaluations) = match (&config.use_case, output) {
        (UseCaseConfig::CloneBenchmark { .. }, FrameworkOutput::Clone(r)) => {
            (r.mean_accuracy, r.evaluations)
        }
        (UseCaseConfig::CloneSimpoints { .. }, FrameworkOutput::SimpointClone(r)) => {
            (r.mean_accuracy, r.evaluations)
        }
        (UseCaseConfig::Stress { .. }, FrameworkOutput::Stress(r)) => (1.0, r.evaluations),
        (use_case, _) => return Err(format!("wrong report kind for {}", use_case.kind_name())),
    };
    if !(accuracy > 0.0 && accuracy <= 1.0) || evaluations == 0 {
        return Err(format!(
            "implausible report: accuracy {accuracy}, {evaluations} evaluations"
        ));
    }
    Ok(())
}
