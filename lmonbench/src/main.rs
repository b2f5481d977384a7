//! `lmonbench` — the repository's benchmark of `lmond` and the LaunchMON
//! stack (run it through `lmonbench/run.py`, which builds `lmond` and this
//! package first):
//!
//! ```text
//! lmonbench --lmond PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against the real `lmond`
//! binary (or, for `stat_startup`, a worker process). `--trace 1` runs the
//! same workload untraced for half the time, then replays the identical op
//! sequence against a traced in-process server and prints per-layer self
//! times. The last stdout line is a JSON object; everything above it is the
//! human-readable report. `lmonbench/WORKLOADS.md` documents the workloads
//! and which layer metric should move which end-to-end metric.

mod drive;
mod stats;
mod target;
mod worker;
mod workload;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use lmon_model::predict::{attach_breakdown, launch_breakdown};
use lmon_model::CostParams;
use lmon_tools::stat::trace::expected_class_count;

use drive::{check_counters, drive, runjob, Plan, Tally, Watch};
use stats::Samples;
use target::{await_pong, socket_path, ProcSample, Target};
use workload::{Workload, STAT_NODES, STAT_TASKS_PER_NODE};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_TRIALS: usize = 15;
/// How long a server may take to answer its first `PING`.
const START_LIMIT: Duration = Duration::from_secs(30);
/// `ready_p99_ms` is reported only from this many completed ops on.
const P99_MIN_OPS: usize = 1000;
/// Where sockets go, relative to the checkout root.
const RUN_DIR: &str = ".lmonbench";

/// The end-to-end metrics the JSON line carries with `--trace 0`: the ones
/// every workload has and that are never 0.
const E2E_JSON: [&str; 5] =
    ["setup_s", "ready_p50_ms", "cycle_p50_ms", "teardown_p50_ms", "ops_per_s"];

/// The per-layer metrics the JSON line carries with `--trace 1` (0 where a
/// layer does no work on the workload).
const LAYER_JSON: [&str; 40] = [
    "daemon.connect_ms",
    "daemon.parse_us",
    "daemon.socket_ms",
    "daemon.dispatch.launch_ms",
    "daemon.dispatch.attach_ms",
    "daemon.dispatch.status_ms",
    "admission.wait_ms_p50",
    "admission.wait_ms_p99",
    "admission.peak_waiting",
    "admission.rejected",
    "daemon.render_metrics_ms",
    "daemon.metrics_lines",
    "engine.job_ms",
    "engine.rpdtab_ms",
    "core.other_ms",
    "proto.be_peak_sessions",
    "rm.spawn_ms",
    "core.handshake_ms",
    "iccl.setup_ms",
    "core.kill_ms",
    "core.detach_ms",
    "cluster.proc_entries",
    "cluster.live_procs",
    "tbon.connect_ms",
    "tbon.wave_ms",
    "tools.classes",
    "tbon.rsh_connects",
    "lmond.rss_mb",
    "lmond.threads",
    "lmond.fds",
    "lmond.maps",
    "unattributed_frac",
    "trace.overhead_frac",
    "ready_p99_ms",
    "scrape_p50_ms",
    "failed_frac",
    "rss_kb_per_session",
    "threads_per_session",
    "fds_per_session",
    "open_loop.late_p50_ms",
];

struct Args {
    lmond: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut lmond = None;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--lmond" => lmond = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or_else(|| format!("no workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        lmond: lmond.ok_or("--lmond is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s >= 1).ok_or("--seconds >= 1 is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_worker(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| args.get(i).map(String::as_str).ok_or("worker: missing argument");
    let num = |i: usize| -> Result<u64, String> {
        arg(i)?.parse().map_err(|_| format!("worker: bad number {:?}", args.get(i)))
    };
    match arg(0)? {
        "serve" => worker::serve(Path::new(arg(1)?), num(2)? as usize),
        "stat" => {
            let max_ops = if arg(2)? == "-" { None } else { Some(num(2)?) };
            worker::stat(Duration::from_millis(num(1)?), max_ops, num(3)? as usize, num(4)? == 1)
        }
        "ledger" => worker::ledger(),
        other => Err(format!("unknown worker mode {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => run_worker(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lmonbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
    value: Option<f64>,
    unit: &'static str,
    n: usize,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, Metric)>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    fn put(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        n: usize,
        note: impl Into<String>,
    ) {
        let value = value.filter(|v| v.is_finite());
        self.metrics.push((name, Metric { value, unit, n, note: note.into() }));
    }

    fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn print(&self, json_keys: &[&str]) {
        for (name, m) in &self.metrics {
            match m.value {
                Some(v) => println!("  {name:<26} {v:>14.4} {:<6} n={} {}", m.unit, m.n, m.note),
                None => println!("  {name:<26} {:>14} {:<6} n={} {}", "n/a", m.unit, m.n, m.note),
            }
        }
        for line in &self.notes {
            println!("  {line}");
        }
        let metrics: Vec<String> = json_keys
            .iter()
            .map(|k| {
                let m = self.metrics.iter().find(|(name, _)| name == k).map(|(_, m)| m);
                let v = m.and_then(|m| m.value).unwrap_or(0.0);
                let unit = m.map_or("", |m| m.unit);
                format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// What one measured phase saw, whichever process served it.
struct Phase {
    tally: Tally,
    elapsed: Duration,
    samples: Vec<(u64, ProcSample)>,
    /// The served process's exit, if it exited before the benchmark stopped it.
    exit: Option<String>,
    /// End-of-run counter check (`None`: server gone, nothing to scrape).
    counters: Option<Result<(), String>>,
    /// `span <key> <value>` lines the traced server or STAT worker printed.
    spans: BTreeMap<String, f64>,
    setup_s: Option<f64>,
}

fn parse_spans(text: &str, spans: &mut BTreeMap<String, f64>) {
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() == Some("span") {
            if let (Some(k), Some(Ok(v))) = (parts.next(), parts.next().map(str::parse::<f64>)) {
                spans.insert(k.to_string(), v);
            }
        }
    }
}

fn lmond_cmd(a: &Args, socket: &Path) -> Command {
    let mut cmd = Command::new(&a.lmond);
    cmd.arg("serve")
        .arg("--socket")
        .arg(socket)
        .args(a.workload.serve_flags())
        .stdout(Stdio::null());
    cmd
}

fn traced_server_cmd(a: &Args, socket: &Path) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", "serve"])
        .arg(socket)
        .arg(a.workload.admission_limit().to_string())
        .stdout(Stdio::piped());
    Ok(cmd)
}

/// Start a server (`trials` times, keeping the last) and time spawn → first
/// `PONG`, plus `RUNJOB` on `attach_cycle`.
fn start_server(
    a: &Args,
    socket: &Path,
    make: &dyn Fn() -> Result<Command, String>,
    trials: usize,
) -> Result<(Target, Option<u64>, Samples), String> {
    let mut times = Samples::default();
    loop {
        let _ = std::fs::remove_file(socket);
        let start = Instant::now();
        let mut target = Target::spawn(&mut make()?).map_err(|e| format!("spawn server: {e}"))?;
        await_pong(&mut target, socket, START_LIMIT)?;
        let pid = match a.workload {
            Workload::AttachCycle => Some(runjob(socket)?),
            _ => None,
        };
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= trials {
            return Ok((target, pid, times));
        }
        target.stop(socket);
    }
}

/// Drive a started server through `plan`, check its counters, stop it.
fn serve_phase(plan: &Plan, socket: &Path, mut target: Target) -> Phase {
    let stdout = target.take_stdout();
    let start = Instant::now();
    let (tally, samples) = {
        let watch = Watch::new(&mut target);
        let tally = drive(plan, socket, &watch);
        (tally, watch.samples.into_inner().expect("sampler lock poisoned"))
    };
    let elapsed = start.elapsed();
    let exit = target.exited();
    let counters = if exit.is_none() { check_counters(socket, &tally) } else { None };
    target.stop(socket);
    let _ = std::fs::remove_file(socket);
    let mut spans = BTreeMap::new();
    if let Some(mut out) = stdout {
        let mut text = String::new();
        let _ = out.read_to_string(&mut text);
        parse_spans(&text, &mut spans);
    }
    Phase { tally, elapsed, samples, exit, counters, spans, setup_s: None }
}

/// Run the STAT loop in a worker process, reading its op lines as they
/// come (so ops finished before a crash are kept) and sampling its `/proc`.
fn stat_phase(
    window: Duration,
    max_ops: Option<u64>,
    trials: usize,
    traced: bool,
) -> Result<Phase, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["worker", "stat"])
        .arg(window.as_millis().to_string())
        .arg(max_ops.map_or("-".to_string(), |m| m.to_string()))
        .arg(trials.to_string())
        .arg(if traced { "1" } else { "0" })
        .stdout(Stdio::piped());
    let mut target = Target::spawn(&mut cmd).map_err(|e| format!("spawn stat worker: {e}"))?;
    let out = BufReader::new(target.take_stdout().expect("stat worker stdout is piped"));
    let mut lines = out.lines();
    let setup_s = match lines.next() {
        Some(Ok(l)) if l.starts_with("setup ") => l[6..].parse().ok(),
        other => return Err(format!("stat worker set-up failed: {other:?}")),
    };
    let mut t = Tally::default();
    let mut spans = BTreeMap::new();
    let mut finished = false;
    let start = Instant::now();
    let samples = {
        let watch = Watch::new(&mut target);
        for line in lines.map_while(Result::ok) {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.first().copied() {
                Some("op") => {
                    t.attempted += 1;
                    let v: Vec<f64> = f[1..].iter().filter_map(|x| x.parse().ok()).collect();
                    let want = expected_class_count((STAT_NODES * STAT_TASKS_PER_NODE) as u32);
                    match v[..] {
                        [ready, cycle, teardown, classes, rsh] => {
                            t.busy_ms += cycle;
                            if classes as usize == want && rsh == 0.0 {
                                t.ready.push(ready);
                                t.cycle.push(cycle);
                                t.teardown.push(teardown);
                            } else {
                                t.failed += 1;
                                t.bad_checks += 1;
                                t.reasons.push(format!(
                                    "STAT: {classes} classes (want {want}), {rsh} rsh"
                                ));
                            }
                        }
                        _ => {
                            t.failed += 1;
                            t.reasons.push(format!("malformed worker line {line:?}"));
                        }
                    }
                    watch.op_done();
                }
                Some("fail") => {
                    t.attempted += 1;
                    t.failed += 1;
                    if t.reasons.len() < 4 {
                        t.reasons.push(line.clone());
                    }
                    watch.op_done();
                }
                Some("span") => parse_spans(&line, &mut spans),
                Some("end") => {
                    finished = true;
                    break;
                }
                _ => {}
            }
        }
        watch.finish();
        watch.samples.into_inner().expect("sampler lock poisoned")
    };
    let elapsed = start.elapsed();
    target.finish();
    let exit = if finished { None } else { target.exited() };
    if !finished {
        // The worker died mid-op: that op is unfinished, hence failed.
        t.attempted += 1;
        t.failed += 1;
    }
    Ok(Phase { tally: t, elapsed, samples, exit, counters: None, spans, setup_s })
}

fn run(a: &Args) -> Result<(), String> {
    let run_dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    println!(
        "lmonbench workload={} seed={} seconds={} trace={} ({})",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.workload.describe()
    );
    if a.workload.uses_lmond() {
        println!("  lmond serve {}", a.workload.serve_flags().join(" "));
    }
    println!("  host: {} cpus", std::thread::available_parallelism().map_or(0, |n| n.get()));
    let window = Duration::from_secs(a.seconds);
    let socket = socket_path(&run_dir, a.workload.name());
    let mut report = Report { correct: true, ..Report::default() };

    if !a.trace {
        let phase = if a.workload.uses_lmond() {
            let (target, attach_pid, setup) =
                start_server(a, &socket, &|| Ok(lmond_cmd(a, &socket)), SETUP_TRIALS)?;
            let plan =
                Plan { workload: a.workload, seed: a.seed, window, max_ops: None, attach_pid };
            let mut phase = serve_phase(&plan, &socket, target);
            phase.setup_s = Some(setup.median());
            phase
        } else {
            stat_phase(window, None, SETUP_TRIALS, false)?
        };
        report.put("setup_s", phase.setup_s, "s", SETUP_TRIALS, "(median of set-up trials)");
        common(&mut report, &phase, window, a.workload);
        if a.workload == Workload::StatStartup {
            defect_ledger(&mut report);
        }
        report.print(&E2E_JSON);
    } else {
        let half = window / 2;
        let (untraced, traced) = if a.workload.uses_lmond() {
            let (target, attach_pid, _) =
                start_server(a, &socket, &|| Ok(lmond_cmd(a, &socket)), 1)?;
            let plan = Plan {
                workload: a.workload,
                seed: a.seed,
                window: half,
                max_ops: None,
                attach_pid,
            };
            let untraced = serve_phase(&plan, &socket, target);
            let (target, attach_pid, _) =
                start_server(a, &socket, &|| traced_server_cmd(a, &socket), 1)?;
            let replay =
                Plan { window, max_ops: Some(untraced.tally.attempted), attach_pid, ..plan };
            (untraced, serve_phase(&replay, &socket, target))
        } else {
            let untraced = stat_phase(half, None, 1, false)?;
            let traced = stat_phase(window, Some(untraced.tally.attempted), 1, true)?;
            (untraced, traced)
        };
        per_layer(&mut report, &untraced, &traced, a.workload);
        report.print(&LAYER_JSON);
    }
    let _ = std::fs::remove_dir(&run_dir); // only if empty
    Ok(())
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Process growth from the first to the last sample, per completed op.
fn growth(phase: &Phase) -> Option<(f64, f64, f64)> {
    let (first, last) = (phase.samples.first()?.1, phase.samples.last()?.1);
    let done = phase.tally.cycle.len().max(1) as f64;
    let per = |a: u64, b: u64| (b as f64 - a as f64) / done;
    Some((
        per(first.rss_kb, last.rss_kb),
        per(first.threads, last.threads),
        per(first.fds, last.fds),
    ))
}

/// The end-to-end metrics shared by both run kinds (all 11 on `--trace 0`).
fn common(report: &mut Report, phase: &Phase, window: Duration, w: Workload) {
    let t = &phase.tally;
    let done = t.cycle.len();
    report.attempted += t.attempted;
    report.failed += t.failed;
    if t.bad_checks > 0 || matches!(phase.counters, Some(Err(_))) {
        report.correct = false;
    }
    report.put(
        "ready_p50_ms",
        Some(t.ready.median()).filter(|_| done > 0),
        "ms",
        t.ready.len(),
        "",
    );
    let p99 = (t.ready.len() >= P99_MIN_OPS).then(|| t.ready.quantile(0.99));
    let p99_note = if p99.is_none() {
        format!("(needs >= {P99_MIN_OPS} completed ops)")
    } else {
        String::new()
    };
    report.put("ready_p99_ms", p99, "ms", t.ready.len(), p99_note);
    report.put("cycle_p50_ms", Some(t.cycle.median()).filter(|_| done > 0), "ms", done, "");
    report.put(
        "teardown_p50_ms",
        Some(t.teardown.median()).filter(|_| done > 0),
        "ms",
        t.teardown.len(),
        "",
    );
    let secs = phase.elapsed.max(window).as_secs_f64();
    report.put("ops_per_s", Some(done as f64 / secs), "1/s", done, format!("over {secs:.3} s"));
    let scrape = (w == Workload::AttachCycle && !t.scrape.is_empty()).then(|| t.scrape.median());
    report.put(
        "scrape_p50_ms",
        scrape,
        "ms",
        t.scrape.len(),
        if scrape.is_none() { "(attach_cycle only)" } else { "" },
    );
    report.put(
        "failed_frac",
        Some(t.failed as f64 / t.attempted.max(1) as f64),
        "ratio",
        t.attempted as usize,
        format!("{} failed of {} attempted", t.failed, t.attempted),
    );
    let g = growth(phase);
    report.put("rss_kb_per_session", g.map(|g| g.0), "KiB", done, "");
    report.put("threads_per_session", g.map(|g| g.1), "count", done, "");
    report.put("fds_per_session", g.map(|g| g.2), "count", done, "");
    let late = (!t.late.is_empty()).then(|| t.late.median());
    let late_note = if late.is_some() {
        format!("max {:.3} ms", t.late.max())
    } else {
        "(open loop only)".into()
    };
    report.put("open_loop.late_p50_ms", late, "ms", t.late.len(), late_note);
    let who = if w.uses_lmond() { "lmond" } else { "stat worker" };
    match &phase.exit {
        Some(exit) => {
            report.note(format!("{who} EXITED during the run ({exit}) after {} ops", t.attempted))
        }
        None => report.note(format!("{who} ran to the end of the run")),
    }
    match &phase.counters {
        Some(Ok(())) => report.note(
            "check: lmond_launches_total and lmond_launch_failures_total match the bench's counts",
        ),
        Some(Err(e)) => report.note(format!("CHECK FAILED: {e}")),
        None if w.uses_lmond() => report.note("check: counters not scraped (server gone)"),
        None => {}
    }
    if !t.reasons.is_empty() {
        report.note(format!("failures: {}", t.reasons.join(" | ")));
    }
    let trail: Vec<String> = phase
        .samples
        .iter()
        .map(|(op, s)| {
            format!("{op}:{}MiB/{}thr/{}fd/{}maps", s.rss_kb / 1024, s.threads, s.fds, s.maps)
        })
        .collect();
    if let (Some(first), Some(last)) = (trail.first(), trail.last()) {
        report
            .note(format!("{who} /proc at op counts: {first} .. {last} ({} samples)", trail.len()));
    }
}

fn per_layer(report: &mut Report, untraced: &Phase, traced: &Phase, w: Workload) {
    common(report, untraced, Duration::ZERO, w);
    let s = |k: &str| traced.spans.get(k).copied().unwrap_or(0.0);
    let per = |sum: f64, n: f64| if n > 0.0 { sum / n } else { 0.0 };
    let t = &traced.tally;
    let fe_n = s("fe.n");
    let fe_mean = |k: &str| per(s(k), fe_n);
    let requests = s("requests");
    let verb = |v: &str| (s(&format!("verb.{v}.self_ms")), s(&format!("verb.{v}.n")));
    let (launch, attach, status) = (verb("launch"), verb("attach"), verb("status"));
    let (kill, render) = (verb("kill"), verb("metrics"));
    // STAT's teardown (overlay shutdown + `LmonFrontEnd::detach`) is timed
    // client-side; lmond's DETACH is a dispatch span.
    let detach =
        if w.uses_lmond() { verb("detach") } else { (t.teardown.sum(), t.teardown.len() as f64) };

    // Self-time totals over the traced phase (ms), by layer group.
    let parse = s("parse_us") / 1e3;
    let socket = if w.uses_lmond() { t.rtt.sum() - parse - s("dispatch_ms") } else { 0.0 };
    let daemon = t.connect.sum() + socket + parse + launch.0 + attach.0 + status.0 + render.0;
    let admission = s("admission.wait_ms_sum");
    let core = s("fe.total_ms") + kill.0 + detach.0;
    let tbon = s("tbon.connect_ms") + s("tbon.wave_ms");
    let late = t.late.sum();
    let busy = t.busy_ms;
    let stat_n = if w.uses_lmond() { 0.0 } else { fe_n };
    let last = untraced.samples.last().map(|s| s.1).unwrap_or_default();
    let n_samples = untraced.samples.len();
    let overhead = t.cycle.median() / untraced.tally.cycle.median() - 1.0;

    #[rustfmt::skip]
    let rows: [(&'static str, f64, &'static str, f64, &str); 36] = [
        ("daemon.connect_ms", t.connect.mean(), "ms", t.connect.len() as f64, "connect + HELLO"),
        ("daemon.parse_us", per(s("parse_us"), requests), "us", requests, "Request::parse"),
        ("daemon.socket_ms", per(socket, requests), "ms", requests, "round trip - parse - dispatch"),
        ("daemon.dispatch.launch_ms", per(launch.0, launch.1), "ms", launch.1, "dispatch self (LAUNCH)"),
        ("daemon.dispatch.attach_ms", per(attach.0, attach.1), "ms", attach.1, "dispatch self (ATTACH)"),
        ("daemon.dispatch.status_ms", per(status.0, status.1), "ms", status.1, "dispatch (STATUS)"),
        ("admission.wait_ms_p50", s("admission.wait_ms_p50"), "ms", fe_n - stat_n, "dispatch start -> e0"),
        ("admission.wait_ms_p99", s("admission.wait_ms_p99"), "ms", fe_n - stat_n, ""),
        ("admission.peak_waiting", s("admission.peak_waiting"), "count", 1.0, ""),
        ("admission.rejected", s("admission.rejected"), "count", 1.0, ""),
        ("daemon.render_metrics_ms", per(render.0, render.1), "ms", render.1, "dispatch (METRICS)"),
        ("daemon.metrics_lines", t.metrics_lines.mean(), "count", t.metrics_lines.len() as f64, ""),
        ("engine.job_ms", fe_mean("engine.job_ms"), "ms", fe_n, "e2->e3"),
        ("engine.rpdtab_ms", fe_mean("engine.rpdtab_ms"), "ms", fe_n, "e3->e4 (Region B)"),
        ("core.other_ms", fe_mean("core.other_ms"), "ms", fe_n, "LaunchBreakdown::other"),
        ("proto.be_peak_sessions", s("proto.be_peak_sessions"), "count", 1.0, ""),
        ("rm.spawn_ms", fe_mean("rm.spawn_ms"), "ms", fe_n, "e5->e6 (Region A)"),
        ("core.handshake_ms", fe_mean("core.handshake_ms"), "ms", fe_n, "e7->e10 minus e8->e9 (Region C)"),
        ("iccl.setup_ms", fe_mean("iccl.setup_ms"), "ms", fe_n, "e8->e9"),
        ("core.kill_ms", per(kill.0, kill.1), "ms", kill.1, "dispatch (KILL)"),
        ("core.detach_ms", per(detach.0, detach.1), "ms", detach.1, "dispatch (DETACH); STAT: its teardown"),
        ("cluster.proc_entries", s("cluster.proc_entries"), "count", 1.0, "sum of Node::pids at run end"),
        ("cluster.live_procs", s("cluster.live_procs"), "count", 1.0, "sum of Node::live_count at run end"),
        ("tbon.connect_ms", per(s("tbon.connect_ms"), stat_n), "ms", stat_n, "connect_time - attach e0->e11"),
        ("tbon.wave_ms", per(s("tbon.wave_ms"), stat_n), "ms", stat_n, "total_time - connect_time"),
        ("tools.classes", s("tools.classes"), "count", stat_n, "mean; checked = 3 per op"),
        ("tbon.rsh_connects", s("tbon.rsh_connects"), "count", stat_n, "sum; checked = 0 per op"),
        ("lmond.rss_mb", last.rss_kb as f64 / 1024.0, "MiB", n_samples as f64, "last /proc sample"),
        ("lmond.threads", last.threads as f64, "count", n_samples as f64, ""),
        ("lmond.fds", last.fds as f64, "count", n_samples as f64, ""),
        ("lmond.maps", last.maps as f64, "count", n_samples as f64, ""),
        ("unattributed_frac", per(busy - daemon - admission - core - tbon - late, busy), "ratio", t.attempted as f64, "op time in no layer (open-loop lateness excluded)"),
        ("trace.overhead_frac", overhead, "ratio", t.cycle.len() as f64, "traced vs untraced cycle_p50_ms"),
        ("share.daemon", per(daemon, busy), "ratio", 1.0, "lmon-daemon self time / op time"),
        ("share.core", per(core + admission, busy), "ratio", 1.0, "core/rm/cluster/iccl/proto + admission"),
        ("share.tbon", per(tbon, busy), "ratio", 1.0, "lmon-tbon + lmon-tools"),
    ];
    for (name, value, unit, n, note) in rows {
        report.put(name, Some(value), unit, n as usize, note);
    }
    report.attempted += t.attempted;
    report.failed += t.failed;
    if t.bad_checks > 0 || matches!(traced.counters, Some(Err(_))) {
        report.correct = false;
    }
    if let Some(exit) = &traced.exit {
        report.note(format!("traced server EXITED during the replay ({exit})"));
    }
    model_line(report, &s, w);
}

/// Print the §4 model's Region A/B/C shares for the workload's shape next
/// to the traced run's measured shares (informational, no bound).
fn model_line(report: &mut Report, spans: &dyn Fn(&str) -> f64, w: Workload) {
    let p = CostParams::default();
    let (label, model) = match w {
        Workload::LaunchWide => ("launch_breakdown(16, 16)", launch_breakdown(&p, 16, 16)),
        Workload::AttachCycle => ("attach_breakdown(16, 16)", attach_breakdown(&p, 16, 16)),
        Workload::StatStartup => {
            ("attach_breakdown(32, 8)", attach_breakdown(&p, STAT_NODES, STAT_TASKS_PER_NODE))
        }
        Workload::LaunchStorm => ("launch_breakdown(1, 1)", launch_breakdown(&p, 1, 1)),
    };
    let pct = |x: f64| format!("{:.1}%", 100.0 * x);
    let shares = |[a, b, c, other]: [f64; 4]| {
        format!("A {} B {} C {} other {}", pct(a), pct(b), pct(c), pct(other))
    };
    let total = spans("fe.total_ms");
    let measured = if total > 0.0 {
        let region_a = spans("engine.job_ms") + spans("rm.spawn_ms") + spans("iccl.setup_ms");
        let parts = [
            region_a,
            spans("engine.rpdtab_ms"),
            spans("core.handshake_ms"),
            spans("core.other_ms"),
        ];
        format!("{} (n={})", shares(parts.map(|x| x / total)), spans("fe.n"))
    } else {
        "no sessions traced".into()
    };
    let m = &model;
    let modelled = [
        m.t_job + m.t_daemon + m.t_setup + m.t_collective + m.t_tracing,
        m.t_rpdtab,
        m.t_handshake,
        m.t_other,
    ];
    report.note(format!(
        "model lmon_model::predict::{label}: {} (total {:.1} ms) | measured: {measured}",
        shares(modelled.map(|x| x / m.total())),
        m.total() * 1e3
    ));
}

/// Known defects, recorded untimed in a worker process after the run.
fn defect_ledger(report: &mut Report) {
    let Ok(exe) = std::env::current_exe() else { return };
    let out = Command::new(exe)
        .args(["worker", "ledger"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output();
    match out {
        Ok(o) => {
            for line in
                String::from_utf8_lossy(&o.stdout).lines().filter(|l| l.starts_with("ledger "))
            {
                report.note(format!("defect {line}"));
            }
            if !o.status.success() {
                report.note(format!("defect ledger worker exited: {}", o.status));
            }
        }
        Err(e) => report.note(format!("defect ledger worker did not start: {e}")),
    }
}
