//! Worker processes the benchmark spawns for in-process work. Running it in
//! a child keeps a crash of the code under test (e.g. the thread/mapping
//! leak aborting the process) a recorded event instead of the end of the
//! benchmark.
//!
//! * `serve`: the traced replay target — an in-process [`Daemon`] behind a
//!   bench-side copy of `lmond`'s connection loop, with spans around
//!   `Request::parse`, `Daemon::dispatch` and the §4 `e0..e11` marks of
//!   every session (`LmonFrontEnd::timeline` on `Daemon::backend_fe(i)`).
//!   Spans stay in memory and are printed when `SHUTDOWN` arrives.
//! * `stat`: the `stat_startup` loop, one `op` line per STAT start-up.
//! * `ledger`: two back-to-back deep-tree STAT start-ups on one FE.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lmon_cluster::config::ClusterConfig;
use lmon_cluster::VirtualCluster;
use lmon_core::fe::LmonFrontEnd;
use lmon_core::session::SessionId;
use lmon_core::timeline::{CriticalEvent, LaunchBreakdown};
use lmon_daemon::control::{Reply, Request, HELLO_BANNER};
use lmon_daemon::{Daemon, DaemonConfig};
use lmon_rm::api::{JobHandle, JobSpec, ResourceManager};
use lmon_rm::SlurmRm;
use lmon_tools::stat::{run_stat_launchmon, run_stat_launchmon_tree};

use crate::stats::Samples;
use crate::workload::{BACKENDS, CLUSTER_NODES, LEDGER_FANOUT, STAT_NODES, STAT_TASKS_PER_NODE};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-component sums of the §4 breakdown over many sessions (ms).
#[derive(Debug, Default)]
struct FeSums {
    n: u64,
    total: f64,
    job: f64,
    rpdtab: f64,
    spawn: f64,
    /// Handshake minus the fabric setup nested inside it (e7→e10 − e8→e9).
    handshake: f64,
    setup: f64,
    other: f64,
}

impl FeSums {
    fn add(&mut self, b: &LaunchBreakdown) {
        self.n += 1;
        self.total += ms(b.total);
        self.job += ms(b.t_job);
        self.rpdtab += ms(b.t_rpdtab_fetch);
        self.spawn += ms(b.t_daemon);
        self.handshake += ms(b.t_handshake.saturating_sub(b.t_setup));
        self.setup += ms(b.t_setup);
        self.other += ms(b.other());
    }

    fn emit(&self, out: &mut impl Write) {
        for (k, v) in [
            ("fe.n", self.n as f64),
            ("fe.total_ms", self.total),
            ("engine.job_ms", self.job),
            ("engine.rpdtab_ms", self.rpdtab),
            ("rm.spawn_ms", self.spawn),
            ("core.handshake_ms", self.handshake),
            ("iccl.setup_ms", self.setup),
            ("core.other_ms", self.other),
        ] {
            let _ = writeln!(out, "span {k} {v}");
        }
    }
}

/// Sum of `Node::pids` and `Node::live_count` over every backend cluster.
fn proc_tables(clusters: &[&VirtualCluster]) -> (usize, usize) {
    clusters
        .iter()
        .flat_map(|c| c.compute_nodes().iter())
        .fold((0, 0), |(e, l), n| (e + n.pids().len(), l + n.live_count()))
}

// ---------------------------------------------------------------------------
// serve: the traced replay target
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Spans {
    requests: u64,
    parse_us: f64,
    dispatch_ms: f64,
    /// Verb → (requests, dispatch self time ms).
    verbs: BTreeMap<&'static str, (u64, f64)>,
    admission_wait: Samples,
    fe: FeSums,
    /// Per backend: session ids below this have been discovered.
    scanned: Vec<u32>,
    /// Discovered sessions not yet matched to the request that made them.
    pending: Vec<(usize, u32)>,
}

fn verb(req: &Request) -> &'static str {
    match req {
        Request::Launch { .. } => "launch",
        Request::Attach { .. } => "attach",
        Request::SessionStatus { .. } | Request::Status => "status",
        Request::Metrics => "metrics",
        Request::Kill { .. } => "kill",
        Request::Detach { .. } => "detach",
        _ => "other",
    }
}

impl Spans {
    /// Attribute one dispatched request. For a session-creating request the
    /// session it made is found among the backends' new session ids by its
    /// `e0..e11` window, which splits dispatch into admission wait (dispatch
    /// start → e0), the FE's launch (e0 → e11) and the daemon's own rest.
    fn record(
        &mut self,
        d: &Daemon,
        req: &Request,
        ok: bool,
        parse: Duration,
        start: Instant,
        end: Instant,
    ) {
        if matches!(req, Request::Ping | Request::RunJob { .. }) {
            return; // set-up, not part of the replayed ops
        }
        self.requests += 1;
        self.parse_us += parse.as_secs_f64() * 1e6;
        let dispatch = ms(end - start);
        self.dispatch_ms += dispatch;
        let mut self_ms = dispatch;
        if ok && matches!(req, Request::Launch { .. } | Request::Attach { .. }) {
            self.scanned.resize(BACKENDS, 0);
            for (i, next) in self.scanned.iter_mut().enumerate() {
                let fe = d.backend_fe(i).expect("backend index in range");
                while fe.session_state(SessionId(*next)).is_ok() {
                    self.pending.push((i, *next));
                    *next += 1;
                }
            }
            let window = |&(i, sid): &(usize, u32)| {
                let tl = d.backend_fe(i)?.timeline(SessionId(sid)).ok()?;
                let e0 = tl.at(CriticalEvent::E0ClientCall)?;
                let e11 = tl.at(CriticalEvent::E11Returned)?;
                (e0 >= start && e11 <= end).then_some((e0, e11, tl.breakdown()?))
            };
            let best = (0..self.pending.len())
                .filter_map(|k| window(&self.pending[k]).map(|w| (k, w)))
                .max_by_key(|(_, (_, e11, _))| *e11);
            if let Some((k, (e0, _, breakdown))) = best {
                self.pending.swap_remove(k);
                let wait = ms(e0 - start);
                self.admission_wait.push(wait);
                self.fe.add(&breakdown);
                self_ms = (dispatch - wait - ms(breakdown.total)).max(0.0);
            }
        }
        let entry = self.verbs.entry(verb(req)).or_default();
        entry.0 += 1;
        entry.1 += self_ms;
    }

    fn dump(&self, d: &Daemon, out: &mut impl Write) {
        let mut put = |k: &str, v: f64| {
            let _ = writeln!(out, "span {k} {v}");
        };
        put("requests", self.requests as f64);
        put("parse_us", self.parse_us);
        put("dispatch_ms", self.dispatch_ms);
        for (v, (n, sum)) in &self.verbs {
            put(&format!("verb.{v}.n"), *n as f64);
            put(&format!("verb.{v}.self_ms"), *sum);
        }
        put("admission.wait_ms_p50", self.admission_wait.median());
        put("admission.wait_ms_p99", self.admission_wait.quantile(0.99));
        put("admission.wait_ms_sum", self.admission_wait.sum());
        let adm = d.admission().stats();
        put("admission.peak_waiting", adm.peak_waiting as f64);
        put("admission.rejected", adm.rejected_total as f64);
        let fes: Vec<&Arc<LmonFrontEnd>> = (0..BACKENDS).filter_map(|i| d.backend_fe(i)).collect();
        let peak = fes.iter().map(|fe| fe.transport_stats().be_peak_sessions).max().unwrap_or(0);
        put("proto.be_peak_sessions", peak as f64);
        let clusters: Vec<&VirtualCluster> = fes.iter().map(|fe| fe.rm().cluster()).collect();
        let (entries, live) = proc_tables(&clusters);
        put("cluster.proc_entries", entries as f64);
        put("cluster.live_procs", live as f64);
        self.fe.emit(out);
    }
}

/// Serve the control protocol on `socket` from an in-process daemon, the
/// way `lmond serve` does (one thread per connection), until `SHUTDOWN`:
/// then print the spans and exit the process (leaked session threads
/// included, as `lmond` does).
pub fn serve(socket: &Path, limit: usize) -> Result<(), String> {
    let daemon = Daemon::new(DaemonConfig {
        backends: BACKENDS,
        cluster_nodes: CLUSTER_NODES,
        admission_limit: limit,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon: {e}"))?;
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket).map_err(|e| format!("bind: {e}"))?;
    let spans = Arc::new(Mutex::new(Spans::default()));
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let (d, s) = (Arc::clone(&daemon), Arc::clone(&spans));
        std::thread::Builder::new()
            .name("bench-conn".into())
            .spawn(move || serve_conn(&d, &s, stream))
            .map_err(|e| format!("connection thread: {e}"))?;
    }
    Ok(())
}

fn serve_conn(d: &Daemon, spans: &Mutex<Spans>, stream: UnixStream) {
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let text = line.trim_end();
        if text.is_empty() {
            continue;
        }
        let parse_start = Instant::now();
        let parsed = Request::parse(text);
        let parse = parse_start.elapsed();
        match parsed {
            // The handshake is timed client-side as part of connecting.
            Ok(Request::Hello { .. }) => {
                if writeln!(writer, "{HELLO_BANNER}").is_err() {
                    return;
                }
            }
            Ok(Request::Shutdown) => {
                let stdout = std::io::stdout();
                let mut out = stdout.lock();
                spans.lock().expect("span lock poisoned").dump(d, &mut out);
                let _ = writeln!(out, "end");
                let _ = out.flush();
                let _ =
                    writer.write_all(Reply::ok(&[("shutdown", "1".into())]).render().as_bytes());
                std::process::exit(0);
            }
            Ok(req) => {
                let start = Instant::now();
                let reply = d.dispatch(&req);
                let end = Instant::now();
                let ok = !matches!(reply, Reply::Err(_));
                if writer.write_all(reply.render().as_bytes()).is_err() {
                    return;
                }
                spans.lock().expect("span lock poisoned").record(d, &req, ok, parse, start, end);
            }
            Err(err) => {
                if writer.write_all(err.reply(2).render().as_bytes()).is_err() {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// stat: the stat_startup loop
// ---------------------------------------------------------------------------

struct StatBed {
    cluster: VirtualCluster,
    rm: Arc<dyn ResourceManager>,
    job: JobHandle,
    fe: LmonFrontEnd,
}

/// Cluster + running 32×8 job (all tasks live) + one FE.
fn bring_up() -> Result<StatBed, String> {
    let cluster = VirtualCluster::new(ClusterConfig::with_nodes(CLUSTER_NODES));
    let rm: Arc<dyn ResourceManager> = Arc::new(SlurmRm::new(cluster.clone()));
    let job = rm
        .launch_job(&JobSpec::new("stat_app", STAT_NODES, STAT_TASKS_PER_NODE), false)
        .map_err(|e| format!("job: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.compute_nodes().iter().map(|n| n.live_count()).sum::<usize>()
        < STAT_NODES * STAT_TASKS_PER_NODE
    {
        if Instant::now() > deadline {
            return Err("job tasks did not start within 10 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let fe = LmonFrontEnd::init(Arc::clone(&rm)).map_err(|e| format!("fe: {e}"))?;
    Ok(StatBed { cluster, rm, job, fe })
}

/// Bring the bed up `trials` times (tearing all but the last down) and
/// print the median bring-up time as `setup <s>`.
fn set_up(trials: usize) -> Result<StatBed, String> {
    let mut times = Samples::default();
    loop {
        let start = Instant::now();
        let bed = bring_up()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= trials {
            println!("setup {}", times.median());
            return Ok(bed);
        }
        let _ = bed.rm.kill_job(&bed.job);
        let _ = bed.fe.shutdown();
    }
}

/// One `op ready cycle teardown classes rsh` line (ms) per STAT start-up
/// until `window` or `max_ops`. With `traced`, each start-up's split — the
/// attach's §4 breakdown, the rest of `connect_time` (tbon connect) and the
/// sample wave — is summed in memory and printed as `span` lines at the end.
pub fn stat(
    window: Duration,
    max_ops: Option<u64>,
    trials: usize,
    traced: bool,
) -> Result<(), String> {
    let bed = set_up(trials)?;
    let (mut fe, mut tbon_connect, mut wave) = (FeSums::default(), 0.0, 0.0);
    let (mut classes, mut rsh) = (0.0, 0.0);
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < window && max_ops.is_none_or(|m| ops < m) {
        let sid = SessionId(ops as u32); // run_stat_launchmon creates one session per call
        ops += 1;
        let t0 = Instant::now();
        let outcome = run_stat_launchmon(&bed.fe, bed.job.launcher_pid, STAT_NODES as u32);
        let cycle = ms(t0.elapsed());
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                println!("fail {e}");
                continue;
            }
        };
        let ready = ms(o.connect_time);
        if traced {
            let Some(b) = bed.fe.timeline(sid).ok().and_then(|tl| tl.breakdown()) else {
                println!("fail session {} has no complete timeline", sid.0);
                continue;
            };
            fe.add(&b);
            tbon_connect += ready - ms(b.total);
            wave += ms(o.total_time - o.connect_time);
            classes += o.classes.len() as f64;
            rsh += o.rsh_connects as f64;
        }
        let teardown = cycle - ms(o.total_time);
        println!("op {ready} {cycle} {teardown} {} {}", o.classes.len(), o.rsh_connects);
    }
    let mut out = std::io::stdout().lock();
    fe.emit(&mut out);
    let (entries, live) = proc_tables(&[&bed.cluster]);
    for (k, v) in [
        ("tbon.connect_ms", tbon_connect),
        ("tbon.wave_ms", wave),
        ("tools.classes", if fe.n > 0 { classes / fe.n as f64 } else { 0.0 }),
        ("tbon.rsh_connects", rsh),
        ("cluster.proc_entries", entries as f64),
        ("cluster.live_procs", live as f64),
        ("proto.be_peak_sessions", bed.fe.transport_stats().be_peak_sessions as f64),
    ] {
        let _ = writeln!(out, "span {k} {v}");
    }
    let _ = writeln!(out, "end");
    Ok(())
}

// ---------------------------------------------------------------------------
// ledger: known defects, recorded untimed
// ---------------------------------------------------------------------------

/// Two back-to-back deep-tree STAT start-ups on one FE, then a one-deep
/// one on the same launcher. Prints one `ledger` line per attempt.
pub fn ledger() -> Result<(), String> {
    let bed = set_up(1)?;
    let (pid, nodes) = (bed.job.launcher_pid, STAT_NODES as u32);
    let attempts = [
        ("stat_tree#1", run_stat_launchmon_tree(&bed.fe, pid, nodes, LEDGER_FANOUT)),
        ("stat_tree#2", run_stat_launchmon_tree(&bed.fe, pid, nodes, LEDGER_FANOUT)),
        ("stat_1deep_after", run_stat_launchmon(&bed.fe, pid, nodes)),
    ];
    for (name, outcome) in attempts {
        match outcome {
            Ok(o) => println!(
                "ledger {name}: ok, connect {:.3} ms, {} classes",
                ms(o.connect_time),
                o.classes.len()
            ),
            Err(e) => println!("ledger {name}: FAILED: {e}"),
        }
    }
    println!("end");
    Ok(())
}
