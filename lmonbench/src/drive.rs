//! Client side of the `lmond` workloads: the closed and open loops, their
//! per-op output checks, and the `/proc` sampler of the served process.
//!
//! The same code drives the real `lmond` (untraced runs) and the traced
//! in-process server of `worker serve`, so both see the identical seeded
//! op sequence.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lmon_daemon::control::ParsedReply;

use crate::stats::Samples;
use crate::target::{sample, Conn, Fail, ProcSample, Target};
use crate::workload::{poisson_arrivals, Workload, STORM_RATE};

/// `/proc` is read every this many ops (and once before and after the run).
pub const SAMPLE_EVERY: u64 = 512;

/// Ops still due after this much overrun are counted failed unattempted.
const OVERRUN: Duration = Duration::from_secs(30);

/// What one run (or one client thread of it) observed. Times in ms.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// `OK` replies whose content failed a check (these ops also failed).
    pub bad_checks: u64,
    pub ready: Samples,
    pub cycle: Samples,
    pub teardown: Samples,
    pub scrape: Samples,
    pub connect: Samples,
    /// Open loop: how late each op started against its due time.
    pub late: Samples,
    /// Every request's round trip (connect/HELLO excluded).
    pub rtt: Samples,
    /// Due → done of every attempted op, failed ones included.
    pub busy_ms: f64,
    pub metrics_lines: Samples,
    /// Sessions the server reported established (`OK` to LAUNCH/ATTACH).
    pub sessions: u64,
    /// `ERR launch failed` / `ERR attach ... failed` replies: the cases the
    /// server counts in `lmond_launch_failures_total`.
    pub launch_failures: u64,
    /// First few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.bad_checks += o.bad_checks;
        for (a, b) in [
            (&mut self.ready, &o.ready),
            (&mut self.cycle, &o.cycle),
            (&mut self.teardown, &o.teardown),
            (&mut self.scrape, &o.scrape),
            (&mut self.connect, &o.connect),
            (&mut self.late, &o.late),
            (&mut self.rtt, &o.rtt),
            (&mut self.metrics_lines, &o.metrics_lines),
        ] {
            a.extend(b);
        }
        self.busy_ms += o.busy_ms;
        self.sessions += o.sessions;
        self.launch_failures += o.launch_failures;
        for r in o.reasons {
            self.note(r);
        }
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 4 && !self.reasons.contains(&reason) {
            self.reasons.push(reason);
        }
    }

    fn fail(&mut self, f: &Fail) {
        self.failed += 1;
        if matches!(f, Fail::Check(_)) {
            self.bad_checks += 1;
        }
        self.note(f.to_string());
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The served process, shared by the client threads: its pid for `/proc`
/// samples taken at fixed op counts, and its exit, recorded once seen.
pub struct Watch<'a> {
    target: Mutex<&'a mut Target>,
    pid: u32,
    dead: AtomicBool,
    ops: AtomicU64,
    pub samples: Mutex<Vec<(u64, ProcSample)>>,
}

impl<'a> Watch<'a> {
    pub fn new(target: &'a mut Target) -> Watch<'a> {
        let pid = target.pid();
        let watch = Watch {
            target: Mutex::new(target),
            pid,
            dead: AtomicBool::new(false),
            ops: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        };
        watch.take_sample(0);
        watch
    }

    fn take_sample(&self, at_op: u64) {
        if let Some(s) = sample(self.pid) {
            self.samples.lock().expect("sampler lock poisoned").push((at_op, s));
        }
    }

    /// Count one finished op; sample `/proc` on every `SAMPLE_EVERY`th.
    pub fn op_done(&self) {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(SAMPLE_EVERY) {
            self.take_sample(n);
        }
    }

    /// Whether the served process has exited (checked after an I/O error).
    fn check_dead(&self) -> bool {
        if !self.dead.load(Ordering::SeqCst) {
            let exited = self.target.lock().expect("target lock poisoned").exited().is_some();
            if exited {
                self.dead.store(true, Ordering::SeqCst);
            }
        }
        self.dead.load(Ordering::SeqCst)
    }

    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// The closing sample (no-op once the process is gone).
    pub fn finish(&self) {
        if !self.check_dead() {
            self.take_sample(self.ops.load(Ordering::Relaxed));
        }
    }
}

/// How a run is bounded: a time window and, for a replay, an op count.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub max_ops: Option<u64>,
    /// `attach_cycle`: the launcher pid set-up's `RUNJOB` reported.
    pub attach_pid: Option<u64>,
}

/// Send one request, recording its round trip.
fn req(conn: &mut Conn, line: &str, t: &mut Tally) -> Result<(ParsedReply, f64), Fail> {
    let start = Instant::now();
    let r = conn.request(line);
    let rtt = ms(start.elapsed());
    t.rtt.push(rtt);
    r.map(|r| (r, rtt))
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), Fail> {
    if ok {
        Ok(())
    } else {
        Err(Fail::Check(what()))
    }
}

fn count_launch_failure(f: Fail, t: &mut Tally) -> Fail {
    if let Fail::Refused(reason) = &f {
        if reason.starts_with("launch failed") || reason.starts_with("attach pid") {
            t.launch_failures += 1;
        }
    }
    f
}

/// `LAUNCH` (→ `STATUS`) → `KILL`, timed from `due`.
fn launch_op(
    conn: &mut Conn,
    t: &mut Tally,
    due: Instant,
    nodes: usize,
    body: &str,
    with_status: bool,
) -> Result<(), Fail> {
    let tpn = nodes; // both shapes are square: 16x16 and 1x1
    let (r, _) = req(conn, &format!("LAUNCH bench_app {nodes} {tpn} {body}"), t)
        .map_err(|f| count_launch_failure(f, t))?;
    let ready = ms(due.elapsed());
    t.sessions += 1;
    let gsid: u64 = r.field_as("gsid").ok_or_else(|| Fail::Check("LAUNCH: no gsid".into()))?;
    check(r.field_as::<usize>("daemons") == Some(nodes), || {
        format!("LAUNCH: daemons={:?}, want {nodes}", r.field("daemons"))
    })?;
    if with_status {
        let (s, _) = req(conn, &format!("STATUS {gsid}"), t)?;
        check(s.field("state") == Some("Ready"), || {
            format!("STATUS: state={:?}", s.field("state"))
        })?;
    }
    let (k, teardown) = req(conn, &format!("KILL {gsid}"), t)?;
    check(k.field("killed") == Some("1"), || "KILL: no killed=1".into())?;
    t.ready.push(ready);
    t.teardown.push(teardown);
    t.cycle.push(ms(due.elapsed()));
    Ok(())
}

/// `ATTACH` → `STATUS` → `METRICS` → `DETACH`.
fn attach_op(conn: &mut Conn, t: &mut Tally, due: Instant, pid: u64) -> Result<(), Fail> {
    let (r, _) =
        req(conn, &format!("ATTACH {pid} sleeper"), t).map_err(|f| count_launch_failure(f, t))?;
    let ready = ms(due.elapsed());
    t.sessions += 1;
    let gsid: u64 = r.field_as("gsids").ok_or_else(|| Fail::Check("ATTACH: no gsid".into()))?;
    check(r.field_as::<usize>("daemons") == Some(16), || {
        format!("ATTACH: daemons={:?}, want 16", r.field("daemons"))
    })?;
    let (s, _) = req(conn, &format!("STATUS {gsid}"), t)?;
    check(s.field("state") == Some("Ready"), || format!("STATUS: state={:?}", s.field("state")))?;
    let (m, scrape) = req(conn, "METRICS", t)?;
    let launches = counter(&m, "lmond_launches_total");
    check(launches == Some(t.sessions), || {
        format!("METRICS: lmond_launches_total={launches:?}, bench saw {}", t.sessions)
    })?;
    let (d, teardown) = req(conn, &format!("DETACH {gsid}"), t)?;
    check(d.field("detached") == Some("1"), || "DETACH: no detached=1".into())?;
    t.ready.push(ready);
    t.scrape.push(scrape);
    t.metrics_lines.push(m.body.len() as f64);
    t.teardown.push(teardown);
    t.cycle.push(ms(due.elapsed()));
    Ok(())
}

/// The value of an unlabelled Prometheus sample in a `METRICS` reply.
pub fn counter(reply: &ParsedReply, name: &str) -> Option<u64> {
    reply.body.iter().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        if k == name {
            v.trim().parse::<f64>().ok().map(|v| v as u64)
        } else {
            None
        }
    })
}

fn open_hello(socket: &Path, t: &mut Tally) -> Result<Conn, Fail> {
    let start = Instant::now();
    let mut conn = Conn::open(socket).map_err(|e| Fail::Io(format!("connect: {e}")))?;
    conn.hello()?;
    t.connect.push(ms(start.elapsed()));
    Ok(conn)
}

/// Run the workload's client side against `socket` until the plan ends.
pub fn drive(plan: &Plan, socket: &Path, watch: &Watch) -> Tally {
    let tally = match plan.workload {
        Workload::LaunchStorm => open_loop(plan, socket, watch),
        _ => closed_loop(plan, socket, watch),
    };
    watch.finish();
    tally
}

fn closed_loop(plan: &Plan, socket: &Path, watch: &Watch) -> Tally {
    let mut t = Tally::default();
    let start = Instant::now();
    let mut conn: Option<Conn> = None;
    while start.elapsed() < plan.window && plan.max_ops.is_none_or(|m| t.attempted < m) {
        t.attempted += 1;
        let due = Instant::now();
        let result = match conn.as_mut() {
            Some(c) => run_closed_op(plan, c, &mut t, due),
            None => match open_hello(socket, &mut t) {
                Ok(c) => run_closed_op(plan, conn.insert(c), &mut t, due),
                Err(f) => Err(f),
            },
        };
        t.busy_ms += ms(due.elapsed());
        watch.op_done();
        if let Err(f) = result {
            t.fail(&f);
            if matches!(f, Fail::Io(_)) {
                conn = None;
                if watch.check_dead() {
                    break; // the served process is gone: no op can run
                }
            }
        }
    }
    t
}

fn run_closed_op(plan: &Plan, conn: &mut Conn, t: &mut Tally, due: Instant) -> Result<(), Fail> {
    match plan.workload {
        Workload::LaunchWide => launch_op(conn, t, due, 16, "sleeper", true),
        Workload::AttachCycle => {
            attach_op(conn, t, due, plan.attach_pid.expect("attach_cycle set-up ran RUNJOB"))
        }
        w => unreachable!("{} is not a closed control-protocol loop", w.name()),
    }
}

/// Seeded Poisson arrivals served by two client threads, each arrival on a
/// fresh connection (at most two open at once). Every op is timed from when
/// it was due; arrivals due after the server died count as failed.
fn open_loop(plan: &Plan, socket: &Path, watch: &Watch) -> Tally {
    let mut arrivals = poisson_arrivals(plan.seed, STORM_RATE, plan.window);
    if let Some(m) = plan.max_ops {
        arrivals.truncate(m as usize);
    }
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let worker = || {
        let mut t = Tally::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(offset) = arrivals.get(i) else { return t };
            let due = start + *offset;
            t.attempted += 1;
            if watch.is_dead() || Instant::now() > due + OVERRUN {
                t.fail(&Fail::Io("unfinished: server gone or run overran".into()));
                continue;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            t.late.push(ms(due.elapsed()));
            let result = open_hello(socket, &mut t)
                .and_then(|mut conn| launch_op(&mut conn, &mut t, due, 1, "oneshot", false));
            t.busy_ms += ms(due.elapsed());
            watch.op_done();
            if let Err(f) = result {
                t.fail(&f);
                if matches!(f, Fail::Io(_)) {
                    watch.check_dead();
                }
            }
        }
    };
    std::thread::scope(|s| {
        let helper = s.spawn(worker);
        let mut t = worker();
        t.merge(helper.join().expect("storm client thread panicked"));
        t
    })
}

/// The end-of-run counter check: the server's own launch and failure
/// counters must equal what the benchmark saw. `None` when the server is
/// gone (nothing to scrape; the exit is reported instead).
pub fn check_counters(socket: &Path, t: &Tally) -> Option<Result<(), String>> {
    let mut conn = Conn::open(socket).ok()?;
    let m = conn.request("METRICS").ok()?;
    let launches = counter(&m, "lmond_launches_total");
    let failures = counter(&m, "lmond_launch_failures_total");
    Some(if launches == Some(t.sessions) && failures == Some(t.launch_failures) {
        Ok(())
    } else {
        Err(format!(
            "lmond_launches_total={launches:?} lmond_launch_failures_total={failures:?}, \
             bench saw {} sessions and {} launch failures",
            t.sessions, t.launch_failures
        ))
    })
}

/// `RUNJOB attach_app 16 16` on a fresh server: the launcher pid to attach to.
pub fn runjob(socket: &Path) -> Result<u64, String> {
    let mut conn = Conn::open(socket).map_err(|e| format!("connect: {e}"))?;
    let r = conn.request("RUNJOB attach_app 16 16").map_err(|e| format!("RUNJOB: {e}"))?;
    r.field_as("pid").ok_or_else(|| format!("RUNJOB: no pid in {:?}", r.fields))
}
