//! `upgrade_rolling` — planned maintenance, quantified (DESIGN.md §12).
//!
//! Measurements backing the ISSUE 9 acceptance criteria: the rolling
//! comm-daemon upgrade walk over a spare-backed overlay (per-step drain
//! and replace latency, p50/p99), and silent-halt detection latency under
//! background phi-accrual suspicion versus the PR 5 caller-driven
//! heartbeat sweep it replaces.
//!
//! Per upgrade iteration a fresh overlay is built, connected, probed
//! healthy, put under suspicion, and walked end to end with
//! `Maintenance::rolling_upgrade`; the walk must finish with zero
//! unplanned repairs and the next broadcast must still reach every BE
//! (`sessions_uninterrupted`). Detection cycles halt one comm silently
//! (`FrontEndpoint::halt_comm`, the `kill -9` analogue) and time
//! phi-accrual suspicion against a caller-driven sweep; the sweep baseline
//! includes the half-interval a death waits, on average, before the next
//! scheduled sweep even begins (PR 5 ran sweeps on a 100 ms cadence).
//!
//! Results print as a table and are written to `BENCH_upgrade.json` at
//! the workspace root (CI uploads it as an artifact); the JSON carries a
//! `baseline` block (this subsystem's first committed numbers) so the
//! trajectory is self-describing. Quick mode for CI: `LMON_BENCH_QUICK=1`.
//!
//! **Regression gate**: unless `LMON_BENCH_SKIP_GATE=1`, the run fails if
//! the primary shape's median per-step upgrade latency regresses more
//! than 30% over the committed `BENCH_upgrade.json` (same-mode runs only)
//! *and* the hardware-neutral step/healthy-RTT ratio regressed by more
//! than 30% too — a uniformly slower runner passes, a real
//! maintenance-path regression fails.

use std::io::Write as _;
use std::time::{Duration, Instant};

use lmon_bench::{extract_json_number, print_table, Row};
use lmon_tbon::filter::FilterKind;
use lmon_tbon::spec::{NodePos, TopologySpec};
use lmon_tbon::PhiAccrualParams;
use lmon_testkit::{FaultPlan, LiveOverlay};

/// Tree shapes measured, primary (gated) shape first — every shape
/// carries a full spare pool so each walk step replaces from a spare.
const SHAPES: &[&str] = &["1x8x64+8", "1x4x32+4"];

/// The PR 5 sweep cadence: a silent death waits, on average, half this
/// interval before the sweep that attributes it even begins.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);

/// First committed numbers for this subsystem (quick mode, the CI
/// configuration), so any later reader of the JSON sees the trajectory
/// without digging through git history.
const BASELINE_PR: u32 = 9;
const BASELINE_SHAPE: &str = "1x8x64+8";
const BASELINE_STEP_US: f64 = 621.0;
const BASELINE_HEALTHY_RTT_US: f64 = 403.0;

/// Gate: fail when the new median step latency exceeds the committed one
/// by more than this factor (and the RTT-normalized ratio agrees).
const GATE_CEILING: f64 = 1.30;

fn quick_mode() -> bool {
    std::env::var("LMON_BENCH_QUICK").map(|v| v == "1").unwrap_or(false)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

/// Nearest-rank percentile (`q` in 0..=1) over unsorted samples.
fn percentile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

struct UpgradeCycle {
    healthy_rtt_us: f64,
    /// Per-step drain latencies (µs) from [`UpgradeStep::drain`].
    drain_us: Vec<f64>,
    /// Per-step total latencies (µs): drain + re-adopt + verify.
    step_us: Vec<f64>,
    rolling_total_us: f64,
    uninterrupted: bool,
}

/// One full rolling-upgrade walk on a fresh spare-backed overlay.
fn one_upgrade_cycle(shape: &str) -> UpgradeCycle {
    let spec = TopologySpec::parse(shape).expect("valid shape");
    let leaves = spec.leaf_count();
    let mut live = LiveOverlay::launch_echo(shape, &FaultPlan::new());
    live.front.await_connections(leaves, Duration::from_secs(20)).expect("connect");
    let _table = live.front.maintenance().start_suspicion(PhiAccrualParams::default());
    let stream = live.front.open_stream(FilterKind::Concat).expect("stream");

    // Healthy round trip (wave 1): the same-run hardware normalizer.
    let h0 = Instant::now();
    live.front.broadcast(stream, 1, vec![]).expect("healthy broadcast");
    let pkt = live.front.gather(stream, 1, Duration::from_secs(20)).expect("healthy gather");
    let healthy_rtt_us = h0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(pkt.payload.len(), leaves as usize);

    let t0 = Instant::now();
    let report =
        live.front.maintenance().rolling_upgrade(Duration::from_secs(20)).expect("rolling upgrade");
    let rolling_total_us = t0.elapsed().as_secs_f64() * 1e6;

    // Zero interruption: no unplanned repairs anywhere in the walk, and
    // the very next wave still reaches every BE.
    live.front.broadcast(stream, 2, vec![]).expect("post-upgrade broadcast");
    let pkt = live.front.gather(stream, 2, Duration::from_secs(20)).expect("post-upgrade gather");
    let uninterrupted = report.unplanned_repairs == 0 && pkt.payload.len() == leaves as usize;

    let drain_us = report.steps.iter().map(|s| s.drain.as_secs_f64() * 1e6).collect();
    let step_us = report.steps.iter().map(|s| s.total.as_secs_f64() * 1e6).collect();
    live.shutdown();
    UpgradeCycle { healthy_rtt_us, drain_us, step_us, rolling_total_us, uninterrupted }
}

/// Halt one comm silently and time detection by background phi-accrual
/// suspicion (halt → route-table death visible to `wait_failure`).
fn one_phi_detect_cycle(shape: &str) -> f64 {
    let spec = TopologySpec::parse(shape).expect("valid shape");
    let victim = NodePos { level: 1, index: spec.levels()[1] / 2 };
    let mut live = LiveOverlay::launch_echo(shape, &FaultPlan::new());
    live.front.await_connections(spec.leaf_count(), Duration::from_secs(20)).expect("connect");
    let _table = live.front.maintenance().start_suspicion(PhiAccrualParams::default());
    let t0 = Instant::now();
    live.front.halt_comm(victim).expect("halt switch");
    let dead = live.front.wait_failure(Duration::from_secs(20)).expect("suspicion detects");
    assert_eq!(dead, victim);
    let detect_us = t0.elapsed().as_secs_f64() * 1e6;
    live.shutdown();
    detect_us
}

/// The same silent halt detected the PR 5 way: a caller-driven heartbeat
/// sweep. The measured figure is the sweep's own execution time plus the
/// average half-interval the death sits undetected before the next
/// scheduled sweep starts.
fn one_sweep_detect_cycle(shape: &str) -> f64 {
    let spec = TopologySpec::parse(shape).expect("valid shape");
    let victim = NodePos { level: 1, index: spec.levels()[1] / 2 };
    let mut live = LiveOverlay::launch_echo(shape, &FaultPlan::new());
    live.front.await_connections(spec.leaf_count(), Duration::from_secs(20)).expect("connect");
    live.front.halt_comm(victim).expect("halt switch");
    let t0 = Instant::now();
    loop {
        let missing = live.front.heartbeat(SWEEP_INTERVAL);
        if missing.contains(&victim) {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(20), "sweep never attributed the halt");
    }
    let detect_us = (t0.elapsed() + SWEEP_INTERVAL / 2).as_secs_f64() * 1e6;
    live.shutdown();
    detect_us
}

#[derive(Debug)]
struct ShapeResult {
    shape: String,
    iterations: usize,
    steps_per_walk: usize,
    healthy_rtt_us: f64,
    drain_p50_us: f64,
    drain_p99_us: f64,
    step_p50_us: f64,
    step_p99_us: f64,
    rolling_total_us: f64,
    phi_detect_us: f64,
    sweep_detect_us: f64,
    sessions_uninterrupted: usize,
}

fn measure(shape: &str, iters: usize) -> ShapeResult {
    let cycles: Vec<UpgradeCycle> = (0..iters).map(|_| one_upgrade_cycle(shape)).collect();
    let drains: Vec<f64> = cycles.iter().flat_map(|c| c.drain_us.iter().copied()).collect();
    let steps: Vec<f64> = cycles.iter().flat_map(|c| c.step_us.iter().copied()).collect();
    ShapeResult {
        shape: shape.to_string(),
        iterations: iters,
        steps_per_walk: cycles[0].step_us.len(),
        healthy_rtt_us: median(cycles.iter().map(|c| c.healthy_rtt_us).collect()),
        drain_p50_us: percentile(drains.clone(), 0.50),
        drain_p99_us: percentile(drains, 0.99),
        step_p50_us: percentile(steps.clone(), 0.50),
        step_p99_us: percentile(steps, 0.99),
        rolling_total_us: median(cycles.iter().map(|c| c.rolling_total_us).collect()),
        phi_detect_us: median((0..iters).map(|_| one_phi_detect_cycle(shape)).collect()),
        sweep_detect_us: median((0..iters).map(|_| one_sweep_detect_cycle(shape)).collect()),
        sessions_uninterrupted: cycles.iter().filter(|c| c.uninterrupted).count(),
    }
}

fn fmt_us(v: f64) -> String {
    format!("{v:.0}us")
}

fn main() {
    let quick = quick_mode();
    let iters = if quick { 3 } else { 10 };

    // Read the committed artifact *before* overwriting; the gate only arms
    // for a same-mode artifact (quick and full runs are not comparable).
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_upgrade.json");
    let committed = std::fs::read_to_string(&out).ok().and_then(|json| {
        let committed_quick = json.contains("\"quick\": true");
        if committed_quick != quick {
            return None;
        }
        // The primary shape is the first entry in the shapes array.
        let at = json.find(&format!("\"shape\": \"{}\"", SHAPES[0]))?;
        let tail = &json[at..];
        let step = extract_json_number(tail, "\"step_p50_us\":")?;
        let rtt = extract_json_number(tail, "\"healthy_rtt_us\":")?;
        Some((step, rtt))
    });

    let results: Vec<ShapeResult> = SHAPES.iter().map(|s| measure(s, iters)).collect();

    let rows: Vec<Row> = results
        .iter()
        .map(|r| Row {
            x: r.shape.clone(),
            values: vec![
                fmt_us(r.healthy_rtt_us),
                format!("{}/{}", fmt_us(r.drain_p50_us), fmt_us(r.drain_p99_us)),
                format!("{}/{}", fmt_us(r.step_p50_us), fmt_us(r.step_p99_us)),
                fmt_us(r.rolling_total_us),
                format!("{}/{}", fmt_us(r.phi_detect_us), fmt_us(r.sweep_detect_us)),
                format!("{}/{}", r.sessions_uninterrupted, r.iterations),
            ],
        })
        .collect();
    print_table(
        "rolling comm-daemon upgrade (drain -> hot-spare takeover -> verify)",
        "shape",
        &["healthy rtt", "drain p50/p99", "step p50/p99", "walk total", "phi/sweep", "intact"],
        &rows,
    );
    println!(
        "baseline (PR {BASELINE_PR}, {BASELINE_SHAPE}): step p50 {BASELINE_STEP_US:.0}us over a \
         {BASELINE_HEALTHY_RTT_US:.0}us healthy rtt"
    );

    // Acceptance: every walk on every shape finished with zero unplanned
    // repairs and a complete post-upgrade wave, and phi-accrual detection
    // is no slower than the caller-driven sweep it replaces.
    for r in &results {
        assert_eq!(
            r.sessions_uninterrupted, r.iterations,
            "{}: an upgrade walk interrupted the session",
            r.shape
        );
        assert!(
            r.phi_detect_us <= r.sweep_detect_us,
            "{}: phi-accrual detection ({:.0}us) slower than the PR 5 sweep baseline ({:.0}us)",
            r.shape,
            r.phi_detect_us,
            r.sweep_detect_us
        );
    }

    let shapes_json = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"shape\": \"{}\", \"iterations\": {}, \"steps_per_walk\": {}, ",
                    "\"healthy_rtt_us\": {:.0}, \"drain_p50_us\": {:.0}, \"drain_p99_us\": {:.0}, ",
                    "\"step_p50_us\": {:.0}, \"step_p99_us\": {:.0}, \"rolling_total_us\": {:.0}, ",
                    "\"phi_detect_us\": {:.0}, \"sweep_detect_us\": {:.0}, ",
                    "\"sessions_uninterrupted\": {}}}"
                ),
                r.shape,
                r.iterations,
                r.steps_per_walk,
                r.healthy_rtt_us,
                r.drain_p50_us,
                r.drain_p99_us,
                r.step_p50_us,
                r.step_p99_us,
                r.rolling_total_us,
                r.phi_detect_us,
                r.sweep_detect_us,
                r.sessions_uninterrupted
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"quick\": {quick},\n",
            "  \"shapes\": [\n",
            "{shapes}\n",
            "  ],\n",
            "  \"baseline\": {{\n",
            "    \"pr\": {bpr},\n",
            "    \"shape\": \"{bshape}\",\n",
            "    \"step_p50_us\": {bstep:.0},\n",
            "    \"healthy_rtt_us\": {brtt:.0}\n",
            "  }}\n",
            "}}\n"
        ),
        quick = quick,
        shapes = shapes_json,
        bpr = BASELINE_PR,
        bshape = BASELINE_SHAPE,
        bstep = BASELINE_STEP_US,
        brtt = BASELINE_HEALTHY_RTT_US,
    );
    let mut f = std::fs::File::create(&out).expect("create BENCH_upgrade.json");
    f.write_all(json.as_bytes()).expect("write BENCH_upgrade.json");
    println!("\nwrote {}", out.display());

    // Regression gate, mirroring the recovery gate's two-signal design:
    // the absolute step latency must regress >30% AND the same-run
    // step/healthy-rtt ratio must regress >30% before the run fails, so a
    // uniformly slower runner shifts both and passes.
    let skip_gate = std::env::var("LMON_BENCH_SKIP_GATE").map(|v| v == "1").unwrap_or(false);
    let primary = &results[0];
    match committed {
        Some((committed_step, committed_rtt)) if !skip_gate => {
            let ceiling = committed_step * GATE_CEILING;
            let committed_ratio = committed_step / committed_rtt.max(1.0);
            let ratio = primary.step_p50_us / primary.healthy_rtt_us.max(1.0);
            let ratio_ceiling = committed_ratio * GATE_CEILING;
            if primary.step_p50_us > ceiling && ratio > ratio_ceiling {
                eprintln!(
                    "REGRESSION GATE FAILED: step_p50_us {:.0} is more than 30% above the \
                     committed {committed_step:.0} (ceiling {ceiling:.0}) AND the \
                     step/healthy-rtt ratio {ratio:.2} exceeds {ratio_ceiling:.2} (committed \
                     {committed_ratio:.2}), so this is not just a slower machine. Set \
                     LMON_BENCH_SKIP_GATE=1 to skip on noisy runners.",
                    primary.step_p50_us
                );
                std::process::exit(1);
            }
            println!(
                "regression gate passed: {:.0}us (ceiling {ceiling:.0}, committed \
                 {committed_step:.0}); step/rtt ratio {ratio:.2} (committed {committed_ratio:.2})",
                primary.step_p50_us
            );
        }
        Some(_) => println!("regression gate skipped (LMON_BENCH_SKIP_GATE=1)"),
        None => {
            println!("regression gate skipped (no committed BENCH_upgrade.json in this run's mode)")
        }
    }
}
