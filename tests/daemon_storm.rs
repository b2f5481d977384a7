//! Launch-storm admission tests: the paper's §2 ≈504-session cliff,
//! replayed against `lmond`'s admission queue (ISSUE 7 satellite).
//!
//! PR 2's chaos suite showed 504 concurrent *sessions* crushing an rsh
//! bootstrapper; the daemon's claim is that the same storm arriving as
//! *requests* degrades to queueing — bounded in-flight sessions, zero
//! failed launches, monotonic queue drain — instead of fd/allocation
//! exhaustion. These tests drive a real daemon over its Unix control
//! socket with real client threads.

#![cfg(unix)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use launchmon::daemon::client::scratch_socket_path;
use launchmon::daemon::{bind_and_start, DaemonClient, DaemonConfig};
use launchmon::testkit::StormPlan;

fn storm_config() -> DaemonConfig {
    DaemonConfig {
        backends: 2,
        cluster_nodes: 64,
        admission_limit: 8,
        // Queue deep enough that the whole storm can wait: the test is
        // about bounding, not rejecting.
        queue_capacity: 1024,
        ..DaemonConfig::default()
    }
}

/// The headline acceptance test: ≈504 sessions, zero failures, in-flight
/// bounded by the admission limit, and a meaningful `/metrics` scrape.
#[test]
fn storm_of_504_sessions_queues_instead_of_failing() {
    let socket = scratch_socket_path("storm504");
    let _ = std::fs::remove_file(&socket);
    let cfg = storm_config();
    let limit = cfg.admission_limit;
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");
    let daemon = Arc::clone(handle.daemon());

    let plan = StormPlan::paper_504(7);
    assert_eq!(plan.total_sessions(), 504);

    let start = Arc::new(Barrier::new(plan.clients));
    let failures = Arc::new(AtomicUsize::new(0));
    let completed = Arc::new(AtomicUsize::new(0));

    let mut clients = Vec::new();
    for c in 0..plan.clients {
        let socket = socket.clone();
        let launches = plan.client_launches(c);
        let start = Arc::clone(&start);
        let failures = Arc::clone(&failures);
        let completed = Arc::clone(&completed);
        clients.push(std::thread::spawn(move || {
            let mut client = DaemonClient::connect_unix(&socket).expect("client connect");
            start.wait(); // every client fires its first launch together
            for l in launches {
                // `oneshot` bodies exit after the bootstrap barrier, so a
                // session's cost is pure launch + teardown.
                match client.launch("storm_app", l.nodes, l.tasks_per_node, "oneshot") {
                    Ok(resp) => {
                        // Kill releases the allocation; the permit frees
                        // only after teardown, keeping in-flight honest.
                        if client.kill(resp.gsid).is_err() {
                            failures.fetch_add(1, Ordering::SeqCst);
                        } else {
                            completed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(_) => {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }
    for t in clients {
        t.join().expect("client thread");
    }

    // Zero failed launches across the whole storm.
    assert_eq!(failures.load(Ordering::SeqCst), 0, "storm must not fail any launch");
    assert_eq!(completed.load(Ordering::SeqCst), 504);

    let adm = daemon.admission().stats();
    assert_eq!(adm.admitted_total, 504);
    assert_eq!(adm.rejected_total, 0);
    assert_eq!(adm.released_total, 504, "every permit returned");
    assert_eq!(adm.in_flight, 0);
    assert_eq!(adm.waiting, 0);
    // The §2 cliff, inverted: concurrency never exceeded the admission
    // limit even though 24 clients hammered concurrently.
    assert!(
        adm.peak_in_flight <= limit,
        "peak in-flight {} exceeded admission limit {limit}",
        adm.peak_in_flight
    );
    assert!(adm.peak_waiting > 0, "a storm this size must actually queue");

    // `/metrics` scrape: the admission, transport and health catalogs.
    let mut client = DaemonClient::connect_unix(&socket).expect("metrics client");
    let text = client.metrics().expect("metrics scrape");
    for series in [
        "lmond_launches_total 504",
        "lmond_admission_peak_in_flight",
        "lmond_transport_be_physical_links", // TransportStats
        "lmond_health_transitions_recorded_total", // HealthMonitor ledger
    ] {
        assert!(text.contains(series), "metrics missing {series:?} in:\n{text}");
    }
    // The health ledger actually saw the storm's sessions retire.
    let retired: f64 = text
        .lines()
        .filter(|l| l.starts_with("lmond_health_retired_sessions"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
        .sum();
    assert!(retired > 0.0, "storm sessions must appear in the health ledger");

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// Tail behavior under storm: FIFO admission means no launch is starved,
/// so the time-to-ready distribution stays *tight* — the p99 an unlucky
/// tool sees is a small multiple of the p50, not an unbounded wait behind
/// luckier competitors. (An unfair queue shows up here as p99 blowing out
/// to tens of p50 while the median stays flat.)
#[test]
fn storm_time_to_ready_tail_stays_bounded() {
    let socket = scratch_socket_path("stormtail");
    let _ = std::fs::remove_file(&socket);
    let cfg = DaemonConfig {
        backends: 2,
        cluster_nodes: 64,
        admission_limit: 4,
        queue_capacity: 1024,
        ..DaemonConfig::default()
    };
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");

    // 16 clients against a limit of 4: every launch spends real time in
    // the queue, so the measurement exercises wait + admit + launch.
    let plan = StormPlan::new(16, 4, 2, 11);
    let start = Arc::new(Barrier::new(plan.clients));
    let samples = Arc::new(std::sync::Mutex::new(Vec::new()));
    let clients: Vec<_> = (0..plan.clients)
        .map(|c| {
            let socket = socket.clone();
            let launches = plan.client_launches(c);
            let start = Arc::clone(&start);
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                let mut client = DaemonClient::connect_unix(&socket).expect("client connect");
                start.wait();
                for l in launches {
                    let t0 = std::time::Instant::now();
                    let resp = client
                        .launch("tail_app", l.nodes, l.tasks_per_node, "oneshot")
                        .expect("storm launch");
                    let ready_ms = t0.elapsed().as_secs_f64() * 1e3;
                    client.kill(resp.gsid).expect("kill");
                    samples.lock().unwrap().push(ready_ms);
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }

    let mut samples = Arc::try_unwrap(samples).unwrap().into_inner().unwrap();
    assert_eq!(samples.len(), plan.total_sessions());
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = samples[samples.len() / 2];
    let p99 = samples[(samples.len() * 99).div_ceil(100).min(samples.len() - 1)];
    // The floor keeps the ratio meaningful when the median is sub-ms on a
    // fast machine; the multiple is generous because the bound being
    // tested is structural (FIFO), not a performance target.
    assert!(
        p99 <= p50.max(1.0) * 10.0,
        "storm time-to-ready tail blew out: p50 {p50:.2}ms, p99 {p99:.2}ms"
    );

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// Queue-drain monotonicity, isolated: saturate the limit, park a known
/// number of waiters, then release sessions one at a time and watch the
/// queue depth step down by exactly one each time — no waiter is ever
/// re-queued or starved.
#[test]
fn admission_queue_drains_monotonically() {
    let socket = scratch_socket_path("stormdrain");
    let _ = std::fs::remove_file(&socket);
    let cfg = DaemonConfig {
        backends: 1,
        cluster_nodes: 32,
        admission_limit: 2,
        queue_capacity: 8,
        ..DaemonConfig::default()
    };
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");
    let daemon = Arc::clone(handle.daemon());

    // Fill the limit with sleeper sessions we control.
    let mut holder = DaemonClient::connect_unix(&socket).unwrap();
    let held: Vec<u64> =
        (0..2).map(|_| holder.launch("hold", 1, 1, "sleeper").unwrap().gsid).collect();

    // Park 4 more launches behind the full limit.
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut c = DaemonClient::connect_unix(&socket).unwrap();
                let gsid = c.launch("queued", 1, 1, "oneshot").unwrap().gsid;
                c.kill(gsid).unwrap();
            })
        })
        .collect();
    while daemon.admission().stats().waiting < 4 {
        std::thread::sleep(Duration::from_millis(2));
    }

    // Release one held session. Its freed slot cycles through the parked
    // oneshots (each admits, completes, frees the slot for the next), so
    // the queue drains while we sample its depth: with no new arrivals,
    // every sample must be <= the previous one — no waiter is ever
    // re-queued — and the drain must reach zero.
    holder.kill(held[0]).unwrap();
    let mut depths = vec![daemon.admission().stats().waiting];
    loop {
        let s = daemon.admission().stats();
        depths.push(s.waiting);
        if s.waiting == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        depths.windows(2).all(|w| w[1] <= w[0]),
        "queue depth must drain monotonically, got {depths:?}"
    );
    for w in waiters {
        w.join().unwrap();
    }
    holder.kill(held[1]).unwrap();
    let s = daemon.admission().stats();
    assert_eq!((s.waiting, s.in_flight), (0, 0));
    assert_eq!(s.admitted_total, 6, "2 held + 4 queued");
    assert!(s.peak_in_flight <= 2);

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// Beyond the queue bound the daemon sheds load with a retryable error —
/// the fd-exhaustion cliff becomes an explicit, typed "busy".
#[test]
fn overflowing_the_queue_is_a_clean_rejection() {
    let socket = scratch_socket_path("stormshed");
    let _ = std::fs::remove_file(&socket);
    let cfg = DaemonConfig {
        backends: 1,
        cluster_nodes: 8,
        admission_limit: 1,
        queue_capacity: 0, // no waiting: second launch must bounce
        ..DaemonConfig::default()
    };
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");

    let mut a = DaemonClient::connect_unix(&socket).unwrap();
    let gsid = a.launch("first", 1, 1, "sleeper").unwrap().gsid;

    let mut b = DaemonClient::connect_unix(&socket).unwrap();
    let err = b.launch("second", 1, 1, "oneshot").unwrap_err();
    assert!(
        err.to_string().contains("busy"),
        "overflow must be a retryable busy error, got: {err}"
    );

    a.kill(gsid).unwrap();
    let retry = b.launch("second", 1, 1, "oneshot").unwrap().gsid;
    b.kill(retry).unwrap();

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}
