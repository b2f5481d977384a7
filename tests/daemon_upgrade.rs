//! Attach-path daemon tests: the `RUNJOB`/`ATTACH` control verbs
//! round-tripped over a real Unix socket, and the typed client checked
//! byte for byte against a raw one.

#![cfg(unix)]

use launchmon::daemon::client::scratch_socket_path;
use launchmon::daemon::{bind_and_start, DaemonClient, DaemonConfig};

fn config() -> DaemonConfig {
    DaemonConfig {
        backends: 1,
        cluster_nodes: 64,
        admission_limit: 8,
        queue_capacity: 64,
        ..DaemonConfig::default()
    }
}

/// The paper's attach-mode workflow over the control socket: start a plain
/// job (`RUNJOB`), attach tool daemons to its launcher pid (`ATTACH`),
/// inspect the session, detach — job keeps running, session retires.
#[test]
fn runjob_then_attach_round_trip() {
    let socket = scratch_socket_path("attach-rt");
    let _ = std::fs::remove_file(&socket);
    let handle = bind_and_start(config(), &socket, None).expect("daemon up");

    let mut client = DaemonClient::connect_unix(&socket).expect("connect");
    let job = client.run_job("attach_app", 4, 2).expect("runjob");
    assert!(job.pid > 0 && job.job > 0);
    let pid = job.pid;

    let attached = client.attach(&[pid], "sleeper").expect("attach");
    assert_eq!(attached.gsids.len(), 1);

    let status = client.session_status(attached.gsids[0]).expect("session status");
    assert_eq!(status.app, format!("attach:pid={pid}"));
    assert_eq!(status.daemons, 4, "one daemon per job node");

    let daemon_status = client.status().expect("status");
    assert_eq!(daemon_status.sessions, 1);

    client.detach(attached.gsids[0]).expect("detach");
    assert_eq!(client.status().unwrap().sessions, 0);

    // A pid nobody is running must be rejected up front, before any
    // session or permit is created.
    let err = client.attach(&[999_999_999], "sleeper").unwrap_err();
    assert!(err.to_string().contains("no running process"), "got: {err}");

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// One `ATTACH` line with several pids creates one admitted session per
/// pid, all reported in request order.
#[test]
fn attach_multiple_pids_in_one_request() {
    let socket = scratch_socket_path("attach-multi");
    let _ = std::fs::remove_file(&socket);
    let handle = bind_and_start(config(), &socket, None).expect("daemon up");
    let daemon = std::sync::Arc::clone(handle.daemon());

    let mut client = DaemonClient::connect_unix(&socket).expect("connect");
    let pid_a = client.run_job("job_a", 2, 1).expect("runjob a").pid;
    let pid_b = client.run_job("job_b", 3, 1).expect("runjob b").pid;

    let attached = client.attach(&[pid_a, pid_b], "sleeper").expect("attach both");
    let gsids = attached.gsids;
    assert_eq!(gsids.len(), 2);
    assert_eq!(daemon.sessions_active(), 2);
    let daemons_a = client.session_status(gsids[0]).unwrap().daemons;
    let daemons_b = client.session_status(gsids[1]).unwrap().daemons;
    assert_eq!((daemons_a, daemons_b), (2, 3), "gsids are in pid order");

    // Each attach holds its own admission permit; both free on detach.
    assert_eq!(daemon.admission().stats().in_flight, 2);
    for gsid in gsids {
        client.detach(gsid).expect("detach");
    }
    assert_eq!(daemon.admission().stats().in_flight, 0);

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// The typed wrappers are *pure parsing* over the wire bytes: for the
/// same request line, a typed [`DaemonClient`] and a raw line-oriented
/// client read byte-identical replies, and the typed view agrees with a
/// hand parse of those bytes.
#[test]
fn typed_and_raw_clients_see_identical_bytes() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::os::unix::net::UnixStream;

    let socket = scratch_socket_path("typed-raw");
    let _ = std::fs::remove_file(&socket);
    let handle = bind_and_start(config(), &socket, None).expect("daemon up");

    let mut typed = DaemonClient::connect_unix(&socket).expect("typed connect");
    let launched = typed.launch("bytes_app", 2, 1, "sleeper").expect("launch");
    let gsid = launched.gsid;

    // A raw client on its own connection, same HELLO as the typed one
    // sends, reading whole reply lines with no parsing.
    let raw_stream = UnixStream::connect(&socket).expect("raw connect");
    let mut raw_writer = raw_stream.try_clone().expect("clone");
    let mut raw_reader = BufReader::new(raw_stream);
    let mut raw_line = |req: &str| -> String {
        writeln!(raw_writer, "{req}").unwrap();
        raw_writer.flush().unwrap();
        let mut line = String::new();
        raw_reader.read_line(&mut line).unwrap();
        line
    };
    let banner = raw_line("HELLO");
    assert_eq!(banner.trim_end(), typed.banner(), "both clients see the same banner");

    // Same request, both transports: the bytes must match exactly. The
    // session-status reply is a pure function of daemon state (no
    // timestamps beyond whole-second age, and the session is seconds old).
    for req in [format!("STATUS {gsid}"), "FROB".to_string(), format!("KILL {}", u64::MAX)] {
        let via_typed = typed.request_raw(&req).expect("typed raw bytes");
        let via_raw = raw_line(&req);
        assert_eq!(via_typed, via_raw, "reply bytes diverged for {req:?}");
    }

    // And the typed wrapper is exactly a parse of those bytes.
    let bytes = typed.request_raw(&format!("STATUS {gsid}")).expect("raw scrape");
    let status = typed.session_status(gsid).expect("typed view");
    for (key, value) in &status.raw().fields {
        assert!(
            bytes.contains(&format!("{key}={value}")),
            "typed field {key}={value} not present in raw bytes {bytes:?}"
        );
    }
    assert_eq!(status.gsid, gsid);

    typed.kill(gsid).expect("kill");
    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}
