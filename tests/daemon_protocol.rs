//! The control-protocol handshake and the control-line bound.
//!
//! The wire contract under test: the client speaks first with an optional
//! `HELLO [n]`, the server answers the one banner whatever `n` is, and the
//! connection then speaks the one grammar — a client that skips the
//! handshake included. Unknown verbs come back as a *typed*
//! `unsupported-verb` error, never as a generic parse failure, and a line
//! past `MAX_CONTROL_LINE` gets a typed `line-too-long` error instead of
//! growing the daemon's memory.

#![cfg(unix)]

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use launchmon::daemon::client::scratch_socket_path;
use launchmon::daemon::control::{HELLO_BANNER, MAX_CONTROL_LINE};
use launchmon::daemon::{bind_and_start, DaemonClient, DaemonConfig, DaemonHandle};

/// A line-oriented client with no protocol smarts at all: what a shell
/// script holding `nc -U` sees.
struct RawClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl RawClient {
    fn connect(socket: &Path) -> Self {
        let writer = UnixStream::connect(socket).expect("raw connect");
        writer.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        RawClient { reader, writer }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
    }

    /// One reply line, newline intact.
    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.read_line()
    }
}

fn daemon_up(tag: &str) -> (DaemonHandle, PathBuf) {
    let socket = scratch_socket_path(tag);
    let _ = std::fs::remove_file(&socket);
    let cfg = DaemonConfig { backends: 1, cluster_nodes: 16, ..DaemonConfig::default() };
    let handle = bind_and_start(cfg, &socket, None).expect("daemon up");
    (handle, socket)
}

/// The opening every client of the one protocol gets, checked on a fresh
/// raw connection after its optional `HELLO`: `PING` answers, unknown verbs
/// (`UPGRADE` among them) are typed errors, and a parse error never wedges
/// the connection.
fn speaks_the_one_grammar(raw: &mut RawClient, hello: Option<&str>) {
    let pong = raw.roundtrip("PING");
    assert!(pong.starts_with("OK pong=1"), "{hello:?}: PING answered {pong:?}");
    assert_eq!(raw.roundtrip("FROB"), "ERR unsupported-verb \"FROB\"\n", "{hello:?}");
    assert_eq!(raw.roundtrip("UPGRADE"), "ERR unsupported-verb \"UPGRADE\"\n", "{hello:?}");
    assert!(raw.roundtrip("PING").starts_with("OK pong=1"), "{hello:?}");
}

/// A client written against the original grammar — a bare `HELLO`, or
/// `HELLO 1` — gets the one banner and keeps working verb for verb.
#[test]
fn v1_client_against_v2_server_round_trips() {
    let (handle, socket) = daemon_up("proto-v1");
    for hello in ["HELLO", "HELLO 1"] {
        let mut raw = RawClient::connect(&socket);
        assert_eq!(raw.roundtrip(hello), format!("{HELLO_BANNER}\n"), "{hello:?}");
        speaks_the_one_grammar(&mut raw, Some(hello));
    }
    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// A client that never sends `HELLO` at all (the pre-handshake grammar
/// shell scripts rely on) speaks the same protocol as everyone else.
#[test]
fn silent_client_defaults_to_v1() {
    let (handle, socket) = daemon_up("proto-silent");
    let mut raw = RawClient::connect(&socket);
    speaks_the_one_grammar(&mut raw, None);
    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// The typed client's handshake sees the one banner; `HELLO 2` and a
/// future `HELLO 99` get it too rather than a refusal, and only a
/// malformed version is rejected.
#[test]
fn v2_negotiation_end_to_end() {
    let (handle, socket) = daemon_up("proto-v2");

    let mut typed = DaemonClient::connect_unix(&socket).expect("typed connect");
    assert_eq!(typed.banner(), HELLO_BANNER);
    assert!(HELLO_BANNER.starts_with("LMOND"), "clients prefix-match the banner");
    typed.ping().expect("typed ping");

    for hello in ["HELLO 2", "HELLO 99"] {
        let mut raw = RawClient::connect(&socket);
        assert_eq!(raw.roundtrip(hello), format!("{HELLO_BANNER}\n"), "{hello:?}");
        speaks_the_one_grammar(&mut raw, Some(hello));
    }

    let mut raw = RawClient::connect(&socket);
    assert_eq!(raw.roundtrip("HELLO two"), "ERR bad protocol version: \"two\"\n");

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}

/// A peer that streams past `MAX_CONTROL_LINE` bytes without a newline is
/// answered `ERR line-too-long` and disconnected; the daemon keeps serving
/// everyone else.
#[test]
fn overlong_line_is_refused_and_the_daemon_keeps_serving() {
    let (handle, socket) = daemon_up("proto-longline");
    let mut raw = RawClient::connect(&socket);

    // Stream from a second thread, so the reply can be read while the
    // writer is still pushing bytes (or is stopped by the closed socket).
    let mut flood = raw.writer.try_clone().expect("clone stream");
    let streamer = std::thread::spawn(move || {
        let chunk = [b'x'; 4096];
        let mut sent = 0usize;
        while sent <= 4 * MAX_CONTROL_LINE {
            match flood.write(&chunk) {
                Ok(n) => sent += n,
                Err(_) => break, // the daemon hung up, as it should
            }
        }
        sent
    });
    let reply = raw.read_line();
    assert_eq!(reply, format!("ERR line-too-long limit={MAX_CONTROL_LINE}\n"));
    let sent = streamer.join().expect("streamer");
    assert!(sent > MAX_CONTROL_LINE, "streamed {sent} bytes");
    // Closed: EOF, or a reset because the streamed bytes went unread.
    let mut rest = String::new();
    match raw.reader.read_line(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("connection still open: {other:?} {rest:?}"),
    }

    let mut fresh = RawClient::connect(&socket);
    assert!(fresh.roundtrip("PING").starts_with("OK pong=1"));

    handle.shutdown();
    let _ = std::fs::remove_file(&socket);
}
