//! The measured process and how the benchmark talks to it: a child process
//! (`lmond serve`, or a `lmonbench` worker), its `/proc` footprint, and a
//! control-protocol line client with a bench-side reply deadline.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use lmon_daemon::control::{parse_reply_header, ParsedReply};

/// How long the benchmark waits for any one reply. Far below the daemon
/// client's own 120 s `CLIENT_REPLY_TIMEOUT`, so a hung daemon turns into
/// counted failures inside the run instead of a stalled benchmark.
pub const REPLY_DEADLINE: Duration = Duration::from_secs(5);

/// How long a stopped child may take to exit before it is killed.
const STOP_GRACE: Duration = Duration::from_secs(30);

/// One `/proc/<pid>` reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub rss_kb: u64,
    pub threads: u64,
    pub fds: u64,
    pub maps: u64,
}

/// Read VmRSS, Threads, the open-fd count and the mapping count of `pid`;
/// `None` once the process is gone (or a zombie, which has no VmRSS).
pub fn sample(pid: u32) -> Option<ProcSample> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |name: &str| -> Option<u64> {
        status.lines().find_map(|l| l.strip_prefix(name))?.split_whitespace().next()?.parse().ok()
    };
    let rss_kb = field("VmRSS:")?;
    let threads = field("Threads:")?;
    let fds = fs::read_dir(format!("/proc/{pid}/fd")).ok()?.count() as u64;
    let maps =
        fs::read(format!("/proc/{pid}/maps")).ok()?.iter().filter(|&&b| b == b'\n').count() as u64;
    Some(ProcSample { rss_kb, threads, fds, maps })
}

/// A spawned child whose exit the benchmark records instead of hiding.
pub struct Target {
    child: Child,
    exit: Option<String>,
}

fn describe(status: ExitStatus) -> String {
    match (status.code(), status.signal()) {
        (Some(code), _) => format!("exit code {code}"),
        (None, Some(sig)) => format!("killed by signal {sig}"),
        _ => "exited".into(),
    }
}

impl Target {
    /// Spawn `cmd` with stdin closed and stderr discarded.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Target> {
        let child = cmd.stdin(Stdio::null()).stderr(Stdio::null()).spawn()?;
        Ok(Target { child, exit: None })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `Some(description)` once the child has exited.
    pub fn exited(&mut self) -> Option<String> {
        if self.exit.is_none() {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.exit = Some(describe(status));
            }
        }
        self.exit.clone()
    }

    /// The child's stdout pipe, when it was spawned with one.
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// Wait for an exit already requested (e.g. by `SHUTDOWN`); kill the
    /// child if it outlives the grace period. Always reaps it.
    pub fn finish(&mut self) {
        let deadline = Instant::now() + STOP_GRACE;
        while self.exited().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if self.exited().is_none() {
            let _ = self.child.kill();
            if let Ok(status) = self.child.wait() {
                self.exit = Some(format!("{} (killed after {STOP_GRACE:?})", describe(status)));
            }
        }
    }

    /// Ask a control-protocol server to shut down, then [`Target::finish`].
    pub fn stop(&mut self, socket: &Path) {
        if self.exited().is_none() {
            if let Ok(mut conn) = Conn::open(socket) {
                let _ = conn.request("SHUTDOWN");
            }
        }
        self.finish();
    }
}

impl Drop for Target {
    fn drop(&mut self) {
        if self.exited().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Why a request did not produce an `OK` reply.
#[derive(Debug)]
pub enum Fail {
    /// The server answered `ERR <reason>`.
    Refused(String),
    /// No usable reply: EOF, deadline passed, or the socket is gone.
    Io(String),
    /// An `OK` reply whose content failed a benchmark check.
    Check(String),
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Refused(r) => write!(f, "ERR {r}"),
            Fail::Io(e) => write!(f, "io: {e}"),
            Fail::Check(c) => write!(f, "check failed: {c}"),
        }
    }
}

/// One control connection (line protocol, one request in flight).
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn open(path: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(REPLY_DEADLINE))?;
        stream.set_write_timeout(Some(REPLY_DEADLINE))?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    fn read_line(&mut self) -> Result<String, Fail> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(Fail::Io("connection closed".into())),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(Fail::Io(e.to_string())),
        }
    }

    /// The client-speaks-first handshake the `lmond` CLI performs.
    pub fn hello(&mut self) -> Result<(), Fail> {
        self.writer.write_all(b"HELLO 2\n").map_err(|e| Fail::Io(e.to_string()))?;
        let banner = self.read_line()?;
        if banner.starts_with("LMOND") {
            Ok(())
        } else {
            Err(Fail::Check(format!("HELLO answered {banner:?}")))
        }
    }

    /// Send one request line and read its whole reply.
    pub fn request(&mut self, line: &str) -> Result<ParsedReply, Fail> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| Fail::Io(e.to_string()))?;
        let header = self.read_line()?;
        let (mut reply, body_lines) = parse_reply_header(&header).map_err(Fail::Refused)?;
        for _ in 0..body_lines.unwrap_or(0) {
            let l = self.read_line()?;
            reply.body.push(l);
        }
        Ok(reply)
    }
}

/// Poll `socket` until the server behind it answers `PING` (or `target`
/// exits, or `limit` passes). Returns when the first `PONG` arrived.
pub fn await_pong(target: &mut Target, socket: &Path, limit: Duration) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if let Ok(mut conn) = Conn::open(socket) {
            match conn.request("PING") {
                Ok(r) if r.field("pong") == Some("1") => return Ok(()),
                Ok(r) => return Err(format!("PING answered {:?}", r.fields)),
                Err(e) => return Err(format!("PING failed: {e}")),
            }
        }
        if let Some(exit) = target.exited() {
            return Err(format!("server exited before answering PING: {exit}"));
        }
        if start.elapsed() > limit {
            return Err(format!("no PONG within {limit:?}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Socket paths live under the checkout, relative to the working directory
/// (an absolute path in a deep checkout can exceed `sun_path`'s 108 bytes).
pub fn socket_path(run_dir: &Path, tag: &str) -> PathBuf {
    run_dir.join(format!("{tag}-{}.sock", std::process::id()))
}
