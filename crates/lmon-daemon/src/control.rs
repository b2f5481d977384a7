//! The `lmond` control grammar: line-delimited text over a byte stream.
//!
//! One request per line, space-separated tokens; replies are either a
//! single `OK key=value ...` / `ERR <reason>` line or, for multi-line
//! payloads (`METRICS`), an `OK lines=<n>` header followed by exactly `n`
//! raw lines. Text rather than LMONP on purpose: control traffic is
//! low-rate human/ops traffic (`nc`, `curl`, shell scripts in CI must be
//! able to speak it), while the launch fabric behind the daemon keeps
//! using the binary protocol. The client speaks first: it opens with a
//! `HELLO` line and the daemon answers with its version banner — the
//! daemon writing first would corrupt HTTP scrapes, which expect the
//! status line to be the first bytes on the wire.
//!
//! There is one protocol. `HELLO` and `HELLO <n>` both get
//! [`HELLO_BANNER`]; `<n>` must be a number but changes nothing, and a
//! client that skips the handshake speaks the same grammar. Unknown verbs
//! get a typed `unsupported-verb` error ([`ParseError::UnsupportedVerb`]),
//! and a line longer than [`MAX_CONTROL_LINE`] gets `line-too-long` and
//! ends the connection.
//!
//! As a convenience for scrape tooling, a request line that looks like an
//! HTTP `GET /metrics` is answered with a minimal HTTP/1.0 response carrying
//! the same exposition text `METRICS` returns (so `curl` and Prometheus can
//! hit the TCP listener directly).

use std::time::Duration;

/// Banner the daemon answers a `HELLO` line with. Clients check only the
/// `LMOND` prefix.
pub const HELLO_BANNER: &str = "LMOND 2";

/// Longest request line the daemon reads, in bytes, not counting the
/// newline. The longest legitimate line is an `ATTACH` pid list; the bound
/// keeps a peer that never sends a newline from growing daemon memory.
pub const MAX_CONTROL_LINE: usize = 64 * 1024;

/// A parsed control request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Protocol handshake (`HELLO [<n>]`): answered with the raw
    /// [`HELLO_BANNER`] line.
    Hello,
    /// Liveness probe.
    Ping,
    /// Admit (queueing if necessary) and launch a session.
    Launch {
        /// Application executable to launch under tool control.
        app: String,
        /// Nodes to launch across.
        nodes: usize,
        /// Application tasks per node.
        tasks_per_node: usize,
        /// Registered daemon-body name (`sleeper`, `oneshot`, ...).
        body: String,
    },
    /// Attach tool daemons to already-running jobs, one session per pid.
    Attach {
        /// Launcher pids of the running jobs to attach to.
        pids: Vec<u64>,
        /// Registered daemon-body name (`sleeper`, `oneshot`, ...).
        body: String,
    },
    /// Start a plain (tool-free) job on the resource manager, so a later
    /// `ATTACH` has something to attach to.
    RunJob {
        /// Application executable.
        app: String,
        /// Nodes to launch across.
        nodes: usize,
        /// Application tasks per node.
        tasks_per_node: usize,
    },
    /// Daemon-wide status summary.
    Status,
    /// One session's status.
    SessionStatus {
        /// Daemon-wide session id (from the `LAUNCH` reply).
        gsid: u64,
    },
    /// Detach a session: daemons shut down, job keeps running.
    Detach {
        /// Daemon-wide session id.
        gsid: u64,
    },
    /// Kill a session: job and daemons destroyed, allocation released.
    Kill {
        /// Daemon-wide session id.
        gsid: u64,
    },
    /// Prometheus exposition text.
    Metrics,
    /// Stop the daemon (drains the admission queue with errors).
    Shutdown,
    /// HTTP `GET <path>` compatibility request (TCP scrapes).
    HttpGet {
        /// The requested path (`/metrics`).
        path: String,
    },
}

/// Default daemon body used when a `LAUNCH` line omits one.
pub const DEFAULT_BODY: &str = "sleeper";

/// Why a request line failed to parse. The two cases render differently:
/// a malformed known verb carries its usage string, while an unknown verb
/// becomes a typed `unsupported-verb` error ([`ParseError::reply`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A known verb with bad arguments; carries the reason/usage text.
    Malformed(String),
    /// A verb the daemon does not speak; carries the verb.
    UnsupportedVerb(String),
}

impl ParseError {
    /// The `ERR` reply for this parse failure. The argument, the version a
    /// client's `HELLO` named, does not change the reply (there is one
    /// protocol); it stays so that callers passing it keep compiling.
    pub fn reply(&self, _version: u32) -> Reply {
        Reply::Err(self.to_string())
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(reason) => f.write_str(reason),
            ParseError::UnsupportedVerb(verb) => write!(f, "unsupported-verb {verb:?}"),
        }
    }
}

fn malformed(reason: impl Into<String>) -> ParseError {
    ParseError::Malformed(reason.into())
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let mut toks = line.split_whitespace();
        let Some(cmd) = toks.next() else {
            return Err(malformed("empty request"));
        };
        let rest: Vec<&str> = toks.collect();
        match (cmd.to_ascii_uppercase().as_str(), rest.as_slice()) {
            ("HELLO", []) => Ok(Request::Hello),
            ("HELLO", [v, ..]) => {
                parse_num::<u32>(v, "protocol version")?;
                Ok(Request::Hello)
            }
            ("PING", []) => Ok(Request::Ping),
            ("LAUNCH", [app, nodes, tpn]) => Ok(Request::Launch {
                app: (*app).to_string(),
                nodes: parse_num(nodes, "nodes")?,
                tasks_per_node: parse_num(tpn, "tasks_per_node")?,
                body: DEFAULT_BODY.to_string(),
            }),
            ("LAUNCH", [app, nodes, tpn, body]) => Ok(Request::Launch {
                app: (*app).to_string(),
                nodes: parse_num(nodes, "nodes")?,
                tasks_per_node: parse_num(tpn, "tasks_per_node")?,
                body: (*body).to_string(),
            }),
            ("LAUNCH", _) => Err(malformed("usage: LAUNCH <app> <nodes> <tasks_per_node> [body]")),
            ("ATTACH", []) => Err(malformed("usage: ATTACH <pid> [<pid>...] [body]")),
            ("ATTACH", toks) => {
                // Every leading numeric token is a pid; one trailing
                // non-numeric token names the daemon body.
                let mut pids = Vec::new();
                let mut body = DEFAULT_BODY.to_string();
                for (i, tok) in toks.iter().enumerate() {
                    match tok.parse::<u64>() {
                        Ok(pid) => pids.push(pid),
                        Err(_) if i == toks.len() - 1 => body = (*tok).to_string(),
                        Err(_) => return Err(malformed(format!("bad pid: {tok:?}"))),
                    }
                }
                if pids.is_empty() {
                    return Err(malformed("usage: ATTACH <pid> [<pid>...] [body]"));
                }
                Ok(Request::Attach { pids, body })
            }
            ("RUNJOB", [app, nodes, tpn]) => Ok(Request::RunJob {
                app: (*app).to_string(),
                nodes: parse_num(nodes, "nodes")?,
                tasks_per_node: parse_num(tpn, "tasks_per_node")?,
            }),
            ("RUNJOB", _) => Err(malformed("usage: RUNJOB <app> <nodes> <tasks_per_node>")),
            ("STATUS", []) => Ok(Request::Status),
            ("STATUS", [gsid]) => Ok(Request::SessionStatus { gsid: parse_num(gsid, "gsid")? }),
            ("DETACH", [gsid]) => Ok(Request::Detach { gsid: parse_num(gsid, "gsid")? }),
            ("KILL", [gsid]) => Ok(Request::Kill { gsid: parse_num(gsid, "gsid")? }),
            ("METRICS", []) => Ok(Request::Metrics),
            ("SHUTDOWN", []) => Ok(Request::Shutdown),
            // `GET /metrics HTTP/1.1` — tolerate any trailing HTTP version.
            ("GET", [path, ..]) => Ok(Request::HttpGet { path: (*path).to_string() }),
            (other, _) => Err(ParseError::UnsupportedVerb(other.to_string())),
        }
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, ParseError> {
    tok.parse().map_err(|_| malformed(format!("bad {what}: {tok:?}")))
}

/// A control reply, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Single-line success with `key=value` fields.
    Ok(Vec<(String, String)>),
    /// Multi-line success (`OK lines=<n>` + raw payload lines).
    OkLines(Vec<String>),
    /// Single-line failure.
    Err(String),
}

impl Reply {
    /// Success with fields.
    pub fn ok(fields: &[(&str, String)]) -> Reply {
        Reply::Ok(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect())
    }

    /// Serialize, newline-terminated.
    pub fn render(&self) -> String {
        match self {
            Reply::Ok(fields) => {
                let mut line = String::from("OK");
                for (k, v) in fields {
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    line.push_str(v);
                }
                line.push('\n');
                line
            }
            Reply::OkLines(lines) => {
                let mut out = format!("OK lines={}\n", lines.len());
                for l in lines {
                    out.push_str(l);
                    out.push('\n');
                }
                out
            }
            Reply::Err(reason) => format!("ERR {reason}\n"),
        }
    }
}

/// A reply parsed on the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedReply {
    /// `key=value` fields from an `OK` line (empty for multi-line replies).
    pub fields: Vec<(String, String)>,
    /// Payload lines from an `OK lines=<n>` reply.
    pub body: Vec<String>,
}

impl ParsedReply {
    /// Look up an `OK` field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Look up and parse an `OK` field.
    pub fn field_as<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.field(key)?.parse().ok()
    }
}

/// Parse the header line of a reply: `Ok(Some(n))` means "read `n` payload
/// lines next", `Ok(None)` a complete single-line reply.
pub fn parse_reply_header(line: &str) -> Result<(ParsedReply, Option<usize>), String> {
    if let Some(reason) = line.strip_prefix("ERR") {
        return Err(reason.trim().to_string());
    }
    let Some(rest) = line.strip_prefix("OK") else {
        return Err(format!("malformed reply: {line:?}"));
    };
    let fields: Vec<(String, String)> = rest
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let reply = ParsedReply { fields, body: Vec::new() };
    if let Some(n) = reply.field_as::<usize>("lines") {
        Ok((reply, Some(n)))
    } else {
        Ok((reply, None))
    }
}

/// How long a client waits for a reply before declaring the daemon hung.
/// Generous: a `LAUNCH` may sit in the admission queue behind a storm.
pub const CLIENT_REPLY_TIMEOUT: Duration = Duration::from_secs(120);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(Request::parse("HELLO").unwrap(), Request::Hello);
        assert_eq!(Request::parse("HELLO 2").unwrap(), Request::Hello);
        assert_eq!(Request::parse("PING").unwrap(), Request::Ping);
        assert_eq!(
            Request::parse("LAUNCH app 4 2").unwrap(),
            Request::Launch {
                app: "app".into(),
                nodes: 4,
                tasks_per_node: 2,
                body: DEFAULT_BODY.into()
            }
        );
        assert_eq!(
            Request::parse("launch app 4 2 oneshot").unwrap(),
            Request::Launch {
                app: "app".into(),
                nodes: 4,
                tasks_per_node: 2,
                body: "oneshot".into()
            }
        );
        assert_eq!(
            Request::parse("ATTACH 4242").unwrap(),
            Request::Attach { pids: vec![4242], body: DEFAULT_BODY.into() }
        );
        assert_eq!(
            Request::parse("attach 1 2 3 oneshot").unwrap(),
            Request::Attach { pids: vec![1, 2, 3], body: "oneshot".into() }
        );
        assert_eq!(
            Request::parse("RUNJOB app 4 2").unwrap(),
            Request::RunJob { app: "app".into(), nodes: 4, tasks_per_node: 2 }
        );
        assert_eq!(Request::parse("STATUS").unwrap(), Request::Status);
        assert_eq!(Request::parse("STATUS 17").unwrap(), Request::SessionStatus { gsid: 17 });
        assert_eq!(Request::parse("DETACH 3").unwrap(), Request::Detach { gsid: 3 });
        assert_eq!(Request::parse("KILL 3").unwrap(), Request::Kill { gsid: 3 });
        assert_eq!(Request::parse("METRICS").unwrap(), Request::Metrics);
        assert_eq!(Request::parse("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(
            Request::parse("GET /metrics HTTP/1.1").unwrap(),
            Request::HttpGet { path: "/metrics".into() }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        let reason = |line: &str| Request::parse(line).unwrap_err().to_string();
        assert!(reason("").contains("empty"));
        assert!(reason("LAUNCH app").contains("usage"));
        assert!(reason("LAUNCH app x 2").contains("bad nodes"));
        assert!(reason("DETACH abc").contains("bad gsid"));
        assert!(reason("ATTACH").contains("usage"));
        assert!(reason("ATTACH body 17").contains("bad pid"));
        assert!(reason("ATTACH oneshot").contains("usage"));
        assert!(reason("RUNJOB app 4").contains("usage"));
        assert!(reason("HELLO two").contains("bad protocol version"));
        // Malformed known verbs are not "unsupported": the typed variant
        // is reserved for verbs the daemon does not speak at all.
        assert!(matches!(Request::parse("LAUNCH app").unwrap_err(), ParseError::Malformed(_)));
    }

    #[test]
    fn unknown_verbs_are_typed() {
        let err = Request::parse("FROB 1").unwrap_err();
        assert_eq!(err, ParseError::UnsupportedVerb("FROB".into()));
        assert_eq!(err.reply(2).render(), "ERR unsupported-verb \"FROB\"\n");
        // `UPGRADE` is not a verb: it gets the typed error, not a usage string.
        assert_eq!(
            Request::parse("UPGRADE").unwrap_err(),
            ParseError::UnsupportedVerb("UPGRADE".into())
        );
    }

    #[test]
    fn reply_roundtrip() {
        let r = Reply::ok(&[("gsid", "7".to_string()), ("daemons", "4".to_string())]);
        let rendered = r.render();
        assert_eq!(rendered, "OK gsid=7 daemons=4\n");
        let (parsed, more) = parse_reply_header(rendered.trim_end()).unwrap();
        assert_eq!(more, None);
        assert_eq!(parsed.field_as::<u64>("gsid"), Some(7));
        assert_eq!(parsed.field("daemons"), Some("4"));

        let multi = Reply::OkLines(vec!["a 1".into(), "b 2".into()]).render();
        let mut lines = multi.lines();
        let (_, more) = parse_reply_header(lines.next().unwrap()).unwrap();
        assert_eq!(more, Some(2));
        assert_eq!(lines.collect::<Vec<_>>(), vec!["a 1", "b 2"]);

        let err = Reply::Err("busy".into()).render();
        assert_eq!(parse_reply_header(err.trim_end()).unwrap_err(), "busy");
    }
}
