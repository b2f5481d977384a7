//! `lmond` — CLI for the persistent LaunchMON launch daemon.
//!
//! ```text
//! lmond serve   [--socket PATH] [--tcp ADDR] [--backends N] [--groups N]
//!               [--nodes N] [--limit N] [--queue N]
//! lmond ping    [--socket PATH | --tcp ADDR]
//! lmond status  [GSID] [--socket PATH | --tcp ADDR]
//! lmond launch  APP NODES TASKS_PER_NODE [BODY] [--socket ... | --tcp ...]
//! lmond runjob  APP NODES TASKS_PER_NODE [...]
//! lmond attach  PID [PID...] [BODY] [...]
//! lmond detach  GSID   [...]
//! lmond kill    GSID   [...]
//! lmond metrics [...]
//! lmond stop    [...]
//! ```
//!
//! `runjob` starts a plain (tool-free) job and prints the launcher pid;
//! `attach` then attaches tool daemons to that pid — the paper's
//! attach-to-running-job workflow over the control socket.
//!
//! Client subcommands lazily start a daemon when `--socket` is used and no
//! daemon is serving (bind-as-mutex; see `lmon_daemon::client`). `serve`
//! runs in the foreground until a client sends `SHUTDOWN` (`lmond stop`).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use launchmon::daemon::client::connect_or_start;
use launchmon::daemon::daemon::bind_and_start;
use launchmon::daemon::{Daemon, DaemonClient, DaemonConfig};

/// Print a line to stdout, ignoring broken pipes: `lmond status | grep -q`
/// closes the pipe after the first match, which must not be an error.
fn say(text: impl std::fmt::Display) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{text}");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lmond <serve|ping|status|launch|runjob|attach|detach|kill|metrics|stop> \
         [args] [--socket PATH] [--tcp ADDR]\n       see `src/bin/lmond.rs` docs for details"
    );
    ExitCode::FAILURE
}

/// Options shared by every subcommand.
struct CommonOpts {
    socket: PathBuf,
    tcp: Option<SocketAddr>,
    /// Positional (non-flag) arguments, in order.
    positional: Vec<String>,
    /// Flag values for `serve` tunables.
    backends: Option<usize>,
    groups: Option<usize>,
    nodes: Option<usize>,
    limit: Option<usize>,
    queue: Option<usize>,
}

fn default_socket() -> PathBuf {
    std::env::temp_dir().join("lmond.sock")
}

fn parse_opts(args: &[String]) -> Result<CommonOpts, String> {
    let mut opts = CommonOpts {
        socket: default_socket(),
        tcp: None,
        positional: Vec::new(),
        backends: None,
        groups: None,
        nodes: None,
        limit: None,
        queue: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| {
            it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--socket" => opts.socket = PathBuf::from(flag_value("--socket")?),
            "--tcp" => {
                let v = flag_value("--tcp")?;
                opts.tcp = Some(v.parse().map_err(|e| format!("bad --tcp {v:?}: {e}"))?);
            }
            "--backends" => opts.backends = Some(parse_flag(flag_value("--backends")?)?),
            "--groups" => opts.groups = Some(parse_flag(flag_value("--groups")?)?),
            "--nodes" => opts.nodes = Some(parse_flag(flag_value("--nodes")?)?),
            "--limit" => opts.limit = Some(parse_flag(flag_value("--limit")?)?),
            "--queue" => opts.queue = Some(parse_flag(flag_value("--queue")?)?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => opts.positional.push(other.to_string()),
        }
    }
    Ok(opts)
}

fn parse_flag<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad numeric value {v:?}"))
}

fn config_from(opts: &CommonOpts) -> DaemonConfig {
    let mut cfg = DaemonConfig::default();
    if let Some(n) = opts.backends {
        cfg.backends = n;
    }
    if let Some(n) = opts.groups {
        cfg.groups = n;
    }
    if let Some(n) = opts.nodes {
        cfg.cluster_nodes = n;
    }
    if let Some(n) = opts.limit {
        cfg.admission_limit = n;
    }
    if let Some(n) = opts.queue {
        cfg.queue_capacity = n;
    }
    cfg
}

/// Connect for a client subcommand: TCP if `--tcp` was given, otherwise the
/// Unix socket with lazy start.
fn connect(opts: &CommonOpts) -> Result<DaemonClient, String> {
    if let Some(addr) = opts.tcp {
        return DaemonClient::connect_tcp(addr).map_err(|e| e.to_string());
    }
    let cfg = config_from(opts);
    connect_or_start(&opts.socket, || Daemon::new(cfg))
        .map(|outcome| outcome.into_client())
        .map_err(|e| e.to_string())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let opts = parse_opts(rest)?;

    match cmd.as_str() {
        "serve" => {
            // `bind_and_start` reaps a stale socket but refuses to displace
            // a live daemon ("already serving") — never blind-unlink here.
            let handle = bind_and_start(config_from(&opts), &opts.socket, opts.tcp)
                .map_err(|e| format!("failed to start daemon on {}: {e}", opts.socket.display()))?;
            eprintln!(
                "lmond serving on {}{}",
                opts.socket.display(),
                handle.tcp_addr().map(|a| format!(" and tcp {a}")).unwrap_or_default()
            );
            handle.join(); // returns after a client SHUTDOWN
            eprintln!("lmond stopped");
            Ok(())
        }
        "ping" => {
            connect(&opts)?.ping().map_err(|e| e.to_string())?;
            say("pong");
            Ok(())
        }
        "status" => {
            let mut client = connect(&opts)?;
            // Typed views validate the reply; the raw field bag is what we
            // print, so forward-compat fields still show up.
            match opts.positional.first() {
                Some(gsid) => {
                    let st = client.session_status(parse_flag(gsid)?).map_err(|e| e.to_string())?;
                    for (k, v) in &st.raw().fields {
                        say(format_args!("{k}={v}"));
                    }
                }
                None => {
                    let st = client.status().map_err(|e| e.to_string())?;
                    for (k, v) in &st.raw().fields {
                        say(format_args!("{k}={v}"));
                    }
                }
            }
            Ok(())
        }
        "launch" => {
            let [app, nodes, tpn, rest @ ..] = opts.positional.as_slice() else {
                return Err("usage: lmond launch APP NODES TASKS_PER_NODE [BODY]".into());
            };
            let body = rest.first().map(String::as_str).unwrap_or("sleeper");
            let resp = connect(&opts)?
                .launch(app, parse_flag(nodes)?, parse_flag(tpn)?, body)
                .map_err(|e| e.to_string())?;
            say(resp.gsid);
            Ok(())
        }
        "runjob" => {
            let [app, nodes, tpn] = opts.positional.as_slice() else {
                return Err("usage: lmond runjob APP NODES TASKS_PER_NODE".into());
            };
            let resp = connect(&opts)?
                .run_job(app, parse_flag(nodes)?, parse_flag(tpn)?)
                .map_err(|e| e.to_string())?;
            say(format_args!("pid={} job={}", resp.pid, resp.job));
            Ok(())
        }
        "attach" => {
            if opts.positional.is_empty() {
                return Err("usage: lmond attach PID [PID...] [BODY]".into());
            }
            // Leading numeric arguments are pids; one trailing non-numeric
            // argument names the daemon body (mirrors the wire grammar).
            let mut pids = Vec::new();
            let mut body = "sleeper";
            for (i, arg) in opts.positional.iter().enumerate() {
                match arg.parse::<u64>() {
                    Ok(pid) => pids.push(pid),
                    Err(_) if i == opts.positional.len() - 1 => body = arg,
                    Err(_) => return Err(format!("bad pid {arg:?}")),
                }
            }
            if pids.is_empty() {
                return Err("usage: lmond attach PID [PID...] [BODY]".into());
            }
            let resp = connect(&opts)?.attach(&pids, body).map_err(|e| e.to_string())?;
            for gsid in resp.gsids {
                say(gsid);
            }
            Ok(())
        }
        "detach" | "kill" => {
            let Some(gsid) = opts.positional.first() else {
                return Err(format!("usage: lmond {cmd} GSID"));
            };
            let gsid: u64 = parse_flag(gsid)?;
            let mut client = connect(&opts)?;
            let res = if cmd == "kill" { client.kill(gsid) } else { client.detach(gsid) };
            res.map_err(|e| e.to_string())?;
            say("ok");
            Ok(())
        }
        "metrics" => {
            let text = connect(&opts)?.metrics().map_err(|e| e.to_string())?;
            {
                use std::io::Write as _;
                let _ = write!(std::io::stdout(), "{text}");
            }
            Ok(())
        }
        "stop" => {
            // Never lazy-start a daemon just to stop it.
            let mut client = if let Some(addr) = opts.tcp {
                DaemonClient::connect_tcp(addr).map_err(|e| e.to_string())?
            } else {
                DaemonClient::connect_unix(&opts.socket).map_err(|e| e.to_string())?
            };
            client.shutdown_daemon().map_err(|e| e.to_string())?;
            say("stopped");
            Ok(())
        }
        _ => Err(format!("unknown subcommand {cmd:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("lmond: {msg}");
            usage()
        }
    }
}
