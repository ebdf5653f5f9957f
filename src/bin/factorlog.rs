//! `factorlog` — command-line front end: load a Datalog file (rules, facts and a
//! `?- query.`), optimize the query with Magic Sets + factoring, evaluate it, and
//! print the answers. Or start a persistent interactive session with `factorlog repl`.
//!
//! ```text
//! USAGE:
//!     factorlog <FILE> [--query "t(0, Y)"] [--strategy original|magic|factored]
//!               [--show-program] [--explain] [--stats]
//!     factorlog repl [FILE] [--data-dir DIR] [--metrics-json PATH]
//!     factorlog serve [FILE] [--data-dir DIR] [--addr HOST:PORT]
//!               [--max-in-flight N] [--deadline-ms N]
//!               [--follow HOST:PORT] [--lease-ms N]
//!
//! OPTIONS:
//!     --query <ATOM>       query literal (overrides any ?- clause in the file)
//!     --strategy <NAME>    evaluation strategy (default: factored — i.e. the pipeline)
//!     --show-program       print the program that is evaluated
//!     --explain            print the full stage-by-stage optimization report
//!     --stats              print cumulative session evaluation statistics
//!
//! REPL MODE:
//!     an incremental engine session: `:load` (Datalog source or a `:save`d
//!     snapshot), `:save file`, `:insert fact.`, `:retract fact.`,
//!     `:begin`/`:commit`/`:abort` transactions, `:prepare q`, `?- query.`,
//!     `:stats`, `:profile`, `:metrics`, `:help`, `:quit`. An optional FILE is
//!     loaded at start.
//!     `--data-dir DIR` makes the session durable: committed mutations append to
//!     an fsync'd write-ahead log in DIR, the state recovers on the next start
//!     (even after SIGKILL), and the log compacts into an image as it grows.
//!     `--metrics-json PATH` enables tracing for the whole session and writes the
//!     versioned metrics JSON document to PATH when the session ends.
//!
//! SERVE MODE:
//!     a concurrent multi-session server on the same engine: any number of
//!     connections speak the line protocol (QUERY/TXN/PING/EPOCH/STATS/QUIT),
//!     readers answer lock-free from an atomically swapped materialized view,
//!     and concurrently submitted transactions group-commit under one WAL
//!     fsync. `--max-in-flight N` bounds admission (excess requests are shed
//!     with a retryable `ERR overloaded`), `--deadline-ms N` sets the
//!     per-request deadline. SIGTERM or Ctrl-C shuts down gracefully: drain,
//!     cancel stragglers, flush the WAL. An in-REPL session connects with
//!     `:connect HOST:PORT`.
//!     `--follow HOST:PORT` starts the node as a *read replica* of a served
//!     leader instead (requires `--data-dir`): it streams committed WAL frames
//!     from the leader, answers queries from the replicated state, refuses
//!     transactions with `ERR readonly`, and accepts `PROMOTE` once the
//!     leader's lease (`--lease-ms`, default 750) has expired.
//! ```
//!
//! One-shot runs execute on the same [`Engine`] the REPL uses, so `--stats` reports
//! the session's cumulative counters (materialization + prepared-plan replays +
//! cache hits/misses), not a single call's.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use factorlog::engine::render_answers;
use factorlog::prelude::*;

/// Which program the CLI evaluates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum CliStrategy {
    /// The program as written, evaluated semi-naively.
    Original,
    /// The Magic Sets rewriting only.
    Magic,
    /// The full pipeline: Magic + factoring (when applicable) + the §5 optimizations.
    Factored,
}

#[derive(Debug)]
struct CliOptions {
    file: String,
    query: Option<String>,
    strategy: CliStrategy,
    show_program: bool,
    explain: bool,
    stats: bool,
}

fn usage() -> String {
    "usage: factorlog <FILE> [--query \"t(0, Y)\"] [--strategy original|magic|factored] \
     [--show-program] [--explain] [--stats]\n       factorlog repl [FILE] [--data-dir DIR] \
     [--metrics-json PATH]\n       factorlog serve [FILE] [--data-dir DIR] [--addr HOST:PORT] \
     [--max-in-flight N] [--deadline-ms N] [--follow HOST:PORT] [--lease-ms N]"
        .to_string()
}

/// The argument after `flag`, described as `what` when it is missing.
fn flag_value(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("{flag} requires {what}"))
}

/// The numeric argument after `flag`.
fn flag_number<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flag_value(args, flag, "a number")?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Arguments of `factorlog repl ...`.
#[derive(Debug, Default, PartialEq, Eq)]
struct ReplOptions {
    /// Datalog source (or snapshot) loaded into the session at start.
    file: Option<String>,
    /// Data directory of a durable session (write-ahead log + image).
    data_dir: Option<String>,
    /// When set, tracing is on for the whole session and the metrics JSON
    /// document is written here when the session ends.
    metrics_json: Option<String>,
}

fn parse_repl_args(args: &[String]) -> Result<ReplOptions, String> {
    let mut options = ReplOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--data-dir" => {
                options.data_dir = Some(flag_value(&mut iter, arg, "a directory argument")?);
            }
            "--metrics-json" => {
                options.metrics_json = Some(flag_value(&mut iter, arg, "a file argument")?);
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(format!("unknown repl option `{other}`\n{}", usage()));
            }
            other => {
                if options.file.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                options.file = Some(other.to_string());
            }
        }
    }
    Ok(options)
}

/// Arguments of `factorlog serve ...`.
#[derive(Debug, PartialEq, Eq)]
struct ServeCliOptions {
    /// Datalog source (or snapshot) loaded into the engine before serving.
    file: Option<String>,
    /// Data directory of a durable served engine (WAL + image + LOCK).
    data_dir: Option<String>,
    /// Listen address.
    addr: String,
    /// Admission-control cap (requests in service at once).
    max_in_flight: Option<usize>,
    /// Per-request deadline in milliseconds.
    deadline_ms: Option<u64>,
    /// Leader address: serve as a read replica following it (needs --data-dir).
    follow: Option<String>,
    /// Leader lease timeout in milliseconds (follower promotion gate).
    lease_ms: Option<u64>,
}

impl Default for ServeCliOptions {
    fn default() -> Self {
        ServeCliOptions {
            file: None,
            data_dir: None,
            addr: "127.0.0.1:7070".to_string(),
            max_in_flight: None,
            deadline_ms: None,
            follow: None,
            lease_ms: None,
        }
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeCliOptions, String> {
    let mut options = ServeCliOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--data-dir" => {
                options.data_dir = Some(flag_value(&mut iter, arg, "a directory argument")?);
            }
            "--addr" => options.addr = flag_value(&mut iter, arg, "a HOST:PORT argument")?,
            "--max-in-flight" => options.max_in_flight = Some(flag_number(&mut iter, arg)?),
            "--deadline-ms" => options.deadline_ms = Some(flag_number(&mut iter, arg)?),
            "--follow" => {
                options.follow = Some(flag_value(&mut iter, arg, "a HOST:PORT argument")?);
            }
            "--lease-ms" => options.lease_ms = Some(flag_number(&mut iter, arg)?),
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(format!("unknown serve option `{other}`\n{}", usage()));
            }
            other => {
                if options.file.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                options.file = Some(other.to_string());
            }
        }
    }
    if options.follow.is_some() {
        if options.data_dir.is_none() {
            return Err("--follow requires --data-dir (a replica must be durable)".to_string());
        }
        if options.file.is_some() {
            return Err(
                "--follow conflicts with a FILE argument: a replica's state comes \
                 from the leader, not a local file"
                    .to_string(),
            );
        }
    }
    if options.lease_ms.is_some() && options.follow.is_none() {
        return Err("--lease-ms only applies with --follow".to_string());
    }
    Ok(options)
}

fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut file = None;
    let mut query = None;
    let mut strategy = CliStrategy::Factored;
    let mut show_program = false;
    let mut explain = false;
    let mut stats = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--query" => query = Some(flag_value(&mut iter, arg, "an argument")?),
            "--strategy" => {
                strategy = match flag_value(&mut iter, arg, "an argument")?.as_str() {
                    "original" => CliStrategy::Original,
                    "magic" => CliStrategy::Magic,
                    "factored" | "pipeline" => CliStrategy::Factored,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--show-program" => show_program = true,
            "--explain" => explain = true,
            "--stats" => stats = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            other => {
                if file.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                file = Some(other.to_string());
            }
        }
    }
    Ok(CliOptions {
        file: file.ok_or_else(usage)?,
        query,
        strategy,
        show_program,
        explain,
        stats,
    })
}

/// Run one invocation and return what it prints.
fn run(options: &CliOptions) -> Result<String, String> {
    let source = std::fs::read_to_string(&options.file)
        .map_err(|e| format!("cannot read {}: {e}", options.file))?;

    // One engine session for the whole invocation: every evaluation (materialization,
    // magic rewriting, prepared replays) accumulates into its per-session statistics.
    let mut engine = Engine::new();
    let summary = engine
        .load_source(&source)
        .map_err(|e| format!("{}: {e}", options.file))?;

    let query = match &options.query {
        Some(text) => parse_query(text).map_err(|e| format!("--query: {e}"))?,
        None => summary
            .query
            .clone()
            .ok_or_else(|| "no query: add a `?- atom.` clause or pass --query".to_string())?,
    };

    let mut out = String::new();
    let (answers, label) = match options.strategy {
        CliStrategy::Original => {
            let answers = engine.query(&query).map_err(|e| e.to_string())?;
            if options.show_program {
                out += &format!("% strategy: original\n{}\n", engine.program());
            }
            (answers, "original".to_string())
        }
        CliStrategy::Magic => {
            let adorned = adorn(engine.program(), &query).map_err(|e| e.to_string())?;
            let magicp = magic(&adorned).map_err(|e| e.to_string())?;
            if options.show_program {
                out += &format!("% strategy: magic\n{}\n", magicp.program);
            }
            // Evaluate the magic program as an auxiliary engine session sharing the
            // facts, then fold its counters into the main session's.
            let mut magic_engine = Engine::new();
            magic_engine
                .add_rules(magicp.program)
                .map_err(|e| e.to_string())?;
            for (pred, rel) in engine.facts().iter() {
                for tuple in rel.iter() {
                    magic_engine
                        .insert(pred, tuple)
                        .map_err(|e| e.to_string())?;
                }
            }
            let answers = magic_engine
                .query(&adorned.query)
                .map_err(|e| e.to_string())?;
            engine.absorb_stats(magic_engine.stats());
            (answers, "magic".to_string())
        }
        CliStrategy::Factored => {
            if options.explain || options.show_program {
                let optimized =
                    optimize_query(engine.program(), &query, &PipelineOptions::default())
                        .map_err(|e| e.to_string())?;
                if options.explain {
                    out += &format!("{}\n", optimized.report());
                }
                if options.show_program {
                    out += &format!(
                        "% strategy: {}\n{}\n",
                        optimized.strategy, optimized.program
                    );
                }
            }
            let answers = engine.query_prepared(&query).map_err(|e| e.to_string())?;
            let strategy = engine
                .prepared_strategy(&query)
                .expect("plan cached by query_prepared");
            (answers, strategy.to_string())
        }
    };

    out += &format!("% {} answer(s) to {} [{}]\n", answers.len(), query, label);
    for line in render_answers(&query, &answers) {
        out += &format!("{line}\n");
    }
    if options.stats {
        out += &format!("{}\n", engine.stats());
    }
    Ok(out)
}

/// Ctrl-C support for interactive sessions: a SIGINT handler that sets the
/// engine's shared [`CancelToken`] instead of killing the process. The running
/// evaluation notices at its next cooperative poll (a bounded number of join
/// rows away), aborts with a structured error, and the REPL prints
/// `cancelled after …` and returns to the prompt. Raw `signal(2)` FFI — no
/// crate dependency; glibc's `signal` installs BSD (`SA_RESTART`) semantics,
/// so a Ctrl-C at the prompt does not kill the blocking `read_line` either.
#[cfg(unix)]
mod sigint {
    use std::sync::OnceLock;

    use factorlog::prelude::CancelToken;

    static TOKEN: OnceLock<CancelToken> = OnceLock::new();
    static SHUTDOWN: OnceLock<CancelToken> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The handler body is async-signal-safe: `OnceLock::get` is one atomic
    /// load of an initialized-flag, and [`CancelToken::cancel`] one relaxed
    /// atomic store. No allocation, locking, or I/O.
    extern "C" fn handle(_signum: i32) {
        if let Some(token) = TOKEN.get() {
            token.cancel();
        }
    }

    extern "C" fn handle_shutdown(_signum: i32) {
        if let Some(token) = SHUTDOWN.get() {
            token.cancel();
        }
    }

    /// Install the handler, cancelling `token` on every SIGINT. Idempotent;
    /// only the first token is retained.
    pub fn install(token: CancelToken) {
        let _ = TOKEN.set(token);
        unsafe {
            signal(SIGINT, handle as *const () as usize);
        }
    }

    /// Serve mode: SIGTERM and SIGINT both request a *graceful* shutdown by
    /// setting `token` — the main loop notices and drains the server; nothing
    /// is killed mid-commit. Idempotent; only the first token is retained.
    pub fn install_shutdown(token: CancelToken) {
        let _ = SHUTDOWN.set(token);
        unsafe {
            signal(SIGINT, handle_shutdown as *const () as usize);
            signal(SIGTERM, handle_shutdown as *const () as usize);
        }
    }
}

/// Run `factorlog serve`: put the engine behind the concurrent TCP front end
/// and block until SIGTERM/Ctrl-C requests a graceful shutdown.
fn run_serve(options: &ServeCliOptions) -> Result<(), String> {
    let mut engine = match &options.data_dir {
        Some(dir) => {
            let engine = Engine::open_durable(dir).map_err(|e| format!("--data-dir {dir}: {e}"))?;
            let report = engine.recovery_report().cloned().unwrap_or_default();
            println!(
                "% durable session {dir}: {} fact(s) recovered ({})",
                engine.facts().total_facts(),
                report.describe()
            );
            engine
        }
        None => Engine::new(),
    };
    if let Some(path) = &options.file {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let summary = engine
            .load_source(&source)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "% loaded {path}: {} rule(s), {} fact(s)",
            summary.rules_added, summary.facts_added
        );
    }
    let mut server_options = ServerOptions::default();
    if let Some(n) = options.max_in_flight {
        server_options.max_in_flight = n;
    }
    if let Some(ms) = options.deadline_ms {
        server_options.request_deadline = Some(std::time::Duration::from_millis(ms));
    }
    let handle = match &options.follow {
        Some(leader) => {
            let mut replication = ReplicationOptions::default();
            if let Some(ms) = options.lease_ms {
                replication.lease_timeout = std::time::Duration::from_millis(ms);
            }
            let replica = Replica::from_engine(engine, leader.as_str(), replication.clone())
                .map_err(|e| e.to_string())?;
            serve_follower(replica, options.addr.as_str(), server_options, replication)
                .map_err(|e| format!("--addr {}: {e}", options.addr))?
        }
        None => serve(engine, options.addr.as_str(), server_options)
            .map_err(|e| format!("--addr {}: {e}", options.addr))?,
    };
    match &options.follow {
        Some(leader) => println!(
            "% factorlog replica on {} following {} (pid {}; PROMOTE takes over after \
             the lease expires; SIGTERM or Ctrl-C shuts down gracefully)",
            handle.addr(),
            leader,
            std::process::id()
        ),
        None => println!(
            "% factorlog serving on {} (pid {}; SIGTERM or Ctrl-C shuts down gracefully)",
            handle.addr(),
            std::process::id()
        ),
    }
    std::io::stdout().flush().ok();

    let shutdown = CancelToken::new();
    #[cfg(unix)]
    sigint::install_shutdown(shutdown.clone());
    while !shutdown.is_cancelled() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    println!("% shutdown requested; draining in-flight requests");
    let report = handle.shutdown();
    let wal = match &report.wal_sync {
        Ok(()) => "wal flushed".to_string(),
        Err(e) => format!("wal flush failed: {e}"),
    };
    println!(
        "% served through epoch {} ({} request(s) shed); {wal}; {}",
        report.epoch,
        report.shed,
        if report.drained_cleanly {
            "drained cleanly"
        } else {
            "stragglers cancelled"
        }
    );
    Ok(())
}

/// Run the interactive REPL; `options.data_dir` (when given) makes the session
/// durable, and `options.file` is loaded into it first.
fn run_repl(options: &ReplOptions) -> Result<(), String> {
    let mut repl = match &options.data_dir {
        Some(dir) => {
            let engine = Engine::open_durable(dir).map_err(|e| format!("--data-dir {dir}: {e}"))?;
            let report = engine.recovery_report().cloned().unwrap_or_default();
            println!(
                "% durable session {dir}: {} fact(s) recovered ({})",
                engine.facts().total_facts(),
                report.describe()
            );
            Repl::with_engine(engine)
        }
        None => Repl::new(),
    };
    if options.metrics_json.is_some() {
        repl.engine_mut().set_tracing(true);
    }
    // Ctrl-C cancels the running query (cooperatively, via the session's
    // shared token) instead of killing the session.
    #[cfg(unix)]
    sigint::install(repl.engine_mut().cancel_token());
    println!(
        "factorlog repl — :help for commands, :quit to leave (Ctrl-C cancels a running query)"
    );
    if let Some(path) = &options.file {
        match repl.execute(&format!(":load {path}")) {
            ReplAction::Output(message) => println!("{message}"),
            ReplAction::Quit => return dump_metrics(&repl, options),
        }
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let result = loop {
        print!("factorlog> ");
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break Ok(()), // EOF
            Ok(_) => match repl.execute(&line) {
                ReplAction::Output(message) => {
                    if !message.is_empty() {
                        println!("{message}");
                    }
                }
                ReplAction::Quit => break Ok(()),
            },
            Err(e) => break Err(format!("stdin: {e}")),
        }
    };
    dump_metrics(&repl, options)?;
    result
}

/// Write the session's metrics JSON to `--metrics-json PATH` (no-op when the
/// flag was not given).
fn dump_metrics(repl: &Repl, options: &ReplOptions) -> Result<(), String> {
    let Some(path) = &options.metrics_json else {
        return Ok(());
    };
    std::fs::write(path, repl.engine().metrics_json())
        .map_err(|e| format!("--metrics-json {path}: {e}"))?;
    println!("% metrics written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repl") {
        return match parse_repl_args(&args[1..]).and_then(|options| run_repl(&options)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("serve") {
        return match parse_serve_args(&args[1..]).and_then(|options| run_serve(&options)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&args) {
        Ok(options) => match run(&options) {
            Ok(out) => {
                print!("{out}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_minimal_invocation() {
        let options = parse_args(&args(&["tc.dl"])).unwrap();
        assert_eq!(options.file, "tc.dl");
        assert_eq!(options.strategy, CliStrategy::Factored);
        assert!(options.query.is_none());
        assert!(!options.stats && !options.explain && !options.show_program);
    }

    #[test]
    fn parses_all_flags() {
        let options = parse_args(&args(&[
            "tc.dl",
            "--query",
            "t(0, Y)",
            "--strategy",
            "magic",
            "--stats",
            "--show-program",
            "--explain",
        ]))
        .unwrap();
        assert_eq!(options.query.as_deref(), Some("t(0, Y)"));
        assert_eq!(options.strategy, CliStrategy::Magic);
        assert!(options.stats && options.explain && options.show_program);
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["a.dl", "b.dl"])).is_err());
        assert!(parse_args(&args(&["a.dl", "--strategy", "quantum"])).is_err());
        assert!(parse_args(&args(&["a.dl", "--query"])).is_err());
        assert!(parse_args(&args(&["a.dl", "--bogus"])).is_err());
    }

    #[test]
    fn runs_end_to_end_on_a_temporary_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("factorlog_cli_test.dl");
        std::fs::write(
            &path,
            "t(X, Y) :- e(X, Y).\n t(X, Y) :- e(X, W), t(W, Y).\n\
             e(1, 2).\n e(2, 3).\n e(3, 4).\n ?- t(1, Y).\n",
        )
        .unwrap();
        let options = CliOptions {
            file: path.to_string_lossy().to_string(),
            query: None,
            strategy: CliStrategy::Factored,
            show_program: true,
            explain: false,
            stats: true,
        };
        run(&options).unwrap();
        // The magic strategy and the original strategy run on the same file too.
        for strategy in [CliStrategy::Magic, CliStrategy::Original] {
            let options = CliOptions {
                file: path.to_string_lossy().to_string(),
                query: Some("t(2, Y)".to_string()),
                strategy,
                show_program: false,
                explain: false,
                stats: false,
            };
            run(&options).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parses_repl_arguments() {
        assert_eq!(parse_repl_args(&args(&[])).unwrap(), ReplOptions::default());
        let options = parse_repl_args(&args(&["base.dl"])).unwrap();
        assert_eq!(options.file.as_deref(), Some("base.dl"));
        assert!(options.data_dir.is_none());
        let options = parse_repl_args(&args(&["--data-dir", "/tmp/d", "base.dl"])).unwrap();
        assert_eq!(options.data_dir.as_deref(), Some("/tmp/d"));
        assert_eq!(options.file.as_deref(), Some("base.dl"));
        let options =
            parse_repl_args(&args(&["--metrics-json", "/tmp/m.json", "base.dl"])).unwrap();
        assert_eq!(options.metrics_json.as_deref(), Some("/tmp/m.json"));
        assert_eq!(options.file.as_deref(), Some("base.dl"));
        assert!(parse_repl_args(&args(&["--data-dir"])).is_err());
        assert!(parse_repl_args(&args(&["--metrics-json"])).is_err());
        assert!(parse_repl_args(&args(&["a.dl", "b.dl"])).is_err());
        assert!(parse_repl_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn parses_serve_arguments() {
        assert_eq!(
            parse_serve_args(&args(&[])).unwrap(),
            ServeCliOptions::default()
        );
        let options = parse_serve_args(&args(&[
            "base.dl",
            "--data-dir",
            "/tmp/d",
            "--addr",
            "0.0.0.0:9000",
            "--max-in-flight",
            "8",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(options.file.as_deref(), Some("base.dl"));
        assert_eq!(options.data_dir.as_deref(), Some("/tmp/d"));
        assert_eq!(options.addr, "0.0.0.0:9000");
        assert_eq!(options.max_in_flight, Some(8));
        assert_eq!(options.deadline_ms, Some(250));
        assert!(parse_serve_args(&args(&["--addr"])).is_err());
        assert!(parse_serve_args(&args(&["--max-in-flight", "lots"])).is_err());
        assert!(parse_serve_args(&args(&["a.dl", "b.dl"])).is_err());
        assert!(parse_serve_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn parses_follower_serve_arguments() {
        let options = parse_serve_args(&args(&[
            "--data-dir",
            "/tmp/replica",
            "--follow",
            "127.0.0.1:7070",
            "--lease-ms",
            "500",
        ]))
        .unwrap();
        assert_eq!(options.follow.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(options.lease_ms, Some(500));
        assert_eq!(options.data_dir.as_deref(), Some("/tmp/replica"));
        // A replica must be durable, takes no FILE, and --lease-ms is
        // follower-only.
        let err = parse_serve_args(&args(&["--follow", "127.0.0.1:7070"])).unwrap_err();
        assert!(err.contains("--data-dir"), "{err}");
        let err = parse_serve_args(&args(&[
            "base.dl",
            "--data-dir",
            "/tmp/replica",
            "--follow",
            "127.0.0.1:7070",
        ]))
        .unwrap_err();
        assert!(err.contains("FILE"), "{err}");
        let err = parse_serve_args(&args(&["--lease-ms", "500"])).unwrap_err();
        assert!(err.contains("--follow"), "{err}");
        assert!(parse_serve_args(&args(&["--follow"])).is_err());
        assert!(parse_serve_args(&args(&["--lease-ms", "soon"])).is_err());
    }

    /// Regression: the answers to a query that repeats a variable are
    /// labelled by its distinct variables, as the REPL labels them (the CLI
    /// printed `X = 1, X = 2`).
    #[test]
    fn a_repeated_query_variable_labels_each_answer_once() {
        let path = std::env::temp_dir().join("factorlog_cli_repeated_var.dl");
        std::fs::write(&path, "p(1, 1, 2).\nq(X, Y, Z) :- p(X, Y, Z).\n").unwrap();
        for strategy in [
            CliStrategy::Factored,
            CliStrategy::Magic,
            CliStrategy::Original,
        ] {
            let options = CliOptions {
                file: path.to_string_lossy().to_string(),
                query: Some("q(X, X, Y)".to_string()),
                strategy,
                show_program: false,
                explain: false,
                stats: false,
            };
            let out = run(&options).unwrap();
            assert!(
                out.lines().any(|line| line == "X = 1, Y = 2"),
                "{strategy:?}: {out}"
            );
            assert!(!out.contains("X = 2"), "{strategy:?}: {out}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_query_is_an_error() {
        let dir = std::env::temp_dir();
        let path = dir.join("factorlog_cli_noquery.dl");
        std::fs::write(&path, "t(X, Y) :- e(X, Y).\ne(1, 2).\n").unwrap();
        let options = CliOptions {
            file: path.to_string_lossy().to_string(),
            query: None,
            strategy: CliStrategy::Factored,
            show_program: false,
            explain: false,
            stats: false,
        };
        let err = run(&options).unwrap_err();
        assert!(err.contains("no query"));
        std::fs::remove_file(&path).ok();
    }
}
