//! HTTP front end for a [`sordf::Database`].
//!
//! Speaks a SPARQL-protocol subset over a dependency-free HTTP/1.1 layer
//! built directly on [`std::net::TcpListener`] — no async runtime. A fixed
//! pool of worker threads shares one listener; each worker accepts a
//! connection and serves it to completion (keep-alive), so the pool size
//! bounds concurrent connections exactly.
//!
//! Endpoints:
//!
//! * `GET /query?query=…` / `POST /query` — evaluate a query. `lang=sql`
//!   selects the SQL front end; `timeout_ms` sets a per-request deadline;
//!   `trace=1` adds executor statistics to the response. Results serialize
//!   as JSON (default) or TSV (`Accept: text/tab-separated-values`).
//! * `POST /update?action=insert|delete` — apply an N-Triples batch through
//!   the delta store.
//! * `GET /status` — drift, plan-cache, memory and server statistics.
//!
//! A result reaches the wire without a `Term` or a `String` per value:
//! [`render_json`] and [`render_tsv`] walk the result row by row into one
//! body buffer, and each value's text comes straight from the dictionary
//! ([`sordf_model::Dictionary::push_display`]: an IRI or a string read in
//! place from its front-coded group or the append tail, an inline literal
//! formatted from its OID). JSON writes it into one reused scratch buffer
//! and escapes it from there into the body; TSV appends it to the body.
//! [`Response`] head and body then go out in one write.
//!
//! Three protection mechanisms, all cooperative with the engine:
//!
//! * **Deadlines** — `timeout_ms` (clamped by [`ServerConfig::max_timeout`],
//!   defaulted by [`ServerConfig::default_timeout`]) becomes the
//!   [`QueryRequest`] timeout; the engine stops within one page of work and
//!   the client gets `408` with error code `timeout`.
//! * **Disconnect cancellation** — a watchdog thread polls each in-flight
//!   request's socket; when the peer hangs up, the request's
//!   `CancellationToken` is cancelled and the engine abandons the query
//!   (HTTP 499 in the books, though nobody is left to read it).
//! * **Admission control** — at most [`ServerConfig::max_in_flight`]
//!   query/update requests execute at once; excess requests are rejected
//!   immediately with `503` + `Retry-After` instead of queueing without
//!   bound.
//!
//! [`Server::shutdown`] drains gracefully: new work is rejected with `503`,
//! in-flight requests run to completion, then the workers exit.

mod http;
mod json;

pub use http::{Request, Response};

use json::Obj;
use parking_lot::Mutex;
use sordf::{CancellationToken, Database, Error, QueryRequest, QueryResponse};
use sordf_model::ntriples;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads in the accept pool (= max concurrent connections).
    pub workers: usize,
    /// Max concurrently *executing* query/update requests (admission cap).
    pub max_in_flight: usize,
    /// Deadline applied when the client sends no `timeout_ms`.
    pub default_timeout: Option<Duration>,
    /// Hard ceiling a client-supplied `timeout_ms` cannot exceed.
    pub max_timeout: Duration,
    /// Idle keep-alive connections are dropped after this long.
    pub keep_alive: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_in_flight: 8,
            default_timeout: None,
            max_timeout: Duration::from_secs(300),
            keep_alive: Duration::from_secs(30),
        }
    }
}

/// Monotonic request counters, exposed under `/status` → `"server"`.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    client_errors: AtomicU64,
}

/// One in-flight request watched for client disconnect.
struct Watch {
    id: u64,
    stream: TcpStream,
    token: CancellationToken,
}

struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    listener: TcpListener,
    /// Set once by [`Server::shutdown`]; workers observe it within one
    /// accept-poll / read-timeout tick.
    shutdown: AtomicBool,
    /// Admission slots currently held (monotone acquire/release).
    in_flight: AtomicUsize,
    /// Disconnect-watchdog registry. Leaf lock: never held across I/O on
    /// the *handler* side; the watchdog's per-entry peek is non-blocking.
    watch: Mutex<Vec<Watch>>,
    watch_ids: AtomicU64,
    counters: Counters,
}

impl Shared {
    fn draining(&self) -> bool {
        // ordering: Relaxed — one-way monotonic flag, observers only need
        // eventual visibility (bounded by the poll tick).
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Try to take an admission slot. Counter-only CAS loop; no lock.
    fn try_admit(&self) -> bool {
        // ordering: Relaxed — the counter itself is the entire shared
        // state; no other memory is published by an acquire/release pair.
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cfg.max_in_flight).then_some(n + 1)
            })
            .is_ok()
    }

    fn release(&self) {
        // ordering: Relaxed — see `try_admit`.
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Register an in-flight request with the disconnect watchdog. The
    /// socket is switched to non-blocking so the watchdog's `peek` never
    /// stalls; [`Shared::unwatch`] restores blocking mode before the
    /// handler writes the response.
    fn watch(&self, stream: &TcpStream, token: CancellationToken) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        clone.set_nonblocking(true).ok()?;
        // ordering: Relaxed — pure ID allocation, no other state attached.
        let id = self.watch_ids.fetch_add(1, Ordering::Relaxed);
        self.watch.lock().push(Watch {
            id,
            stream: clone,
            token,
        });
        Some(id)
    }

    fn unwatch(&self, stream: &TcpStream, id: Option<u64>) {
        if let Some(id) = id {
            self.watch.lock().retain(|w| w.id != id);
            let _ = stream.set_nonblocking(false);
        }
    }
}

/// A running HTTP server. Dropping it shuts down (gracefully) and joins the
/// worker threads.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `db` with `cfg` worker threads.
    pub fn bind(db: Arc<Database>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // Non-blocking accept + poll tick: lets every worker notice
        // shutdown without platform-specific listener wakeups.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            db,
            cfg,
            listener,
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            watch: Mutex::new(Vec::new()),
            watch_ids: AtomicU64::new(0),
            counters: Counters::default(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sordf-http-{i}"))
                    .spawn(move || worker_loop(&sh))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let watchdog = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sordf-http-watchdog".into())
                .spawn(move || watchdog_loop(&sh))?
        };
        Ok(Server {
            shared,
            workers,
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.shared.listener.local_addr()
    }

    /// Requests currently holding an admission slot.
    pub fn in_flight(&self) -> usize {
        // ordering: Relaxed — monitoring read of a standalone counter.
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, reject new requests with 503,
    /// let in-flight requests finish, then join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // ordering: Relaxed — one-way flag; see `Shared::draining`.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accept-pool body: poll-accept until shutdown, serving each connection to
/// completion.
fn worker_loop(sh: &Shared) {
    while !sh.draining() {
        match sh.listener.accept() {
            Ok((stream, _peer)) => handle_connection(sh, stream),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Serve one connection: parse request, route, write response; repeat until
/// the peer closes, asks to close, idles out, or the server drains.
fn handle_connection(sh: &Shared, mut stream: TcpStream) {
    // Accepted sockets may inherit the listener's non-blocking mode on some
    // platforms — force the blocking + read-timeout regime the parser
    // expects.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    if stream.set_read_timeout(Some(http::POLL_TICK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut carry = Vec::new();
    loop {
        let idle_deadline = Instant::now() + sh.cfg.keep_alive;
        let req =
            match http::read_request(&mut stream, &mut carry, idle_deadline, &|| sh.draining()) {
                Ok(r) => r,
                Err(http::ReadError::Malformed(msg)) => {
                    // ordering: Relaxed — standalone monitoring counter.
                    sh.counters.client_errors.fetch_add(1, Ordering::Relaxed);
                    let mut resp = error_body(400, "bad_request", &msg, None);
                    resp.close = true;
                    let _ = http::write_response(&mut stream, &resp);
                    return;
                }
                Err(_) => return,
            };
        let close = req.wants_close() || sh.draining();
        let mut resp = route(sh, &req, &stream);
        resp.close = resp.close || close;
        if http::write_response(&mut stream, &resp).is_err() || resp.close {
            return;
        }
    }
}

/// Watchdog body: every tick, probe each in-flight request's socket with a
/// non-blocking `peek`; a hung-up peer cancels the request's token.
fn watchdog_loop(sh: &Shared) {
    while !sh.draining() {
        std::thread::sleep(Duration::from_millis(10));
        let mut watch = sh.watch.lock();
        watch.retain(|w| {
            let mut probe = [0u8; 1];
            match w.stream.peek(&mut probe) {
                // EOF: the client is gone — stop the query, drop the entry.
                Ok(0) => {
                    w.token.cancel();
                    // ordering: Relaxed — standalone monitoring counter.
                    sh.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    false
                }
                // Bytes available (e.g. a pipelined request): still alive.
                Ok(_) => true,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
                // Reset/aborted: treat like a hangup.
                Err(_) => {
                    w.token.cancel();
                    // ordering: Relaxed — standalone monitoring counter.
                    sh.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        });
    }
}

fn route(sh: &Shared, req: &Request, stream: &TcpStream) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/query") | ("POST", "/query") => handle_query(sh, req, stream),
        ("POST", "/update") => handle_update(sh, req),
        ("GET", "/status") => handle_status(sh),
        (_, "/query") | (_, "/update") | (_, "/status") => {
            error_body(405, "method_not_allowed", "method not allowed", None)
        }
        _ => error_body(404, "not_found", "no such endpoint", None),
    }
}

/// RAII admission slot.
struct Slot<'a>(&'a Shared);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

fn admit(sh: &Shared) -> Result<Slot<'_>, Response> {
    if sh.draining() {
        // ordering: Relaxed — standalone monitoring counter.
        sh.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let mut resp = error_body(503, "overloaded", "server shutting down", Some(1));
        resp.close = true;
        return Err(resp);
    }
    if !sh.try_admit() {
        // ordering: Relaxed — standalone monitoring counter.
        sh.counters.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(error_body(
            503,
            "overloaded",
            &format!("at capacity ({} requests in flight)", sh.cfg.max_in_flight),
            Some(1),
        ));
    }
    Ok(Slot(sh))
}

/// Extract the query text + language from the request per the
/// SPARQL-protocol subset: `GET ?query=…`, `POST` with the query as the
/// body (`Content-Type: application/sparql-query` or `application/sql`), or
/// a form-encoded `POST` body carrying `query=…`.
fn extract_query(req: &Request) -> Result<(String, bool), Response> {
    let content_type = req.header("content-type").unwrap_or("");
    let mut is_sql = req
        .param("lang")
        .is_some_and(|l| l.eq_ignore_ascii_case("sql"))
        || content_type.starts_with("application/sql");
    let text = if req.method == "GET" {
        req.param("query").map(str::to_string)
    } else if content_type.starts_with("application/x-www-form-urlencoded") {
        let body = String::from_utf8_lossy(&req.body);
        let form = http::parse_query_string(&body);
        is_sql = is_sql
            || form
                .iter()
                .any(|(k, v)| k == "lang" && v.eq_ignore_ascii_case("sql"));
        form.into_iter().find(|(k, _)| k == "query").map(|(_, v)| v)
    } else {
        match String::from_utf8(req.body.clone()) {
            Ok(s) if !s.trim().is_empty() => Some(s),
            _ => None,
        }
    };
    match text {
        Some(t) => Ok((t, is_sql)),
        None => Err(error_body(
            400,
            "bad_request",
            "missing query (use ?query=… or a request body)",
            None,
        )),
    }
}

fn handle_query(sh: &Shared, req: &Request, stream: &TcpStream) -> Response {
    let slot = match admit(sh) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let (text, is_sql) = match extract_query(req) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let timeout = match req.param("timeout_ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms).min(sh.cfg.max_timeout)),
            Err(_) => return error_body(400, "bad_request", "timeout_ms must be an integer", None),
        },
        None => sh.cfg.default_timeout,
    };
    let trace = req
        .param("trace")
        .is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));

    let token = CancellationToken::new();
    let watch_id = sh.watch(stream, token.clone());
    let mut qreq = if is_sql {
        QueryRequest::sql(&text)
    } else {
        QueryRequest::sparql(&text)
    };
    qreq = qreq.cancel(token).traced(trace);
    if let Some(t) = timeout {
        qreq = qreq.timeout(t);
    }
    let result = sh.db.execute(&qreq);
    sh.unwatch(stream, watch_id);
    drop(slot);

    match result {
        Ok(resp) => {
            // ordering: Relaxed — standalone monitoring counter.
            sh.counters.served.fetch_add(1, Ordering::Relaxed);
            let tsv = req
                .header("accept")
                .is_some_and(|a| a.contains("text/tab-separated-values"));
            if tsv {
                render_tsv(&resp)
            } else {
                render_json(&resp, trace)
            }
        }
        Err(e) => {
            match e {
                // ordering: Relaxed — standalone monitoring counters.
                Error::Timeout => sh.counters.timeouts.fetch_add(1, Ordering::Relaxed),
                Error::Cancelled => sh.counters.cancelled.fetch_add(1, Ordering::Relaxed),
                _ => sh.counters.client_errors.fetch_add(1, Ordering::Relaxed),
            };
            error_response(&e, &text)
        }
    }
}

fn handle_update(sh: &Shared, req: &Request) -> Response {
    let _slot = match admit(sh) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return error_body(400, "bad_request", "body must be UTF-8 N-Triples", None),
    };
    let action = req.param("action").unwrap_or("insert");
    let outcome = match action {
        "insert" => sh.db.insert_ntriples(body).map(|n| ("inserted", n)),
        "delete" => match ntriples::parse_document(body) {
            Ok(triples) => sh.db.delete_triples(&triples).map(|n| ("deleted", n)),
            Err(e) => Err(Error::from(e)),
        },
        other => {
            return error_body(
                400,
                "bad_request",
                &format!("unknown action {other:?} (use insert or delete)"),
                None,
            )
        }
    };
    match outcome {
        Ok((verb, n)) => {
            // ordering: Relaxed — standalone monitoring counter.
            sh.counters.served.fetch_add(1, Ordering::Relaxed);
            Response::new(
                200,
                "application/json",
                Obj::new().num(verb, n as u64).build(),
            )
        }
        Err(e) => {
            // ordering: Relaxed — standalone monitoring counter.
            sh.counters.client_errors.fetch_add(1, Ordering::Relaxed);
            error_response(&e, body)
        }
    }
}

fn handle_status(sh: &Shared) -> Response {
    let drift = sh.db.drift_stats();
    let plans = sh.db.plan_cache_stats();
    let mem = sh.db.memory_stats();
    let scans = sh.db.scan_stats();
    let body = Obj::new()
        .raw(
            "drift",
            &Obj::new()
                .num("n_base_triples", drift.n_base_triples)
                .num("n_delta_inserts", drift.n_delta_inserts)
                .num("n_tombstones", drift.n_tombstones)
                .num("matched_subjects", drift.matched_subjects)
                .num("unmatched_subjects", drift.unmatched_subjects)
                .num("delta_ratio", drift.delta_ratio())
                .num("irregular_ratio", drift.irregular_ratio())
                .build(),
        )
        .raw(
            "plan_cache",
            &Obj::new()
                .num("entries", plans.entries)
                .num("hits", plans.hits)
                .num("misses", plans.misses)
                .num("invalidations", plans.invalidations)
                .build(),
        )
        .raw(
            "memory",
            &Obj::new()
                .num("total_bytes", mem.total_bytes())
                .num("dict_bytes", mem.dict_bytes)
                .num("base_bytes", mem.base_triples_bytes)
                .num("column_bytes", mem.column_bytes)
                .num("delta_bytes", mem.delta_bytes)
                .num("n_triples", mem.n_triples)
                .num("bytes_per_triple", mem.bytes_per_triple())
                .build(),
        )
        .raw(
            "scans",
            &Obj::new()
                .num("rows_scanned", scans.rows_scanned)
                .num("pages_scanned", scans.pages_scanned)
                .num("zonemap_pages_skipped", scans.zonemap_pages_skipped)
                .num("column_pages_skipped", scans.column_pages_skipped)
                .build(),
        )
        .raw(
            "server",
            &Obj::new()
                // ordering: Relaxed — monitoring reads of standalone counters.
                .num("in_flight", sh.in_flight.load(Ordering::Relaxed) as u64)
                .num("max_in_flight", sh.cfg.max_in_flight as u64)
                .num("served", sh.counters.served.load(Ordering::Relaxed))
                .num("rejected", sh.counters.rejected.load(Ordering::Relaxed))
                .num("timeouts", sh.counters.timeouts.load(Ordering::Relaxed))
                .num("cancelled", sh.counters.cancelled.load(Ordering::Relaxed))
                .num(
                    "client_errors",
                    sh.counters.client_errors.load(Ordering::Relaxed),
                )
                .bool("draining", sh.draining())
                .build(),
        )
        .build();
    Response::new(200, "application/json", body)
}

/// Serialize a successful query as the JSON results document — what
/// `/query` answers: `{"head":{"vars":[…]},"results":{"bindings":[[…],…]}}`
/// with decoded lexical values (an array-of-arrays subset of the SPARQL
/// JSON format), plus a `"stats"` object when `trace` is set and the
/// response carries statistics. Written row by row (see the crate docs).
pub fn render_json(resp: &QueryResponse, trace: bool) -> Response {
    let results = &resp.results;
    let mut body = String::from(r#"{"head":{"vars":["#);
    for (i, var) in results.columns.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        json::push_str(&mut body, var);
    }
    body.push_str(r#"]},"results":{"bindings":["#);
    let mut text = String::new();
    for (i, row) in results.rows().enumerate() {
        body.push_str(if i > 0 { ",[" } else { "[" });
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            text.clear();
            v.push_display(&resp.pin, &mut text);
            json::push_str(&mut body, &text);
        }
        body.push(']');
    }
    body.push_str("]}");
    if let Some(stats) = resp.stats.as_ref().filter(|_| trace) {
        body.push_str(r#","stats":"#);
        body.push_str(
            &Obj::new()
                .num("rows_scanned", stats.rows_scanned)
                .num("pages_scanned", stats.pages_scanned)
                .num("column_pages_skipped", stats.column_pages_skipped)
                .num("merge_joins", stats.merge_joins)
                .num("hash_joins", stats.hash_joins)
                .num("rdf_scans", stats.rdf_scans)
                .num("rdf_joins", stats.rdf_joins)
                .build(),
        );
    }
    body.push('}');
    Response::new(200, "application/sparql-results+json", body)
}

/// Serialize a successful query as TSV — what `/query` answers under
/// `Accept: text/tab-separated-values`: a header row of variable names,
/// then one decoded row per line (TSV escapes nothing).
pub fn render_tsv(resp: &QueryResponse) -> Response {
    let mut body = resp.results.columns.join("\t");
    body.push('\n');
    for row in resp.results.rows() {
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push('\t');
            }
            v.push_display(&resp.pin, &mut body);
        }
        body.push('\n');
    }
    Response::new(200, "text/tab-separated-values", body)
}

/// Map a library error onto the wire: status from the stable error code,
/// body `{"error":{"code":…,"message":…[,"detail":caret]}}`.
fn error_response(e: &Error, query_text: &str) -> Response {
    let status = match e.code() {
        "parse_error" | "sql_error" | "data_error" | "invalid_state" => 400,
        "timeout" => 408,
        "cancelled" => 499,
        "overloaded" => 503,
        _ => 500,
    };
    let detail = match e {
        Error::Sparql(pe) => Some(pe.render_caret(query_text)),
        _ => None,
    };
    let mut obj = Obj::new()
        .str("code", e.code())
        .str("message", &e.to_string());
    if let Some(d) = detail {
        obj = obj.str("detail", &d);
    }
    let mut resp = Response::new(
        status,
        "application/json",
        Obj::new().raw("error", &obj.build()).build(),
    );
    if status == 503 {
        resp.retry_after = Some(1);
    }
    resp
}

/// A standalone error response (no library error behind it).
fn error_body(status: u16, code: &str, message: &str, retry_after: Option<u64>) -> Response {
    let mut resp = Response::new(
        status,
        "application/json",
        Obj::new()
            .raw(
                "error",
                &Obj::new().str("code", code).str("message", message).build(),
            )
            .build(),
    );
    resp.retry_after = retry_after;
    resp
}
