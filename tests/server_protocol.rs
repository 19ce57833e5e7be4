//! End-to-end exercise of the HTTP front end over real TCP sockets: protocol
//! round-trips against direct library execution, the error taxonomy on the
//! wire (400 with caret, 408, 503 + Retry-After), admission control under
//! burst, graceful drain, and the engine-level proof that a cancelled query
//! stops within a bounded number of pages.

use sordf::{Database, QueryRequest, QueryResponse};
use sordf_engine::agg::OutVal;
use sordf_engine::{CancellationToken, ExecConfig, ExecContext, StopReason, StorageRef};
use sordf_model::{Dictionary, Term, TermTriple, Value};
use sordf_rdfh::{generate, RdfhConfig};
use sordf_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NS: &str = "http://lod2.eu/schemas/rdfh#";

/// A self-join over lineitem quantities: small output (COUNT), lots of
/// intermediate work — the workhorse for timeout/cancellation/drain tests.
fn heavy_query() -> String {
    format!(
        "PREFIX rdfh: <{NS}>\n\
         SELECT (COUNT(*) AS ?n) WHERE {{\n\
           ?a rdfh:lineitem_quantity ?x .\n\
           ?b rdfh:lineitem_quantity ?x .\n\
           ?a rdfh:lineitem_discount ?d .\n\
         }}"
    )
}

fn served_db() -> Arc<Database> {
    let data = generate(&RdfhConfig::new(0.002));
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&data.triples).unwrap();
    db.self_organize().unwrap();
    Arc::new(db)
}

fn start(db: Arc<Database>, cfg: ServerConfig) -> (Server, String) {
    let server = Server::bind(db, cfg).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (server, addr)
}

// ---- tiny blocking HTTP client ---------------------------------------------

struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn read_response(stream: &mut TcpStream) -> Resp {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        .collect();
    let content_len: usize = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0);
    let body_start = head_end + 4;
    while buf.len() < body_start + content_len {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    Resp {
        status,
        headers,
        body: String::from_utf8_lossy(&buf[body_start..body_start + content_len]).into_owned(),
    }
}

fn raw_request(addr: &str, head_and_body: &str) -> Resp {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(head_and_body.as_bytes()).unwrap();
    read_response(&mut stream)
}

fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn http_get(addr: &str, path_and_query: &str, accept: Option<&str>) -> Resp {
    let accept_line = accept
        .map(|a| format!("Accept: {a}\r\n"))
        .unwrap_or_default();
    raw_request(
        addr,
        &format!("GET {path_and_query} HTTP/1.1\r\nHost: t\r\n{accept_line}\r\n"),
    )
}

fn http_post(addr: &str, path_and_query: &str, content_type: &str, body: &str) -> Resp {
    raw_request(
        addr,
        &format!(
            "POST {path_and_query} HTTP/1.1\r\nHost: t\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Pull a numeric field out of a (flat-enough) JSON body.
fn json_num(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

// ---- the tests --------------------------------------------------------------

#[test]
fn round_trip_matches_direct_execution() {
    let db = served_db();
    let (server, addr) = start(Arc::clone(&db), ServerConfig::default());
    let sparql =
        format!("PREFIX rdfh: <{NS}>\nSELECT ?n WHERE {{ ?c rdfh:customer_name ?n }} ORDER BY ?n");

    // Direct library execution is the reference.
    let direct = db.execute(&QueryRequest::sparql(&sparql)).unwrap();
    let expected = direct.results.render(&direct.pin);

    // GET + TSV must agree row for row.
    let tsv = http_get(
        &addr,
        &format!("/query?query={}", urlencode(&sparql)),
        Some("text/tab-separated-values"),
    );
    assert_eq!(tsv.status, 200);
    let mut lines = tsv.body.lines();
    assert_eq!(lines.next(), Some("n"), "TSV header row");
    let got: Vec<Vec<String>> = lines
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect();
    assert_eq!(got, expected, "TSV rows == direct execution");

    // POST (raw body) + JSON: every value appears, bindings count matches.
    let json = http_post(&addr, "/query", "application/sparql-query", &sparql);
    assert_eq!(json.status, 200);
    assert!(json.body.starts_with("{\"head\":{\"vars\":[\"n\"]}"));
    assert_eq!(
        json.body.matches("Customer#").count(),
        expected.len(),
        "JSON bindings == direct execution"
    );

    // Form-encoded POST with lang=sql goes through the SQL front end.
    let sql = "SELECT customer_name FROM customer ORDER BY customer_name";
    let form = format!("query={}&lang=sql", urlencode(sql));
    let via_sql = http_post(&addr, "/query", "application/x-www-form-urlencoded", &form);
    assert_eq!(via_sql.status, 200);
    assert_eq!(
        via_sql.body.matches("Customer#").count(),
        expected.len(),
        "SQL view sees the same customers"
    );

    // Tracing adds executor stats to the JSON document.
    let traced = http_get(
        &addr,
        &format!("/query?query={}&trace=1", urlencode(&sparql)),
        None,
    );
    assert_eq!(traced.status, 200);
    assert!(json_num(&traced.body, "rows_scanned") > 0);
    server.shutdown();
}

/// One value as a result shows it, written from scratch: a term through
/// `Dictionary::decode` and `Value::lexical`, a computed number, NULL.
fn oracle_text(v: &OutVal, dict: &Dictionary) -> String {
    match v {
        OutVal::Null => "NULL".to_string(),
        OutVal::Num(n) if n.fract().abs() < 1e-9 && n.abs() < 1e15 => format!("{}", *n as i64),
        OutVal::Num(n) => format!("{n:.4}"),
        OutVal::Oid(o) => match dict.decode(*o).unwrap() {
            Term::Iri(iri) => format!("<{iri}>"),
            Term::Blank(b) => format!("_:{b}"),
            Term::Literal(l) => l.value.lexical(),
        },
    }
}

/// A JSON string literal, one character at a time.
fn oracle_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The JSON results document and the TSV body of `resp`, value by value
/// through [`oracle_text`].
fn oracle_bodies(resp: &QueryResponse) -> (String, String) {
    let rs = &resp.results;
    let rows: Vec<Vec<String>> = rs
        .rows()
        .map(|r| r.iter().map(|v| oracle_text(v, &resp.pin)).collect())
        .collect();
    let mut json = String::from("{\"head\":{\"vars\":[");
    for (i, c) in rs.columns.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        oracle_json_str(&mut json, c);
    }
    json.push_str("]},\"results\":{\"bindings\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            oracle_json_str(&mut json, v);
        }
        json.push(']');
    }
    json.push_str("]}}");
    let mut tsv = rs.columns.join("\t") + "\n";
    for row in &rows {
        tsv.push_str(&row.join("\t"));
        tsv.push('\n');
    }
    assert_eq!(rs.render(&resp.pin), rows, "ResultSet::render");
    (json, tsv)
}

/// Every JSON and TSV body the server sends is byte for byte the oracle's:
/// IRIs, blank nodes, plain and language-tagged strings with quotes,
/// backslashes, control characters and non-ASCII text — front-coded group
/// leaders and followers, and tail entries interned after the freeze —
/// integers, decimals, dates, dateTimes, booleans, computed numbers and
/// NULL.
#[test]
fn wire_bodies_match_a_per_value_oracle() {
    let e = |local: String| Term::iri(format!("http://e/{local}"));
    let string = |i: usize| {
        let tricky = [
            "\"quoted\"",
            "back\\slash",
            "line\nbreak\r\ttab",
            "bell\u{1}\u{1f}",
            "é日本",
            "",
        ];
        Term::str(format!("name {i:03} {}", tricky[i % tricky.len()]))
    };
    let tagged = |i: usize, lang: &str| {
        Term::literal(Value::Str {
            lexical: format!("chat \"{i}\" é"),
            lang: Some(lang.to_string()),
        })
    };
    let triples_of = |from: usize, to: usize| -> Vec<TermTriple> {
        (from..to)
            .flat_map(|i| {
                let s = e(format!("s{i}"));
                let t = |p: &str, o: Term| TermTriple::new(s.clone(), e(p.to_string()), o);
                vec![
                    t("name", string(i)),
                    t("label", tagged(i, if i % 2 == 0 { "fr" } else { "en-gb" })),
                    t("link", e(format!("t{i}"))),
                    t("bnode", Term::blank(format!("b{i}"))),
                    t("int", Term::int(i as i64 * 7 - 100)),
                    t("dec", Term::decimal_f64(i as f64 * 1.25 - 3.0)),
                    t("date", Term::literal(Value::Date(i as i64 * 400 - 9000))),
                    t(
                        "dt",
                        Term::literal(Value::DateTime(i as i64 * 90_061 - 400_000)),
                    ),
                    t("bool", Term::literal(Value::Bool(i % 3 == 0))),
                ]
            })
            .collect()
    };
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&triples_of(0, 40)).unwrap();
    db.self_organize().unwrap();
    // Interned after the freeze: tail entries of every pool.
    db.insert_terms(&triples_of(40, 46)).unwrap();
    let db = Arc::new(db);
    let (server, addr) = start(Arc::clone(&db), ServerConfig::default());

    let mut texts: Vec<String> = [
        "name", "label", "link", "bnode", "int", "dec", "date", "dt", "bool",
    ]
    .iter()
    .map(|p| format!("SELECT ?s ?o WHERE {{ ?s e:{p} ?o }}"))
    .collect();
    // Computed numbers, whole and fractional; NULL where nothing is there
    // to aggregate.
    texts.push(
        "SELECT (COUNT(?o) AS ?n) (SUM(?o) AS ?sum) (AVG(?o) AS ?avg) WHERE { ?s e:dec ?o }".into(),
    );
    texts.push("SELECT ?s (AVG(?o) AS ?avg) WHERE { ?s e:name ?o } GROUP BY ?s".into());
    let mut saw = (0, 0);
    for text in texts {
        let sparql = format!("PREFIX e: <http://e/> {text}");
        let direct = db.execute(&QueryRequest::sparql(&sparql)).unwrap();
        let (json, tsv) = oracle_bodies(&direct);
        let path = format!("/query?query={}", urlencode(&sparql));
        let got = http_get(&addr, &path, None);
        assert_eq!(got.status, 200, "{text}");
        assert_eq!(got.body, json, "JSON body of {text}");
        let got = http_get(&addr, &path, Some("text/tab-separated-values"));
        assert_eq!(got.body, tsv, "TSV body of {text}");
        saw.0 += direct.results.len();
        saw.1 += tsv.matches("NULL").count();
    }
    assert_eq!(saw, (10 * 46 + 1, 46), "every value kind was served");
    server.shutdown();
}

#[test]
fn parse_error_returns_400_with_caret() {
    let (server, addr) = start(served_db(), ServerConfig::default());
    let bad = "SELECT ?x WHERE { ?x broken";
    let resp = http_get(&addr, &format!("/query?query={}", urlencode(bad)), None);
    assert_eq!(resp.status, 400);
    assert!(
        resp.body.contains("\"code\":\"parse_error\""),
        "{}",
        resp.body
    );
    // The caret rendering (line/column + ^ marker) rides in "detail".
    assert!(resp.body.contains("line 1"), "{}", resp.body);
    assert!(resp.body.contains("^"), "{}", resp.body);

    // Missing query entirely.
    let none = http_get(&addr, "/query", None);
    assert_eq!(none.status, 400);
    assert!(none.body.contains("missing query"));

    // Unknown endpoints and wrong methods.
    assert_eq!(http_get(&addr, "/nope", None).status, 404);
    assert_eq!(http_get(&addr, "/update", None).status, 405);
    server.shutdown();
}

#[test]
fn timeout_returns_408_and_server_survives() {
    let (server, addr) = start(served_db(), ServerConfig::default());
    let resp = http_get(
        &addr,
        &format!("/query?query={}&timeout_ms=1", urlencode(&heavy_query())),
        None,
    );
    assert_eq!(resp.status, 408, "{}", resp.body);
    assert!(resp.body.contains("\"code\":\"timeout\""));

    // The same query without a deadline still completes afterwards.
    let ok = http_get(
        &addr,
        &format!("/query?query={}", urlencode(&heavy_query())),
        None,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);

    let status = http_get(&addr, "/status", None);
    assert_eq!(status.status, 200);
    assert!(json_num(&status.body, "timeouts") >= 1);
    // The completed run's scans are in the running totals: rows and
    // row-pages covered, and the `lineitem_discount` pages of star `?a`
    // nobody reads, decided by their zone maps without a pin.
    assert!(
        json_num(&status.body, "rows_scanned") > 0,
        "{}",
        status.body
    );
    assert!(
        json_num(&status.body, "pages_scanned") >= 2,
        "{}",
        status.body
    );
    assert!(
        json_num(&status.body, "column_pages_skipped") >= 2,
        "{}",
        status.body
    );
    server.shutdown();
}

/// EXPLAIN ANALYZE reports, next to the per-step actual rows, what the run
/// covered and what its zone maps spared it.
#[test]
fn explain_analyze_reports_scans() {
    let db = served_db();
    let (info, rs) = db
        .explain_analyze(&format!(
            "PREFIX rdfh: <{NS}>\nSELECT (COUNT(*) AS ?n) WHERE {{ \
             ?li rdfh:lineitem_quantity ?q . ?li rdfh:lineitem_discount ?d }}"
        ))
        .unwrap();
    assert_eq!(rs.len(), 1);
    let scans = info.scans.expect("analyzed");
    // Two pages of lineitems, two columns, neither read.
    assert_eq!((scans.pages_scanned, scans.column_pages_skipped), (2, 4));
    assert_eq!(info.steps[0].actual_rows, Some(scans.rows_scanned));
    assert!(
        info.text
            .contains("2 pages covered, 0 pages skipped by zone maps, 4 column pages decided"),
        "{}",
        info.text
    );
    // A plain EXPLAIN executed nothing.
    let planned = db
        .explain(&format!(
            "PREFIX rdfh: <{NS}>\nSELECT ?q WHERE {{ ?li rdfh:lineitem_quantity ?q }}"
        ))
        .unwrap();
    assert!(planned.scans.is_none() && !planned.text.contains("covered"));
}

#[test]
fn overload_burst_returns_503_with_retry_after() {
    let db = served_db();
    let cfg = ServerConfig {
        workers: 4,
        max_in_flight: 1,
        ..ServerConfig::default()
    };
    let (server, addr) = start(db, cfg);

    let quick = format!(
        "/query?query={}",
        urlencode(&format!(
            "PREFIX rdfh: <{NS}>\nSELECT ?n WHERE {{ ?c rdfh:customer_name ?n }}"
        ))
    );
    // The slot is held for the blocker's whole execution, so any query
    // arriving while `/status` (which bypasses admission) reports it in
    // flight must bounce with 503. On a heavily loaded box a blocker can
    // finish before the burst lands — re-arm with a fresh blocker until one
    // is caught mid-flight.
    let mut saw_503 = None;
    'attempts: for _ in 0..50 {
        let addr2 = addr.clone();
        let blocker = std::thread::spawn(move || {
            http_get(
                &addr2,
                &format!("/query?query={}", urlencode(&heavy_query())),
                None,
            )
        });
        loop {
            let status = http_get(&addr, "/status", None);
            let in_flight = json_num(&status.body, "in_flight");
            if in_flight >= 1 {
                let r = http_get(&addr, &quick, None);
                if r.status == 503 {
                    saw_503 = Some(r);
                    let blocked = blocker.join().unwrap();
                    assert_eq!(blocked.status, 200, "the admitted query still completes");
                    break 'attempts;
                }
                // A 200 means the slot freed between the status read and
                // the request landing — observe again.
            } else if blocker.is_finished() {
                // Missed this blocker entirely; arm another.
                let _ = blocker.join();
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let rejected = saw_503.expect("burst against a full server must hit 503");
    assert!(rejected.body.contains("\"code\":\"overloaded\""));
    assert_eq!(rejected.header("Retry-After"), Some("1"));

    let status = http_get(&addr, "/status", None);
    assert!(json_num(&status.body, "rejected") >= 1);
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_work() {
    let db = served_db();
    let (server, addr) = start(db, ServerConfig::default());

    let addr2 = addr.clone();
    let in_flight = std::thread::spawn(move || {
        http_get(
            &addr2,
            &format!("/query?query={}", urlencode(&heavy_query())),
            None,
        )
    });
    // Give the request time to be admitted, then drain.
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();

    // The in-flight query was served to completion, not chopped.
    let resp = in_flight.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // New connections find nobody accepting: the connect is refused, or (if
    // the OS still had the socket in its backlog) nothing ever answers.
    let outcome = match TcpStream::connect(&addr) {
        Err(_) => Ok(()), // refused — listener is gone
        Ok(mut s) => {
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = s.write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = [0u8; 1];
            match s.read(&mut buf) {
                Ok(0) => Ok(()), // accepted then closed
                Ok(_) => Err("served after shutdown"),
                Err(_) => Ok(()), // no worker answered
            }
        }
    };
    assert!(outcome.is_ok(), "{outcome:?}");
}

#[test]
fn client_disconnect_cancels_in_flight_query() {
    let db = served_db();
    let (server, addr) = start(Arc::clone(&db), ServerConfig::default());

    // Fire the heavy query and hang up immediately.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let q = format!("/query?query={}", urlencode(&heavy_query()));
        s.write_all(format!("GET {q} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        // Dropping the stream sends FIN/RST; the watchdog notices.
    }

    // The watchdog cancels within a few poll ticks.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = http_get(&addr, "/status", None);
        if json_num(&status.body, "cancelled") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect was never noticed: {}",
            status.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn update_roundtrip_and_status() {
    let db = served_db();
    let (server, addr) = start(Arc::clone(&db), ServerConfig::default());
    let nt = format!(
        "<{NS}customer424242> <{NS}customer_name> \"Customer#424242\" .\n\
         <{NS}customer424242> <{NS}customer_mktsegment> \"BUILDING\" .\n"
    );
    let ins = http_post(&addr, "/update?action=insert", "application/n-triples", &nt);
    assert_eq!(ins.status, 200, "{}", ins.body);
    assert_eq!(json_num(&ins.body, "inserted"), 2);

    // Queries over HTTP see the delta write.
    let q = format!(
        "PREFIX rdfh: <{NS}>\nSELECT ?s WHERE {{ ?s rdfh:customer_name \"Customer#424242\" }}"
    );
    let hit = http_get(&addr, &format!("/query?query={}", urlencode(&q)), None);
    assert_eq!(hit.status, 200);
    assert!(hit.body.contains("customer424242"), "{}", hit.body);

    let status = http_get(&addr, "/status", None);
    assert!(
        json_num(&status.body, "n_delta_inserts") >= 2,
        "{}",
        status.body
    );
    // The memory parts sum to the total; an organized store keeps no base
    // copy beside its layouts.
    let parts = ["dict_bytes", "base_bytes", "column_bytes", "delta_bytes"];
    assert!(
        parts
            .iter()
            .all(|&p| (json_num(&status.body, p) > 0) == (p != "base_bytes")),
        "{}",
        status.body
    );
    assert_eq!(
        parts.iter().map(|p| json_num(&status.body, p)).sum::<u64>(),
        json_num(&status.body, "total_bytes"),
        "{}",
        status.body
    );

    // Delete one triple back out.
    let del_body = format!("<{NS}customer424242> <{NS}customer_mktsegment> \"BUILDING\" .\n");
    let del = http_post(
        &addr,
        "/update?action=delete",
        "application/n-triples",
        &del_body,
    );
    assert_eq!(del.status, 200, "{}", del.body);
    assert_eq!(json_num(&del.body, "deleted"), 1);

    assert_eq!(
        http_post(&addr, "/update?action=frobnicate", "text/plain", "x").status,
        400
    );
    server.shutdown();
}

/// The acceptance-criteria differential: a cancelled query provably stops
/// early. Run the same plan twice at the engine level — once to completion,
/// once with a pre-tripped token — and compare the `pages_scanned` work
/// counter. The cancelled run must stop within a bounded number of pages
/// (the first poll boundary), far below the full run's page count.
#[test]
fn cancelled_query_scans_bounded_pages() {
    let db = served_db();
    let store = db.clustered_store().unwrap();
    let schema = db.schema().unwrap();
    let dict = db.dict();
    let query = sordf_sparql::parse_sparql(&heavy_query(), &dict).unwrap();
    let storage = || StorageRef::Clustered {
        store: &store,
        schema: &schema,
    };

    let full_cx = ExecContext::new(db.buffer_pool(), &dict, storage(), ExecConfig::default());
    let results = sordf_engine::execute(&full_cx, &query);
    assert_eq!(results.len(), 1, "COUNT produces one row");
    let full_pages = full_cx.stats.snapshot().pages_scanned;
    assert!(
        full_pages >= 4,
        "need a multi-page workload, got {full_pages}"
    );

    let token = CancellationToken::new();
    token.cancel();
    let cancelled_cx = ExecContext::new(db.buffer_pool(), &dict, storage(), ExecConfig::default())
        .with_cancel(Some(token));
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sordf_engine::execute(&cancelled_cx, &query)
    }))
    .unwrap_err();
    assert_eq!(
        sordf_engine::cancel::interrupted(payload.as_ref()),
        Some(StopReason::Cancelled)
    );
    let cancelled_pages = cancelled_cx.stats.snapshot().pages_scanned;
    assert!(
        cancelled_pages <= 2,
        "tripped token must stop within one poll boundary, scanned {cancelled_pages}"
    );
    assert!(cancelled_pages < full_pages);

    // The facade maps the same interrupt to the typed error.
    let err = db
        .execute(&QueryRequest::sparql(heavy_query()).timeout(Duration::ZERO))
        .unwrap_err();
    assert_eq!(err.code(), "timeout");
}
