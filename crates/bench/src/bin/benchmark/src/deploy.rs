//! Product set-up and the correctness reference.
//!
//! Every workload runs the clustered-only deployment: `load_terms` +
//! `self_organize`, no six-permutation baseline in the measured store. The
//! baseline lives only in the scratch [`Reference`] the answers are checked
//! against before anything is timed.

use crate::catalog::{Class, Lang};
use crate::http::{urlencode, Client};
use crate::json;
use crate::{Res, Workload};
use sordf::{Database, Generation, QueryRequest, QueryResponse, SyncPolicy};
use sordf_engine::agg::ResultSet;
use sordf_model::TermTriple;
use sordf_server::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A directory inside the checkout that holds every file the run creates
/// (page files, the durable directory, scratch logs) and is removed when
/// the run ends, also when it fails.
#[must_use = "the scratch directory is removed when this is dropped"]
pub struct ScratchDir {
    pub path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/<pid>` under the working directory and points
    /// `TMPDIR` at it, which is where `Database::in_temp_dir` puts its page
    /// file. Call before any thread starts.
    pub fn create() -> Res<ScratchDir> {
        let root = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".bench_tmp");
        let path = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        std::env::set_var("TMPDIR", &path);
        Ok(ScratchDir { path })
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only when no other run shares the parent.
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// One set-up product: the store, and for `serve_selective` its server.
pub struct Deployment {
    pub db: Arc<Database>,
    pub server: Option<Server>,
    pub addr: Option<SocketAddr>,
    /// The durable directory (`write_mix` only).
    pub dir: Option<PathBuf>,
    pub setup_s: f64,
    pub load_s: f64,
    pub organize_s: f64,
}

impl Deployment {
    /// Stop the server, drop the store and delete its files.
    pub fn tear_down(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let dir = self.dir.take();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The request path of each class constant over HTTP.
pub fn target(class: &Class, k: usize, trace: bool) -> String {
    let mut t = format!("/query?query={}", urlencode(&class.texts[k]));
    if class.lang == Lang::Sql {
        t.push_str("&lang=sql");
    }
    if trace {
        t.push_str("&trace=1");
    }
    t
}

/// Product set-up as `setup_s` counts it: create, load, self-organize,
/// bind the server where there is one, and one warm-up pass over every
/// class constant through the workload's own request path.
pub fn set_up(
    workload: Workload,
    triples: &[TermTriple],
    classes: &[Class],
    scratch: &Path,
    attempt: usize,
) -> Res<Deployment> {
    let t0 = Instant::now();
    let dir = (workload == Workload::WriteMix).then(|| scratch.join(format!("durable-{attempt}")));
    let db = match &dir {
        Some(dir) => Database::create_durable(dir, SyncPolicy::Always),
        None => Database::in_temp_dir(),
    }
    .map_err(|e| format!("create database: {e}"))?;
    let t = Instant::now();
    db.load_terms(triples).map_err(|e| format!("load: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    // On the durable store this also commits the checkpoint recovery
    // starts from.
    db.self_organize()
        .map_err(|e| format!("self_organize: {e}"))?;
    let organize_s = t.elapsed().as_secs_f64();
    let db = Arc::new(db);
    let (server, addr) = if workload == Workload::ServeSelective {
        let (server, addr) = bind(&db)?;
        (Some(server), Some(addr))
    } else {
        (None, None)
    };
    match addr {
        Some(addr) => {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            for class in classes {
                for k in 0..class.texts.len() {
                    let (status, body) = client
                        .get(&target(class, k, false))
                        .map_err(|e| format!("warm-up {}: {e}", class.name))?;
                    if status != 200 {
                        return Err(format!("warm-up {}: HTTP {status}: {body}", class.name));
                    }
                }
            }
        }
        None => {
            for class in classes {
                for k in 0..class.texts.len() {
                    db.execute(&class.request(k))
                        .map_err(|e| format!("warm-up {}: {e}", class.name))?;
                }
            }
        }
    }
    Ok(Deployment {
        db,
        server,
        addr,
        dir,
        setup_s: t0.elapsed().as_secs_f64(),
        load_s,
        organize_s,
    })
}

/// The served configuration: two workers on loopback, defaults otherwise.
pub fn bind(db: &Arc<Database>) -> Res<(Server, SocketAddr)> {
    let server = Server::bind(
        Arc::clone(db),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    Ok((server, addr))
}

/// The library rendering of a reply as the server's JSON results document
/// (`sordf_server`'s private `render_json`, without the `stats` member).
pub fn wire_body(resp: &QueryResponse) -> String {
    let mut vars = String::from("[");
    for (i, c) in resp.results.columns.iter().enumerate() {
        if i > 0 {
            vars.push(',');
        }
        json::push_str(&mut vars, c);
    }
    vars.push(']');
    let mut bindings = String::from("[");
    for (i, row) in resp.results.render(&resp.pin).iter().enumerate() {
        if i > 0 {
            bindings.push(',');
        }
        bindings.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                bindings.push(',');
            }
            json::push_str(&mut bindings, v);
        }
        bindings.push(']');
    }
    bindings.push(']');
    format!("{{\"head\":{{\"vars\":{vars}}},\"results\":{{\"bindings\":{bindings}}}}}")
}

/// Does `body` carry exactly the expected results document? A traced
/// request appends a `stats` member before the closing brace.
pub fn body_matches(body: &str, expected: &str, traced: bool) -> bool {
    if traced {
        body.starts_with(&expected[..expected.len() - 1]) && body.ends_with("}}")
    } else {
        body == expected
    }
}

/// The scratch reference: the same triples bulk-loaded under the paper's
/// comparison layout, the exhaustive six-permutation baseline.
pub struct Reference {
    db: Database,
}

impl Reference {
    pub fn build(loads: &[&[TermTriple]]) -> Res<Reference> {
        let db = Database::in_temp_dir().map_err(|e| format!("reference: {e}"))?;
        for triples in loads {
            db.load_terms(triples)
                .map_err(|e| format!("reference load: {e}"))?;
        }
        db.build_baseline()
            .map_err(|e| format!("reference baseline: {e}"))?;
        Ok(Reference { db })
    }

    /// Canonical answer of class constant `k`. The baseline has no SQL view,
    /// so a SQL class is answered through its SPARQL twin.
    pub fn canonical(&self, class: &Class, k: usize) -> Res<Vec<String>> {
        let text = match &class.sparql_twin {
            Some(twin) => &twin[k],
            None => &class.texts[k],
        };
        let resp = self
            .db
            .execute(&QueryRequest::sparql(text).generation(Generation::Baseline))
            .map_err(|e| format!("reference {}[{k}]: {e}", class.name))?;
        Ok(resp.results.canonical(&resp.pin))
    }
}

/// The checked answers of the store under test: `[class][constant]`.
pub struct Expected {
    /// What the library returned, for value-by-value comparison in the run.
    pub results: Vec<Vec<ResultSet>>,
    /// The same answers as wire bodies (`serve_selective`).
    pub bodies: Vec<Vec<String>>,
    pub checks: u64,
    pub mismatches: u64,
}

/// Execute every class constant once on `db` and compare it canonically
/// with the reference. At most `limit` constants per class are checked.
pub fn check_against_reference(
    db: &Database,
    classes: &[Class],
    reference: &Reference,
    limit: usize,
) -> Res<Expected> {
    let mut out = Expected {
        results: Vec::new(),
        bodies: Vec::new(),
        checks: 0,
        mismatches: 0,
    };
    for class in classes {
        let mut results = Vec::new();
        let mut bodies = Vec::new();
        for k in 0..class.texts.len().min(limit) {
            let resp = db
                .execute(&class.request(k))
                .map_err(|e| format!("{}[{k}]: {e}", class.name))?;
            out.checks += 1;
            if resp.results.canonical(&resp.pin) != reference.canonical(class, k)? {
                eprintln!("MISMATCH {}[{k}] differs from the reference", class.name);
                out.mismatches += 1;
            }
            bodies.push(wire_body(&resp));
            results.push(resp.results);
        }
        out.results.push(results);
        out.bodies.push(bodies);
    }
    Ok(out)
}

pub fn same_rows(a: &ResultSet, b: &ResultSet) -> bool {
    a.len() == b.len() && a.columns == b.columns && a.rows().eq(b.rows())
}
