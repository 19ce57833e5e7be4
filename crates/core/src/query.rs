//! The query path of the facade: the request/response types, the
//! shape-keyed plan cache, and [`Database::execute`] — one pipeline for both
//! query languages (check token → pin → compile → run) — with the EXPLAIN
//! family beside it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sordf_columnar::PoolStats;
use sordf_engine::agg::ResultSet;
use sordf_engine::context::StatsSnapshot;
use sordf_engine::planner::PlanInfo;
use sordf_engine::{
    CancellationToken, ExecConfig, ExecContext, ParallelConfig, PhysicalPlan, StopReason,
    StorageRef,
};
use sordf_storage::{DictPin, Snapshot, StoreGeneration};

use crate::{newest_generation, panic_message, Database, DbInner, Error, Generation, Pin};

/// The query language of a [`QueryRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryLang {
    /// The supported SPARQL subset (see `sordf_sparql`).
    Sparql,
    /// The emergent-schema SQL view (requires [`Database::self_organize`]).
    Sql,
}

/// One fully-specified query, the single argument of [`Database::execute`].
///
/// A builder over language, generation pin, engine configuration, morsel
/// parallelism, snapshot, trace, and the request-lifecycle knobs — a
/// deadline ([`timeout`](Self::timeout)) and a [`CancellationToken`]
/// ([`cancel`](Self::cancel)). Every option applies to both languages;
/// everything is optional except the query text:
///
/// ```
/// use sordf::{Database, QueryRequest};
/// use std::time::Duration;
///
/// let mut db = Database::in_temp_dir().unwrap();
/// db.load_ntriples("<http://ex/s> <http://ex/p> <http://ex/o> .").unwrap();
/// db.self_organize().unwrap();
/// let resp = db
///     .execute(&QueryRequest::sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o . }")
///         .timeout(Duration::from_secs(5))
///         .traced(true))
///     .unwrap();
/// assert_eq!(resp.results.len(), 1);
/// assert!(resp.stats.unwrap().rows_scanned >= 1);
/// ```
///
/// When both a token and a timeout are given, the effective deadline is the
/// earlier of the two and cancelling the caller's token still stops the
/// query. A tripped token fails the request with [`Error::Cancelled`] /
/// [`Error::Timeout`] *before* execution starts, so queueing time counts
/// against the deadline.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    text: String,
    lang: QueryLang,
    generation: Option<Generation>,
    config: Option<ExecConfig>,
    parallel: Option<ParallelConfig>,
    snapshot: Option<Snapshot>,
    timeout: Option<Duration>,
    cancel: Option<CancellationToken>,
    trace: bool,
}

impl QueryRequest {
    fn new(text: impl Into<String>, lang: QueryLang) -> QueryRequest {
        QueryRequest {
            text: text.into(),
            lang,
            generation: None,
            config: None,
            parallel: None,
            snapshot: None,
            timeout: None,
            cancel: None,
            trace: false,
        }
    }

    /// A SPARQL request with every option defaulted: newest generation,
    /// the default [`ExecConfig`], one worker, current data, no deadline, no
    /// trace.
    pub fn sparql(text: impl Into<String>) -> QueryRequest {
        QueryRequest::new(text, QueryLang::Sparql)
    }

    /// A SQL request against the emergent relational view (requires
    /// [`Database::self_organize`] first). Same defaults as
    /// [`sparql`](Self::sparql). SQL reads the clustered generation only:
    /// pinning any other [`generation`](Self::generation) fails the request
    /// with [`Error::State`].
    pub fn sql(text: impl Into<String>) -> QueryRequest {
        QueryRequest::new(text, QueryLang::Sql)
    }

    /// Pin the storage generation (default: newest built).
    pub fn generation(mut self, generation: Generation) -> QueryRequest {
        self.generation = Some(generation);
        self
    }

    /// Override the default engine configuration.
    pub fn config(mut self, config: ExecConfig) -> QueryRequest {
        self.config = Some(config);
        self
    }

    /// Evaluate the query's morsels on `parallel.workers` threads sharing
    /// this database's buffer pool (see [`sordf_engine::parallel`]; the
    /// default is one worker, inline on the calling thread). Non-aggregate
    /// results are byte-identical for every worker count (same rows, same
    /// order); SUM/AVG aggregates merge per-span partials through the
    /// compensated accumulator and may differ in the last ulp
    /// (canonical/rendered forms agree — do not compare raw aggregate `f64`s
    /// bitwise).
    pub fn parallel(mut self, parallel: ParallelConfig) -> QueryRequest {
        self.parallel = Some(parallel);
        self
    }

    /// Pin the visible data to a write [`Snapshot`] (see
    /// [`Database::snapshot`]); later writes are invisible.
    pub fn snapshot(mut self, snapshot: Snapshot) -> QueryRequest {
        self.snapshot = Some(snapshot);
        self
    }

    /// Fail with [`Error::Timeout`] once this much time has passed —
    /// measured from [`Database::execute`] entry, enforced cooperatively at
    /// page granularity inside the engine.
    pub fn timeout(mut self, timeout: Duration) -> QueryRequest {
        self.timeout = Some(timeout);
        self
    }

    /// Attach a cancellation token; [`CancellationToken::cancel`] from any
    /// thread fails the query with [`Error::Cancelled`] within one page of
    /// work.
    pub fn cancel(mut self, cancel: CancellationToken) -> QueryRequest {
        self.cancel = Some(cancel);
        self
    }

    /// Collect operator and buffer-pool statistics into
    /// [`QueryResponse::stats`] / [`QueryResponse::pool`].
    pub fn traced(mut self, trace: bool) -> QueryRequest {
        self.trace = trace;
        self
    }

    /// The query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The query language.
    pub fn lang(&self) -> QueryLang {
        self.lang
    }

    /// The token execution actually polls: the caller's token, the timeout,
    /// or their combination (earliest deadline wins, cancellation shared).
    fn effective_token(&self) -> Option<CancellationToken> {
        let deadline = self.timeout.and_then(|t| Instant::now().checked_add(t));
        match (&self.cancel, deadline) {
            (None, None) => None,
            (Some(t), None) => Some(t.clone()),
            (None, Some(d)) => Some(CancellationToken::with_deadline(Some(d))),
            (Some(t), Some(d)) => Some(t.with_deadline_floor(d)),
        }
    }
}

/// What [`Database::execute`] returns.
///
/// # Decoding results
///
/// `results` holds OIDs valid under the dictionary the query executed
/// against, and a concurrent reorganization installs a *renumbered*
/// dictionary — so results must be decoded through the [`DictPin`] carried
/// here (`resp.results.canonical(&resp.pin)`), never through a fresh
/// [`Database::dict`] taken after the query returns. The pin also keeps that
/// dictionary generation alive for as long as you hold the response.
#[derive(Debug)]
pub struct QueryResponse {
    pub results: ResultSet,
    /// Read pin on the dictionary the query executed under — the only
    /// correct way to decode `results` (see the type-level docs).
    pub pin: DictPin,
    /// Operator statistics, when the request was [`QueryRequest::traced`].
    pub stats: Option<StatsSnapshot>,
    /// Buffer-pool activity attributable to this query, when traced.
    pub pool: Option<PoolStats>,
}

/// See [`DbInner::plans`].
#[derive(Default)]
pub(crate) struct PlanCache {
    /// The [`crate::State::epoch`] the cached plans were optimized under.
    epoch: u64,
    map: HashMap<String, Arc<PhysicalPlan>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Plan-cache counters (see [`Database::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Cached plans currently held.
    pub entries: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the optimizer.
    pub misses: u64,
    /// Whole-cache invalidations (epoch bumps observed).
    pub invalidations: u64,
}

impl DbInner {
    /// Fetch a cached plan for `key` (stamped `epoch`), or optimize via
    /// `make` and cache the result. An epoch change clears the whole cache
    /// first — every cached plan references the superseded dictionary.
    ///
    /// The `plans` mutex is unranked and leaf-only: held just for the map
    /// access, never across `pin()`/`state` acquisitions or the optimizer.
    fn cached_plan(
        &self,
        key: String,
        epoch: u64,
        make: impl FnOnce() -> PhysicalPlan,
    ) -> Arc<PhysicalPlan> {
        {
            let mut pc = self.plans.lock();
            if pc.epoch != epoch {
                pc.map.clear();
                pc.epoch = epoch;
                pc.invalidations += 1;
            }
            if let Some(pp) = pc.map.get(&key).map(Arc::clone) {
                pc.hits += 1;
                return pp;
            }
            pc.misses += 1;
        }
        // Optimize outside the lock — concurrent same-shape queries may
        // both optimize; last insert wins, both plans are valid.
        let pp = Arc::new(make());
        let mut pc = self.plans.lock();
        if pc.epoch == epoch {
            pc.map.insert(key, Arc::clone(&pp));
        }
        pp
    }
}

impl Database {
    /// Run a SPARQL query against the newest generation with the default
    /// configuration. Shorthand for
    /// `execute(&QueryRequest::sparql(sparql))`.
    pub fn query(&self, sparql: &str) -> Result<ResultSet, Error> {
        Ok(self.execute(&QueryRequest::sparql(sparql))?.results)
    }

    /// Run a SPARQL query pinned to a [`Snapshot`] (newest generation,
    /// default configuration).
    pub fn query_snapshot(&self, sparql: &str, snap: Snapshot) -> Result<ResultSet, Error> {
        Ok(self
            .execute(&QueryRequest::sparql(sparql).snapshot(snap))?
            .results)
    }

    /// Run a SQL query against the emergent relational schema (requires
    /// [`Database::self_organize`] first). Shorthand for
    /// `execute(&QueryRequest::sql(sql))`.
    pub fn sql(&self, sql: &str) -> Result<ResultSet, Error> {
        Ok(self.execute(&QueryRequest::sql(sql))?.results)
    }

    /// Execute one [`QueryRequest`] — the single entry point every other
    /// query method (and the HTTP server) funnels through, one pipeline for
    /// both languages.
    ///
    /// Checks the request's token *before* touching any state (so time spent
    /// queueing counts against the deadline), pins the generation + delta
    /// snapshot, compiles the text by language, and runs the compiled query:
    /// plan-cache lookup, the engine with the token and the worker count
    /// threaded into the execution context, a mid-query interrupt mapped to
    /// [`Error::Cancelled`] / [`Error::Timeout`] rather than a stringly
    /// [`Error::Exec`]. See [`QueryResponse`] for the result-decoding rule
    /// under concurrent reorganization.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse, Error> {
        let cancel = req.effective_token();
        if let Some(t) = &cancel {
            match t.stop_reason() {
                Some(StopReason::Cancelled) => return Err(Error::Cancelled),
                Some(StopReason::TimedOut) => return Err(Error::Timeout),
                None => {}
            }
        }
        match req.lang {
            QueryLang::Sparql => {
                let pin = self.inner.pin(req.snapshot);
                // `None` = newest built in the *pinned* generation, so a
                // concurrent swap cannot split the choice from the data it
                // runs on.
                let generation = match req.generation {
                    Some(g) => g,
                    None => newest_generation(&pin.gen)?,
                };
                let query = sordf_sparql::parse_sparql(&req.text, &pin.dict)?;
                self.run(req, pin, generation, &query, cancel)
            }
            QueryLang::Sql => {
                if let Some(g) = req.generation.filter(|&g| g != Generation::Clustered) {
                    return Err(Error::State(format!(
                        "the SQL view reads the clustered generation only; \
                         the request pins {g:?}"
                    )));
                }
                // Deletes of base rows are respected through the delta
                // view, and rows inserted since the last reorganization are
                // admitted through the routing table captured with the pin:
                // the compiler widens each table's segment restriction to
                // include its class's delta-routed subjects, whose triples
                // the delta merge already surfaces. (At a historical
                // snapshot, routed-but-later subjects contribute nothing —
                // their triples are absent from that delta view.)
                let (pin, routed) = self.inner.pin_with_routing(req.snapshot);
                let (Some(store), Some(schema)) = (&pin.gen.clustered, &pin.gen.schema) else {
                    return Err(Error::State(
                        "SQL view requires self_organize() first".into(),
                    ));
                };
                let query = sordf_sql::compile_sql(&req.text, schema, store, &pin.dict, &routed)
                    .map_err(Error::Sql)?;
                self.run(req, pin, Generation::Clustered, &query, cancel)
            }
        }
    }

    /// The execution context of a pinned query: storage of `generation`,
    /// the pinned dictionary and delta view.
    fn context<'a>(
        &'a self,
        pin: &'a Pin,
        generation: Generation,
        config: ExecConfig,
    ) -> Result<ExecContext<'a>, Error> {
        let storage = storage_for(&pin.gen, generation)?;
        Ok(
            ExecContext::new(&self.inner.pool, &pin.dict, storage, config)
                .with_delta(pin.delta.clone()),
        )
    }

    /// Run a compiled query against its pin — the half of
    /// [`Database::execute`] both languages share.
    fn run(
        &self,
        req: &QueryRequest,
        pin: Pin,
        generation: Generation,
        query: &sordf_engine::Query,
        cancel: Option<CancellationToken>,
    ) -> Result<QueryResponse, Error> {
        let config = req.config.unwrap_or_default();
        let mut cx = self.context(&pin, generation, config)?.with_cancel(cancel);
        if let Some(par) = req.parallel {
            cx = cx.with_parallel(par);
        }
        let pool_before = self.inner.pool.stats();
        let key = plan_cache_key(query, generation, config);
        // Query-boundary fault isolation: an engine panic (e.g. a page read
        // that keeps failing after the pool's retries) fails this query, not
        // the process — the next query sees intact immutable storage. A
        // cancellation/deadline interrupt rides the same unwind and is
        // downcast back to its typed error here.
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (q, lp) = sordf_engine::prepare(query);
            let pp = self
                .inner
                .cached_plan(key, pin.epoch, || sordf_engine::optimize(&cx, &lp));
            sordf_engine::execute_physical(&cx, &q, &lp, &pp, None)
        }))
        .map_err(interrupt_or_exec)?;
        let counted = cx.stats.snapshot();
        self.inner.scans.absorb(&counted);
        let stats = req.trace.then_some(counted);
        let pool = req
            .trace
            .then(|| self.inner.pool.stats().since(&pool_before));
        drop(cx);
        Ok(QueryResponse {
            results,
            pin: pin.dict,
            stats,
            pool,
        })
    }

    /// Run a SPARQL query and return the results together with a read pin
    /// on the dictionary the query executed under. Under concurrent
    /// reorganization this is the only way to decode correctly: a swap
    /// installs a *renumbered* dictionary, so results must be rendered with
    /// the pinned one — `results.canonical(&pin)` — never with a fresh
    /// [`Database::dict`] taken after the query. ([`Database::execute`]
    /// returns the same pin on every [`QueryResponse`].)
    pub fn query_pinned(
        &self,
        sparql: &str,
        generation: Generation,
        config: ExecConfig,
        parallel: Option<&ParallelConfig>,
    ) -> Result<(ResultSet, DictPin), Error> {
        let mut req = QueryRequest::sparql(sparql)
            .generation(generation)
            .config(config);
        if let Some(par) = parallel {
            req = req.parallel(*par);
        }
        let resp = self.execute(&req)?;
        Ok((resp.results, resp.pin))
    }

    /// Explain the plan a SPARQL query would get: star order, the physical
    /// operator and join strategy per step, per-step cost and estimated
    /// cardinality. Always re-optimizes (never served from the plan cache),
    /// so it shows what the optimizer would pick *now*.
    pub fn explain(&self, sparql: &str) -> Result<PlanInfo, Error> {
        let pin = self.inner.pin(None);
        self.explain_pinned(
            &pin,
            sparql,
            newest_generation(&pin.gen)?,
            ExecConfig::default(),
        )
    }

    /// [`Database::explain`] against an explicit generation and exec config.
    pub fn explain_with(
        &self,
        sparql: &str,
        generation: Generation,
        config: ExecConfig,
    ) -> Result<PlanInfo, Error> {
        let pin = self.inner.pin(None);
        self.explain_pinned(&pin, sparql, generation, config)
    }

    fn explain_pinned(
        &self,
        pin: &Pin,
        sparql: &str,
        generation: Generation,
        config: ExecConfig,
    ) -> Result<PlanInfo, Error> {
        let query = sordf_sparql::parse_sparql(sparql, &pin.dict)?;
        let cx = self.context(pin, generation, config)?;
        Ok(sordf_engine::explain(&cx, &query))
    }

    /// EXPLAIN ANALYZE: execute the query and report the plan with per-step
    /// *actual* bound-row counts alongside the optimizer's estimates.
    pub fn explain_analyze(&self, sparql: &str) -> Result<(PlanInfo, ResultSet), Error> {
        let pin = self.inner.pin(None);
        let query = sordf_sparql::parse_sparql(sparql, &pin.dict)?;
        let cx = self.context(&pin, newest_generation(&pin.gen)?, ExecConfig::default())?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sordf_engine::explain_analyze(&cx, &query)
        }))
        .map_err(|payload| Error::Exec(panic_message(payload)))
    }

    /// Plan-cache counters: entries, hits, misses, and epoch invalidations.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let pc = self.inner.plans.lock();
        PlanCacheStats {
            entries: pc.map.len() as u64,
            hits: pc.hits,
            misses: pc.misses,
            invalidations: pc.invalidations,
        }
    }
}

/// The plan-cache key: generation + engine config + the structural shape of
/// the parsed query. Variables keep their ids (plan steps reference them,
/// and ids depend on the full parse order — so the *whole* query shape is
/// serialized, not just the BGP); predicates keep their OIDs (they decide
/// the plan); object and filter constants are abstracted to `C`/`N` so one
/// cached plan serves a query family differing only in literals.
fn plan_cache_key(
    query: &sordf_engine::Query,
    generation: Generation,
    config: ExecConfig,
) -> String {
    use sordf_engine::{Expr, SelectItem, VarOrOid};
    use std::fmt::Write;
    fn expr(out: &mut String, e: &Expr) {
        match e {
            Expr::Var(v) => {
                let _ = write!(out, "?{}", v.0);
            }
            Expr::Const(_) => out.push('C'),
            Expr::Num(_) => out.push('N'),
            Expr::Cmp(a, op, b) => {
                let _ = write!(out, "({op:?} ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::Arith(a, op, b) => {
                let _ = write!(out, "({op:?} ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::And(a, b) => {
                out.push_str("(and ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::Or(a, b) => {
                out.push_str("(or ");
                expr(out, a);
                out.push(' ');
                expr(out, b);
                out.push(')');
            }
            Expr::Not(a) => {
                out.push_str("(not ");
                expr(out, a);
                out.push(')');
            }
            Expr::InRange(a, ..) => {
                // The bounds are a class segment's subject range: the
                // generation decides them, and they are not in the plan.
                out.push_str("(range ");
                expr(out, a);
                out.push(')');
            }
            Expr::InSet(a, _) => {
                // The members are constants like any other (the SQL
                // compiler lists a table's delta-routed subjects here): a
                // plan holds none of them, so one plan serves every set.
                out.push_str("(in ");
                expr(out, a);
                out.push(')');
            }
        }
    }
    let pos = |out: &mut String, v: VarOrOid| match v {
        VarOrOid::Var(v) => {
            let _ = write!(out, "?{}", v.0);
        }
        VarOrOid::Const(_) => out.push('C'),
    };
    let mut out = format!(
        "{generation:?}|{:?}|zm{}|v{}|",
        config.scheme,
        config.zonemaps,
        query.vars.len()
    );
    for p in &query.patterns {
        pos(&mut out, p.s);
        let _ = write!(out, " {} ", p.p.raw());
        pos(&mut out, p.o);
        out.push('.');
    }
    out.push('|');
    for f in &query.filters {
        expr(&mut out, f);
    }
    out.push('|');
    for item in &query.select {
        match item {
            SelectItem::Var(v) => {
                let _ = write!(out, "?{},", v.0);
            }
            SelectItem::Expr { expr: e, .. } => {
                out.push_str("e:");
                expr(&mut out, e);
                out.push(',');
            }
            SelectItem::Agg { func, expr: e, .. } => {
                let _ = write!(out, "a{func:?}:");
                expr(&mut out, e);
                out.push(',');
            }
        }
    }
    out.push('|');
    for g in &query.group_by {
        let _ = write!(out, "?{},", g.0);
    }
    let _ = write!(
        out,
        "|o{:?}|l{:?}|d{}",
        query
            .order_by
            .iter()
            .map(|k| (k.output, k.ascending))
            .collect::<Vec<_>>(),
        query.limit,
        query.distinct
    );
    out
}

fn storage_for(gen: &StoreGeneration, generation: Generation) -> Result<StorageRef<'_>, Error> {
    match generation {
        Generation::Baseline => {
            gen.baseline
                .as_deref()
                .map(StorageRef::Baseline)
                .ok_or(Error::State(
                    "baseline not built; call build_baseline()".into(),
                ))
        }
        Generation::CsParseOrder => gen
            .cs_parse_order
            .as_ref()
            .map(|(store, schema)| StorageRef::Clustered { store, schema })
            .ok_or(Error::State(
                "CS tables not built; call build_cs_tables()".into(),
            )),
        Generation::Clustered => match (&gen.clustered, &gen.schema) {
            (Some(store), Some(schema)) => Ok(StorageRef::Clustered { store, schema }),
            _ => Err(Error::State(
                "not self-organized; call self_organize()".into(),
            )),
        },
    }
}

/// Classify a payload caught at the query boundary: a cancellation/deadline
/// interrupt (see [`sordf_engine::cancel`]) maps to its typed error; any
/// other panic is a genuine engine fault and stays a stringly `Exec`.
fn interrupt_or_exec(payload: Box<dyn std::any::Any + Send>) -> Error {
    match sordf_engine::cancel::interrupted(payload.as_ref()) {
        Some(StopReason::Cancelled) => Error::Cancelled,
        Some(StopReason::TimedOut) => Error::Timeout,
        None => Error::Exec(panic_message(payload)),
    }
}
