//! The certification daemon.
//!
//! One accept-loop thread hands each TCP connection to its own handler
//! thread; a connection carries any number of request-batch frames, each
//! answered by one response-batch frame in order. The heavy lifting —
//! `run_verification` fan-out over vertices — already runs on the shared
//! `locert-par` pool, so handler threads are thin coordinators.
//!
//! Request execution is sequential within a batch, with all admission
//! permits acquired upfront in request order: a batch carrying more
//! same-scheme requests than the per-scheme limit deterministically sees
//! exactly the excess rejected as `overloaded`, independent of thread
//! scheduling.
//!
//! Drain semantics: a shutdown (the wire opcode or [`Server::shutdown`])
//! sets the stop flag and wakes the accept loop. In-flight batches run
//! to completion; batches arriving after the flag answer every request
//! with `shutting-down`; idle connections close at their next read
//! timeout; then the accept loop and every handler are joined. The
//! optional metrics plane (a `locert-scope` HTTP exporter serving
//! `/metrics` and `/healthz` from the global trace registry) stops last,
//! so a scrape race at shutdown still sees final counters.

use crate::admit::{Admission, Permit};
use crate::cache::{CacheKey, CertCache};
use crate::proto::{self, CacheDisposition, ErrorCode, Message, Mode, Request, Response};
use locert_core::catalogue::{self, SchemeEntry};
use locert_core::framework::{
    run_verification, Assignment, Instance, ProverError, VerificationOutcome,
};
use locert_core::schemes::common::id_bits_for;
use locert_graph::io::{MAX_EDGES, MAX_VERTICES};
use locert_graph::{Graph, IdAssignment};
use locert_trace::journal::{self, Event};
use std::cell::OnceCell;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address for the binary protocol (`127.0.0.1:0` for an
    /// ephemeral port).
    pub addr: String,
    /// Certificate-cache capacity, entries.
    pub cache_capacity: usize,
    /// Per-scheme in-flight request limit.
    pub admission_limit: usize,
    /// Bind address for the HTTP metrics plane; `None` disables it.
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 256,
            admission_limit: 64,
            metrics_addr: None,
        }
    }
}

struct Shared {
    cache: Mutex<CertCache>,
    admission: Admission,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    serve_addr: SocketAddr,
}

impl Shared {
    fn draining(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Sets the stop flag and wakes the accept loop.
    fn begin_drain(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.serve_addr);
    }
}

/// A running daemon; dropping it drains and joins everything.
pub struct Server {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Option<locert_scope::http::ScopeServer>,
}

impl Server {
    /// Binds and starts serving in the background.
    ///
    /// # Errors
    ///
    /// The bind error for either plane.
    pub fn start(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let serve_addr = listener.local_addr()?;
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(locert_scope::http::ScopeServer::serve(addr, None)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: Mutex::new(CertCache::new(config.cache_capacity)),
            admission: Admission::new(config.admission_limit),
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            serve_addr,
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_handlers = Arc::clone(&handlers);
        let accept_handle = std::thread::Builder::new()
            .name("locert-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_handlers))?;
        Ok(Server {
            shared,
            accept_handle: Some(accept_handle),
            handlers,
            metrics,
        })
    }

    /// The bound protocol address (real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.serve_addr
    }

    /// The metrics plane address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Cache counters `(hits, misses, evictions)` — the daemon-side
    /// truth the wire dispositions must reconcile with.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        let cache = self.shared.cache.lock().expect("cache lock poisoned");
        (cache.hits(), cache.misses(), cache.evictions())
    }

    /// Connection handlers in the registry: the running ones, and those
    /// finished since the last accepted connection (each accept reaps
    /// the finished ones).
    pub fn handler_count(&self) -> usize {
        self.handlers
            .lock()
            .expect("handler registry poisoned")
            .len()
    }

    fn join_all(&mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let drained: Vec<_> = {
            let mut handlers = self.handlers.lock().expect("handler registry poisoned");
            handlers.drain(..).collect()
        };
        for handle in drained {
            let _ = handle.join();
        }
        if let Some(mut metrics) = self.metrics.take() {
            metrics.shutdown();
        }
    }

    /// Initiates a drain and blocks until every thread has exited.
    pub fn shutdown(&mut self) {
        self.shared.begin_drain();
        self.join_all();
    }

    /// Blocks until a client-initiated shutdown (the wire opcode)
    /// drains the daemon. The foreground of the `locert-serve` binary.
    pub fn join(&mut self) {
        self.join_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The pause after a failed `accept`, doubled per consecutive failure up
/// to [`ACCEPT_BACKOFF_MAX`]: a listener out of file descriptors fails
/// at once, and retrying at once would spin a core.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);

/// The longest pause between failed `accept`s.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        if shared.draining() {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                stream
            }
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        if shared.draining() {
            return; // the wake-up connection from `begin_drain`
        }
        let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("locert-serve-conn-{conn}"))
            .spawn(move || {
                let _ = handle_connection(stream, &conn_shared, conn);
            });
        let mut registry = handlers.lock().expect("handler registry poisoned");
        // Reap the handlers whose connections have closed, so the
        // registry holds the open connections, not every one since
        // start.
        for finished in registry.extract_if(.., |handle| handle.is_finished()) {
            let _ = finished.join();
        }
        if let Ok(handle) = spawned {
            registry.push(handle);
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, conn: u64) -> io::Result<()> {
    // The read timeout is the drain poll interval: an idle connection
    // notices the stop flag within one period.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    // Each response is one flushed frame; send it without waiting for
    // the peer's ACK of the previous segment.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut req_seq = 0u64;
    // Resumable across timeout polls: the drain-poll timeout can fire
    // mid-frame on a slow writer, and the partially-read prefix/payload
    // must survive to the next iteration instead of desynchronizing the
    // stream.
    let mut frames = proto::FrameReader::new();
    loop {
        let payload = match frames.read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return Ok(()), // clean EOF
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                locert_trace::add("serve.rejected.frame-too-large", 1);
                proto::write_frame(
                    &mut writer,
                    &proto::encode_conn_error(ErrorCode::FrameTooLarge, &e.to_string()),
                )?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        match proto::decode(&payload) {
            Ok(Message::Requests(requests)) => {
                let responses = handle_batch(shared, conn, &mut req_seq, &requests);
                proto::write_frame(&mut writer, &proto::encode_responses(&responses))?;
            }
            Ok(Message::Shutdown) => {
                shared.begin_drain();
                proto::write_frame(&mut writer, &proto::encode_shutdown_ack())?;
                return Ok(());
            }
            Ok(_) => {
                // Response-plane opcodes from a client are nonsense.
                locert_trace::add("serve.rejected.malformed-frame", 1);
                proto::write_frame(
                    &mut writer,
                    &proto::encode_conn_error(
                        ErrorCode::MalformedFrame,
                        &format!("unexpected opcode {:#x}", payload[5]),
                    ),
                )?;
                return Ok(());
            }
            Err((code, message)) => {
                locert_trace::add(&format!("serve.rejected.{}", code.code()), 1);
                proto::write_frame(&mut writer, &proto::encode_conn_error(code, &message))?;
                return Ok(());
            }
        }
        writer.flush()?;
    }
}

/// Validated, admitted request ready to execute.
struct Admitted<'a> {
    request: &'a Request,
    /// The catalogue entry the request's scheme id resolved to.
    entry: &'static SchemeEntry,
    graph: Graph,
    /// Contiguous identifiers and the input word widened to `usize`,
    /// built on first use (see `with_instance`).
    instance: OnceCell<(IdAssignment, Option<Vec<usize>>)>,
    _permit: Permit,
}

fn reject(code: ErrorCode, message: String) -> Response {
    locert_trace::add(&format!("serve.rejected.{}", code.code()), 1);
    Response::Err { code, message }
}

/// Validates a request and takes its admission slot. All checks that
/// can fail without running a prover live here so the batch loop can
/// acquire every permit upfront, in request order.
fn admit<'a>(shared: &Shared, request: &'a Request) -> Result<Admitted<'a>, Response> {
    if shared.draining() {
        return Err(reject(
            ErrorCode::ShuttingDown,
            "daemon is draining".to_string(),
        ));
    }
    let Some(entry) = catalogue::by_id(&request.scheme) else {
        return Err(reject(
            ErrorCode::UnknownScheme,
            format!("no scheme {:?}", request.scheme),
        ));
    };
    let n = request.n as usize;
    if n > MAX_VERTICES || request.edges.len() > MAX_EDGES {
        return Err(reject(
            ErrorCode::GraphTooLarge,
            format!(
                "{n} vertices / {} edges exceed caps {MAX_VERTICES}/{MAX_EDGES}",
                request.edges.len()
            ),
        ));
    }
    let edges = request.edges.iter().map(|&(u, v)| (u as usize, v as usize));
    let graph = match Graph::from_edges(n, edges) {
        Ok(graph) => graph,
        Err(e) => return Err(reject(ErrorCode::BadGraph, e.to_string())),
    };
    if let Some(word) = &request.inputs {
        if word.len() != n {
            return Err(reject(
                ErrorCode::BadRequest,
                format!("{} inputs for {n} vertices", word.len()),
            ));
        }
    }
    match (&request.mode, &request.certs) {
        (Mode::Verify, None) => {
            return Err(reject(
                ErrorCode::BadRequest,
                "verify needs certificates".to_string(),
            ))
        }
        (Mode::Verify, Some(certs)) if certs.len() != n => {
            return Err(reject(
                ErrorCode::BadRequest,
                format!("{} certificates for {n} vertices", certs.len()),
            ))
        }
        _ => {}
    }
    let Some(permit) = shared.admission.try_acquire(entry.id) else {
        return Err(reject(
            ErrorCode::Overloaded,
            format!(
                "scheme {:?} at its in-flight limit {}",
                request.scheme,
                shared.admission.limit()
            ),
        ));
    };
    Ok(Admitted {
        request,
        entry,
        graph,
        instance: OnceCell::new(),
        _permit: permit,
    })
}

impl Admitted<'_> {
    /// Runs `f` on the request's instance under contiguous identifiers,
    /// the ids every certificate the daemon serves or checks is made for.
    /// Only a prover or a verifier reads identifiers or the widened input
    /// word, so a cache hit never builds them, and a roundtrip miss builds
    /// them once for both.
    fn with_instance<R>(&self, f: impl FnOnce(&Instance<'_>) -> R) -> R {
        let (ids, inputs) = self.instance.get_or_init(|| {
            let ids = IdAssignment::contiguous(self.graph.num_nodes());
            let inputs = self.request.inputs.as_ref();
            (
                ids,
                inputs.map(|word| word.iter().map(|&x| x as usize).collect()),
            )
        });
        let instance = match inputs {
            Some(word) => Instance::with_inputs(&self.graph, ids, word),
            None => Instance::new(&self.graph, ids),
        };
        f(&instance)
    }

    /// Runs the request's verifier on `certs`.
    fn verify(&self, certs: &[Certs]) -> VerificationOutcome {
        self.with_instance(|instance| {
            let scheme = (self.entry.build)(id_bits_for(instance), self.graph.num_nodes());
            run_verification(scheme.as_ref(), instance, &Assignment::new(certs))
        })
    }
}

/// Runs the prover, consulting the certificate cache first. Returns the
/// per-vertex certificates and the cache disposition.
fn prove_cached(
    shared: &Shared,
    admitted: &Admitted<'_>,
) -> Result<(Vec<Certs>, CacheDisposition), Response> {
    let key = CacheKey::of_wire(
        &admitted.graph,
        admitted.request.inputs.as_deref(),
        admitted.entry.id,
    );
    if let Some(certs) = shared.cache.lock().expect("cache lock poisoned").get(&key) {
        return Ok((certs, CacheDisposition::Hit));
    }
    let proved = admitted.with_instance(|instance| {
        let scheme = (admitted.entry.build)(id_bits_for(instance), admitted.graph.num_nodes());
        scheme.assign(instance)
    });
    let assignment = match proved {
        Ok(assignment) => assignment,
        Err(ProverError::NotAYesInstance) => {
            return Err(reject(
                ErrorCode::NotAYesInstance,
                "the graph does not satisfy the property".to_string(),
            ))
        }
        Err(ProverError::WitnessUnavailable(why)) => {
            return Err(reject(ErrorCode::WitnessUnavailable, why))
        }
    };
    let certs: Vec<_> = (0..assignment.len())
        .map(|v| assignment.cert(locert_graph::NodeId(v)).clone())
        .collect();
    shared
        .cache
        .lock()
        .expect("cache lock poisoned")
        .put(key, certs.clone());
    Ok((certs, CacheDisposition::Miss))
}

type Certs = locert_core::bits::Certificate;

/// Executes one admitted request.
fn execute(shared: &Shared, admitted: &Admitted<'_>) -> Response {
    locert_trace::add("serve.requests", 1);
    match admitted.request.mode {
        Mode::Prove => match prove_cached(shared, admitted) {
            Ok((certs, cache)) => Response::Ok {
                accepted: true,
                cache,
                rejecting: 0,
                certs: Some(certs),
            },
            Err(response) => response,
        },
        Mode::Verify => {
            let certs = admitted
                .request
                .certs
                .as_deref()
                .expect("validated at admission");
            let outcome = admitted.verify(certs);
            Response::Ok {
                accepted: outcome.accepted(),
                cache: CacheDisposition::Bypass,
                rejecting: outcome.rejecting().len() as u32,
                certs: None,
            }
        }
        Mode::Roundtrip => match prove_cached(shared, admitted) {
            Ok((certs, cache)) => {
                let outcome = admitted.verify(&certs);
                Response::Ok {
                    accepted: outcome.accepted(),
                    cache,
                    rejecting: outcome.rejecting().len() as u32,
                    certs: Some(certs),
                }
            }
            Err(response) => response,
        },
    }
}

fn journal_response(conn: u64, req: u64, request: &Request, response: &Response) {
    journal::record_with(|| {
        let (outcome, cache) = match response {
            Response::Ok {
                accepted, cache, ..
            } => (
                if *accepted { "accepted" } else { "rejected" }.to_string(),
                cache.code().to_string(),
            ),
            Response::Err { code, .. } => (code.code().to_string(), "bypass".to_string()),
        };
        Event::ServeRequest {
            conn,
            req,
            scheme: request.scheme.clone(),
            mode: request.mode.code().to_string(),
            vertices: u64::from(request.n),
            outcome,
            cache,
        }
    });
}

/// Serves one request batch: permits first (in order), then execution.
fn handle_batch(
    shared: &Shared,
    conn: u64,
    req_seq: &mut u64,
    requests: &[Request],
) -> Vec<Response> {
    let admissions: Vec<_> = requests.iter().map(|r| admit(shared, r)).collect();
    let mut responses = Vec::with_capacity(requests.len());
    for (request, admission) in requests.iter().zip(admissions) {
        let response = match admission {
            Ok(admitted) => {
                let t0 = std::time::Instant::now();
                let response = execute(shared, &admitted);
                locert_trace::record("serve.request.ns", t0.elapsed().as_nanos() as u64);
                response
            }
            Err(response) => response,
        };
        journal_response(conn, *req_seq, request, &response);
        *req_seq += 1;
        responses.push(response);
    }
    responses
}
