//! The serving front-end: IO worker threads over an epoll reactor, one
//! model thread owning the frozen snapshot, and the channels between
//! them.
//!
//! Tensors are single-threaded (`Rc` copy-on-write storage), so the
//! model, its frozen session, and its micro-batching queue all live on
//! exactly one thread; the builder closure runs there (a `!Send` model
//! can be built anywhere but moved nowhere). One thread is also all the
//! work calls for: ST-WA's sensor-correlation attention mixes every
//! sensor inside a window, so one frozen forward yields the whole
//! `[N, U, F]` forecast and each per-sensor answer is a slice of it.
//! Further model threads would only rerun that same forward; multi-core
//! speed comes from `stwa-pool` intra-op parallelism inside it. IO
//! workers own the sockets, parse HTTP, and serve cache hits inline;
//! misses, observations, and swaps reach the model thread over one
//! `mpsc` channel.
//!
//! Correctness invariants:
//! - **In-order responses per connection.** HTTP/1.1 pipelining means
//!   responses must leave in request order even when a cache hit (an
//!   inline reply) overtakes a model-thread round trip. Every parsed
//!   request takes a per-connection sequence number and completed
//!   responses wait in a `BTreeMap` until their turn.
//! - **Read-your-writes per connection.** A forecast pipelined behind
//!   an observation on the same connection skips the cache and lands
//!   on the model channel *behind* that observe (one mpsc producer per
//!   worker ⇒ FIFO), so it is evaluated against the new window.
//! - **Version stamps are registry versions.** Responses name the
//!   registry version they were computed under (0 = the builder's
//!   weights, which can never be swapped), so a (version, window_fp)
//!   stamp is bitwise-verifiable against direct eval.
//! - **Zero-drop swaps.** A swap flips between settled bursts (queue
//!   empty by construction): the model thread freezes the new version,
//!   publishes it, and purges the old version's cache entries before it
//!   answers anything else. Shutdown stops accepting, drains every
//!   in-flight job, flushes every write buffer, and only then lets
//!   threads exit.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stwa_core::StwaModel;
use stwa_infer::{FrozenStwa, InferQueue, InferSession, QueueConfig};
use stwa_observe::Json;
use stwa_tensor::quant::Precision;
use stwa_tensor::Tensor;

use crate::cache::{fingerprint_f32, CacheKey, ForecastCache};
use crate::http::{self, Parse, Request};
use crate::proto;
use crate::reactor::{Epoll, Event, WakeReader, Waker, EPOLLIN, EPOLLOUT};

/// Everything tunable about a server.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// IO worker threads (the model always gets its own thread).
    pub io_threads: usize,
    /// Micro-batching knobs forwarded to [`InferQueue`].
    pub max_batch: usize,
    pub max_wait: Duration,
    /// Forecast cache TTL — tie this to the forecast step length so an
    /// entry never outlives the step it predicts.
    pub ttl: Duration,
    pub cache_shards: usize,
    /// How often the model thread checks the registry for a newer
    /// published version (hot swap). Ignored without a registry.
    pub registry_poll: Duration,
    /// How often IO worker 0 sweeps expired cache entries. Expiry is
    /// checked on every read; the sweep only reclaims memory.
    pub sweep_interval: Duration,
    /// Panel precision for the frozen serving snapshot.
    pub precision: Precision,
    /// Registry root + model name. With a registry the server freezes
    /// from the latest published version and hot-swaps when a newer
    /// one appears; without one it serves the builder's weights as-is.
    pub registry: Option<(PathBuf, String)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            io_threads: stwa_pool::configured_threads().max(1),
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            ttl: Duration::from_secs(300),
            cache_shards: 16,
            registry_poll: Duration::from_millis(200),
            sweep_interval: Duration::from_secs(5),
            precision: Precision::F32,
            registry: None,
        }
    }
}

/// Recent full forwards the model thread memoizes, keyed by window
/// fingerprint (small: each entry is one `[N, U, F]` output).
const MEMO_CAP: usize = 8;

/// Model dimensions published once by the model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dims {
    pub sensors: usize,
    pub history: usize,
    pub horizon: usize,
    pub features: usize,
}

/// Counters and snapshot state shared by every thread.
struct Shared {
    shutdown: AtomicBool,
    /// Registry version of the published snapshot (0 = builder
    /// weights; cache key part).
    version: AtomicU64,
    /// Fingerprint of the current input window (cache key part).
    window_fp: AtomicU64,
    cache: ForecastCache,
    requests: AtomicU64,
    responses: AtomicU64,
    inline_hits: AtomicU64,
    model_jobs: AtomicU64,
    swaps: AtomicU64,
    swap_errors: AtomicU64,
    client_aborts: AtomicU64,
    conns: AtomicU64,
    /// Duration of the last swap's publish plus purge.
    swap_us: AtomicU64,
    /// Jobs sent to the model thread and not yet processed.
    depth: AtomicUsize,
    /// Full window evaluations on the model thread.
    evals: AtomicU64,
}

enum JobKind {
    Forecast { sensor: u32, horizon: u32 },
    Observe { frame: Vec<f32> },
    /// Admin-forced registry poll.
    Swap,
}

/// Where a reply must go.
#[derive(Clone, Copy)]
struct Route {
    worker: usize,
    conn: u64,
    seq: u64,
    keep_alive: bool,
}

struct Job {
    route: Route,
    kind: JobKind,
}

struct Reply {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    close_after: bool,
    /// Reply to an observe — pairs the worker's `inflight_observes`
    /// decrement exactly.
    observe: bool,
}

/// A running server. Dropping without [`Server::shutdown`] leaks the
/// threads; call shutdown for a clean drain.
pub struct Server {
    addr: std::net::SocketAddr,
    dims: Dims,
    shared: Arc<Shared>,
    wakers: Vec<Waker>,
    workers: Vec<std::thread::JoinHandle<()>>,
    model: std::thread::JoinHandle<()>,
}

impl Server {
    /// Bind, spawn the model thread (it runs `build` and freezes the
    /// serving snapshot on-thread, because tensors are not `Send`),
    /// wait until it is ready, then spawn the IO workers.
    pub fn start<F>(config: ServeConfig, build: F) -> std::io::Result<Server>
    where
        F: FnOnce() -> stwa_tensor::Result<StwaModel> + Send + 'static,
    {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            version: AtomicU64::new(0),
            window_fp: AtomicU64::new(0),
            cache: ForecastCache::new(config.cache_shards, config.ttl),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            inline_hits: AtomicU64::new(0),
            model_jobs: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            swap_errors: AtomicU64::new(0),
            client_aborts: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            swap_us: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            evals: AtomicU64::new(0),
        });

        let io_threads = config.io_threads.max(1);
        let mut reply_txs = Vec::with_capacity(io_threads);
        let mut worker_parts = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel::<Reply>();
            let (waker, wake_reader) = Waker::pair()?;
            reply_txs.push((reply_tx, waker.clone()));
            worker_parts.push((reply_rx, wake_reader, waker));
        }

        // Model thread first: workers must not accept until dims and
        // the initial version are published. It exits once every
        // worker has dropped its job sender.
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<Result<Dims, String>>();
        let sweep_interval = config.sweep_interval;
        let model = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stwa-serve-model".to_string())
                .spawn(move || model_main(config, build, shared, job_rx, reply_txs, ready_tx))?
        };
        let ready = ready_rx
            .recv()
            .unwrap_or_else(|_| Err("died before ready".to_string()));
        let dims = match ready {
            Ok(dims) => dims,
            Err(e) => {
                let _ = model.join();
                return Err(std::io::Error::other(format!("model thread failed: {e}")));
            }
        };

        let mut wakers = Vec::with_capacity(io_threads);
        let mut workers = Vec::with_capacity(io_threads);
        for (idx, (reply_rx, wake_reader, waker)) in worker_parts.into_iter().enumerate() {
            wakers.push(waker);
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let job_tx = job_tx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("stwa-serve-io{idx}"))
                    .spawn(move || {
                        worker_main(
                            idx,
                            listener,
                            shared,
                            dims,
                            job_tx,
                            reply_rx,
                            wake_reader,
                            sweep_interval,
                        )
                    })?,
            );
        }
        drop(job_tx); // the model thread exits once every worker is gone

        Ok(Server {
            addr,
            dims,
            shared,
            wakers,
            workers,
            model,
        })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Published snapshot version: the registry version the model
    /// thread currently serves (0 = builder weights, never swapped).
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::Acquire)
    }

    /// Completed hot swaps so far.
    pub fn swaps(&self) -> u64 {
        self.shared.swaps.load(Ordering::Relaxed)
    }

    /// (requests parsed, responses sent) so far.
    pub fn traffic(&self) -> (u64, u64) {
        (
            self.shared.requests.load(Ordering::Relaxed),
            self.shared.responses.load(Ordering::Relaxed),
        )
    }

    /// Graceful drain: stop accepting, serve everything in flight,
    /// flush every socket, join every thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        let _ = self.model.join();
    }
}

// ---------------------------------------------------------------------------
// Model dispatch
// ---------------------------------------------------------------------------

/// Hand a job to the model thread. Returns false when the model thread
/// is gone (shutdown).
fn dispatch(job_tx: &Sender<Job>, shared: &Shared, route: Route, kind: JobKind) -> bool {
    shared.depth.fetch_add(1, Ordering::Relaxed);
    if job_tx.send(Job { route, kind }).is_ok() {
        true
    } else {
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        false
    }
}

// ---------------------------------------------------------------------------
// IO worker
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_CONN0: u64 = 2;

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number whose response may be written.
    next_flush: u64,
    /// Completed responses waiting for their turn.
    done: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests handed to the model thread, not yet replied.
    inflight: usize,
    /// Observations handed to the model thread, not yet replied —
    /// while nonzero, forecasts on this connection bypass the cache so
    /// the model thread orders them after the observe.
    inflight_observes: usize,
    /// Stop reading (a `Connection: close` request or a fatal parse
    /// error); the connection dies once fully flushed.
    closing: bool,
    /// Registered epoll interest, to skip redundant `EPOLL_CTL_MOD`s.
    interest: u32,
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    worker_idx: usize,
    listener: TcpListener,
    shared: Arc<Shared>,
    dims: Dims,
    job_tx: Sender<Job>,
    reply_rx: Receiver<Reply>,
    wake_reader: WakeReader,
    sweep_interval: Duration,
) {
    let mut epoll = match Epoll::new() {
        Ok(e) => e,
        Err(_) => return,
    };
    use std::os::unix::io::AsRawFd;
    if epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_err() {
        return;
    }
    let _ = epoll.add(wake_reader.fd(), TOKEN_WAKER, EPOLLIN);

    // Per-worker accept counter; the leak is one short name per worker
    // thread for the process lifetime.
    let conns_counter =
        stwa_observe::counter(Box::leak(format!("serve.io{worker_idx}.conns").into_boxed_str()));

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_CONN0;
    let mut events: Vec<Event> = Vec::new();
    let mut accepting = true;
    let mut last_sweep = Instant::now();

    loop {
        let shutting_down = shared.shutdown.load(Ordering::SeqCst);
        if shutting_down {
            if accepting {
                // Drain the accept backlog once: connections whose
                // handshake finished before the shutdown signal get
                // served, not reset when the listener closes.
                accept_all(&listener, &epoll, &shared, conns_counter, &mut conns, &mut next_token);
                let _ = epoll.delete(listener.as_raw_fd());
                accepting = false;
            }
            // Final read pass before judging idleness: requests that
            // reached the kernel buffer before the shutdown signal are
            // parsed and served, not reset.
            let tokens: Vec<u64> = conns.keys().copied().collect();
            for token in tokens {
                let conn = conns.get_mut(&token).unwrap();
                if !conn.closing
                    && read_and_dispatch(worker_idx, token, conn, &shared, &dims, &job_tx)
                {
                    let _ = epoll.delete(conn.stream.as_raw_fd());
                    conns.remove(&token);
                }
            }
            // Close connections with nothing left to serve; exit once
            // none remain. Busy connections finish their responses.
            conns.retain(|_, c| {
                !(c.inflight == 0 && c.done.is_empty() && c.wbuf.is_empty())
            });
            if conns.is_empty() {
                return;
            }
        }

        // TTL reclamation off the request path: expiry is enforced on
        // every read, the sweep only frees memory, so one worker doing
        // it at a coarse interval is plenty.
        if worker_idx == 0 && !shutting_down && last_sweep.elapsed() >= sweep_interval {
            last_sweep = Instant::now();
            let removed = shared.cache.sweep();
            if removed > 0 {
                stwa_observe::counter!("serve.cache_swept").add(removed as u64);
            }
        }

        let timeout = Some(if shutting_down {
            Duration::from_millis(10)
        } else {
            Duration::from_millis(500).min(sweep_interval)
        });
        if epoll.wait(&mut events, timeout).is_err() {
            return;
        }

        let fired = std::mem::take(&mut events);
        for ev in &fired {
            match ev.token {
                TOKEN_LISTENER => {
                    if !accepting || shutting_down {
                        continue;
                    }
                    // Level-triggered and shared across workers: accept
                    // until WouldBlock, whoever wakes first wins.
                    accept_all(&listener, &epoll, &shared, conns_counter, &mut conns, &mut next_token);
                }
                TOKEN_WAKER => wake_reader.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut dead = false;
                    if ev.readable && !conn.closing {
                        dead = read_and_dispatch(
                            worker_idx, token, conn, &shared, &dims, &job_tx,
                        );
                    }
                    if ev.writable && !dead {
                        dead = flush_wbuf(conn);
                    }
                    if ev.closed && conn.inflight == 0 && conn.wbuf.is_empty() {
                        dead = true;
                    }
                    if dead {
                        if conn.inflight > 0 {
                            // Peer vanished with requests in flight;
                            // their replies will be discarded.
                            shared
                                .client_aborts
                                .fetch_add(conn.inflight as u64, Ordering::Relaxed);
                            stwa_observe::counter!("serve.client_aborts")
                                .add(conn.inflight as u64);
                        }
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                        conns.remove(&token);
                    } else {
                        update_interest(&epoll, token, conns.get_mut(&token).unwrap());
                    }
                }
            }
        }

        // Model-thread replies (the waker fired, or we woke anyway).
        while let Ok(reply) = reply_rx.try_recv() {
            let Some(conn) = conns.get_mut(&reply.conn) else {
                // Client hung up before its answer came back; the abort
                // was counted when the connection died.
                continue;
            };
            conn.inflight -= 1;
            if reply.observe {
                // Exact pairing: the reply says whether it answers
                // an observe.
                conn.inflight_observes = conn.inflight_observes.saturating_sub(1);
            }
            complete(conn, reply.seq, reply.bytes, reply.close_after);
            shared.responses.fetch_add(1, Ordering::Relaxed);
            let dead = flush_wbuf(conn);
            let done = conn.closing
                && conn.inflight == 0
                && conn.done.is_empty()
                && conn.wbuf.is_empty();
            if dead || done {
                let _ = epoll.delete(conn.stream.as_raw_fd());
                conns.remove(&reply.conn);
            } else {
                let token = reply.conn;
                update_interest(&epoll, token, conns.get_mut(&token).unwrap());
            }
        }
        events = fired;
    }
}

/// Accept every queued connection and register it for reads.
fn accept_all(
    listener: &TcpListener,
    epoll: &Epoll,
    shared: &Shared,
    conns_counter: &'static stwa_observe::Counter,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    use std::os::unix::io::AsRawFd;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if epoll.add(stream.as_raw_fd(), token, EPOLLIN).is_ok() {
                    shared.conns.fetch_add(1, Ordering::Relaxed);
                    stwa_observe::counter!("serve.conns").incr();
                    conns_counter.incr();
                    conns.insert(
                        token,
                        Conn {
                            stream,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            next_seq: 0,
                            next_flush: 0,
                            done: BTreeMap::new(),
                            inflight: 0,
                            inflight_observes: 0,
                            closing: false,
                            interest: EPOLLIN,
                        },
                    );
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Read everything available, parse pipelined requests, answer inline
/// or dispatch to the model thread. Returns true when the connection
/// is dead.
fn read_and_dispatch(
    worker_idx: usize,
    token: u64,
    conn: &mut Conn,
    shared: &Shared,
    dims: &Dims,
    job_tx: &Sender<Job>,
) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Orderly close; serve what was already parsed.
                conn.closing = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }

    let mut consumed = 0;
    while !conn.closing {
        match http::parse_request(&conn.rbuf[consumed..]) {
            Parse::Partial => break,
            Parse::Bad(status, reason) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let mut out = Vec::new();
                http::write_response(
                    &mut out,
                    status,
                    reason,
                    "application/json",
                    &proto::error_body(reason),
                    false,
                );
                complete(conn, seq, out, true);
                shared.responses.fetch_add(1, Ordering::Relaxed);
                conn.closing = true;
            }
            Parse::Complete(req, n) => {
                consumed += n;
                shared.requests.fetch_add(1, Ordering::Relaxed);
                stwa_observe::counter!("serve.requests").incr();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                if !req.keep_alive {
                    conn.closing = true;
                }
                match route(worker_idx, token, seq, &req, conn, shared, dims, job_tx) {
                    Routed::Inline(bytes) => {
                        complete(conn, seq, bytes, !req.keep_alive);
                        shared.responses.fetch_add(1, Ordering::Relaxed);
                    }
                    Routed::Dispatched => {
                        conn.inflight += 1;
                        shared.model_jobs.fetch_add(1, Ordering::Relaxed);
                        stwa_observe::counter!("serve.model_jobs").incr();
                    }
                }
            }
        }
    }
    conn.rbuf.drain(..consumed);
    flush_wbuf(conn)
        || (conn.closing && conn.inflight == 0 && conn.done.is_empty() && conn.wbuf.is_empty())
}

enum Routed {
    Inline(Vec<u8>),
    Dispatched,
}

#[allow(clippy::too_many_arguments)]
fn route(
    worker_idx: usize,
    token: u64,
    seq: u64,
    req: &Request,
    conn: &mut Conn,
    shared: &Shared,
    dims: &Dims,
    job_tx: &Sender<Job>,
) -> Routed {
    let inline = |status: u16, reason: &str, body: Vec<u8>| {
        let mut out = Vec::new();
        http::write_response(&mut out, status, reason, "application/json", &body, req.keep_alive);
        Routed::Inline(out)
    };
    let route = Route {
        worker: worker_idx,
        conn: token,
        seq,
        keep_alive: req.keep_alive,
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => inline(200, "OK", b"{\"ok\": true}".to_vec()),
        ("GET", "/stats") => {
            let (hits, misses) = shared.cache.stats();
            // One model thread; `replica_*` keep their one-element
            // array shape so existing clients parse them unchanged.
            let evals = vec![Json::Num(shared.evals.load(Ordering::Relaxed) as f64)];
            let depths = vec![Json::Num(shared.depth.load(Ordering::Relaxed) as f64)];
            let doc = Json::Obj(vec![
                ("version".into(), Json::Num(shared.version.load(Ordering::Acquire) as f64)),
                ("requests".into(), Json::Num(shared.requests.load(Ordering::Relaxed) as f64)),
                ("responses".into(), Json::Num(shared.responses.load(Ordering::Relaxed) as f64)),
                ("conns".into(), Json::Num(shared.conns.load(Ordering::Relaxed) as f64)),
                ("inline_hits".into(), Json::Num(shared.inline_hits.load(Ordering::Relaxed) as f64)),
                ("model_jobs".into(), Json::Num(shared.model_jobs.load(Ordering::Relaxed) as f64)),
                ("cache_hits".into(), Json::Num(hits as f64)),
                ("cache_misses".into(), Json::Num(misses as f64)),
                ("cache_entries".into(), Json::Num(shared.cache.len() as f64)),
                ("replicas".into(), Json::Num(1.0)),
                ("replica_evals".into(), Json::Arr(evals)),
                ("replica_depth".into(), Json::Arr(depths)),
                ("swaps".into(), Json::Num(shared.swaps.load(Ordering::Relaxed) as f64)),
                ("swap_errors".into(), Json::Num(shared.swap_errors.load(Ordering::Relaxed) as f64)),
                ("swap_ms".into(), Json::Num(shared.swap_us.load(Ordering::Relaxed) as f64 / 1000.0)),
                ("client_aborts".into(), Json::Num(shared.client_aborts.load(Ordering::Relaxed) as f64)),
            ]);
            inline(200, "OK", doc.to_string().into_bytes())
        }
        ("GET", "/forecast") => {
            let sensor = req.query("sensor").and_then(|v| v.parse::<u32>().ok());
            let horizon = req
                .query("horizon")
                .map_or(Some(dims.horizon as u32), |v| v.parse::<u32>().ok());
            let (Some(sensor), Some(horizon)) = (sensor, horizon) else {
                return inline(400, "Bad Request", proto::error_body("sensor/horizon must be integers"));
            };
            if sensor as usize >= dims.sensors {
                return inline(
                    400,
                    "Bad Request",
                    proto::error_body(&format!("sensor {sensor} out of range (N={})", dims.sensors)),
                );
            }
            if horizon == 0 || horizon as usize > dims.horizon {
                return inline(
                    400,
                    "Bad Request",
                    proto::error_body(&format!("horizon {horizon} out of range (U={})", dims.horizon)),
                );
            }
            // Cache lookup under a snapshot of (version, window). Both
            // can move before the model thread would evaluate, which is
            // exactly why misses carry the authoritative values back.
            // Skip the cache while an observe from this connection is
            // in flight so the model thread orders forecast-after-observe
            // (read-your-writes per connection).
            if conn.inflight_observes == 0 {
                let key = CacheKey {
                    version: shared.version.load(Ordering::Acquire),
                    sensor,
                    horizon,
                    window_fp: shared.window_fp.load(Ordering::Acquire),
                };
                if let Some(values) = shared.cache.get(&key) {
                    shared.inline_hits.fetch_add(1, Ordering::Relaxed);
                    stwa_observe::counter!("serve.cache_hits").incr();
                    return inline(
                        200,
                        "OK",
                        proto::forecast_body(
                            sensor,
                            horizon,
                            key.version,
                            key.window_fp,
                            "hit",
                            &values,
                        ),
                    );
                }
            }
            if dispatch(job_tx, shared, route, JobKind::Forecast { sensor, horizon }) {
                Routed::Dispatched
            } else {
                inline(503, "Service Unavailable", proto::error_body("model thread is gone"))
            }
        }
        ("POST", "/observe") => {
            match proto::parse_observe(&req.body, dims.sensors * dims.features) {
                Err(e) => inline(400, "Bad Request", proto::error_body(&e)),
                Ok(frame) => {
                    if dispatch(job_tx, shared, route, JobKind::Observe { frame }) {
                        conn.inflight_observes += 1;
                        Routed::Dispatched
                    } else {
                        inline(503, "Service Unavailable", proto::error_body("model thread is gone"))
                    }
                }
            }
        }
        ("POST", "/admin/swap") => {
            if dispatch(job_tx, shared, route, JobKind::Swap) {
                Routed::Dispatched
            } else {
                inline(503, "Service Unavailable", proto::error_body("model thread is gone"))
            }
        }
        _ => inline(404, "Not Found", proto::error_body("unknown endpoint")),
    }
}

/// File a finished response under its sequence number and move every
/// now-unblocked response into the write buffer.
fn complete(conn: &mut Conn, seq: u64, bytes: Vec<u8>, close_after: bool) {
    conn.done.insert(seq, (bytes, close_after));
    while let Some((bytes, close)) = conn.done.remove(&conn.next_flush) {
        conn.wbuf.extend_from_slice(&bytes);
        conn.next_flush += 1;
        if close {
            conn.closing = true;
        }
    }
}

/// Push the write buffer to the socket. Returns true when the
/// connection is dead (write error).
fn flush_wbuf(conn: &mut Conn) -> bool {
    while !conn.wbuf.is_empty() {
        match conn.stream.write(&conn.wbuf) {
            Ok(0) => return true,
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

fn update_interest(epoll: &Epoll, token: u64, conn: &mut Conn) {
    let want = if conn.wbuf.is_empty() {
        EPOLLIN
    } else {
        EPOLLIN | EPOLLOUT
    };
    if want != conn.interest {
        use std::os::unix::io::AsRawFd;
        if epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok() {
            conn.interest = want;
        }
    }
}

// ---------------------------------------------------------------------------
// Model thread
// ---------------------------------------------------------------------------

struct ModelState {
    model: StwaModel,
    queue: InferQueue,
    registry: Option<(stwa_ckpt::Registry, String)>,
    /// Registry version currently loaded (0 = builder weights). This
    /// *is* the public version stamp.
    registry_version: u32,
    precision: Precision,
    queue_cfg: QueueConfig,
    dims: Dims,
    /// Rolling input window `[N, H, F]` shared by every sensor query.
    window: Vec<f32>,
    window_fp: u64,
    /// Recent full forwards keyed by window fingerprint (version is
    /// implicit: the memo is cleared on swap). Front = most recent.
    memo: Vec<(u64, Arc<Vec<f32>>)>,
}

fn public_version(state: &ModelState) -> u64 {
    state.registry_version as u64
}

fn model_main<F>(
    config: ServeConfig,
    build: F,
    shared: Arc<Shared>,
    job_rx: Receiver<Job>,
    reply_txs: Vec<(Sender<Reply>, Waker)>,
    ready_tx: Sender<Result<Dims, String>>,
) where
    F: FnOnce() -> stwa_tensor::Result<StwaModel>,
{
    let mut state = match init_model(&config, build) {
        Ok(s) => s,
        Err(e) => {
            let _ = ready_tx.send(Err(e));
            return;
        }
    };
    shared.version.store(public_version(&state), Ordering::Release);
    shared.window_fp.store(state.window_fp, Ordering::Release);
    let _ = ready_tx.send(Ok(state.dims));
    drop(ready_tx);

    let depth_gauge = stwa_observe::gauge!("serve.queue_depth");
    let mut last_poll = Instant::now();
    let mut burst: Vec<Job> = Vec::new();
    loop {
        burst.clear();
        match job_rx.recv_timeout(config.registry_poll) {
            Ok(job) => {
                burst.push(job);
                // Drain whatever queued behind it — one settle per
                // burst amortizes flushes across pipelined traffic.
                while burst.len() < 256 {
                    match job_rx.try_recv() {
                        Ok(job) => burst.push(job),
                        Err(_) => break,
                    }
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // Every worker is gone (drained at shutdown); nothing
                // can be in flight anymore.
                let _ = state.queue.close();
                return;
            }
        }

        if !burst.is_empty() {
            process_burst(&mut state, &burst, &shared, &reply_txs);
            let was = shared.depth.fetch_sub(burst.len(), Ordering::Relaxed);
            depth_gauge.set((was - burst.len()) as f64);
        }

        if state.registry.is_some() && last_poll.elapsed() >= config.registry_poll {
            last_poll = Instant::now();
            try_swap(&mut state, &shared);
        }
    }
}

fn init_model<F>(config: &ServeConfig, build: F) -> Result<ModelState, String>
where
    F: FnOnce() -> stwa_tensor::Result<StwaModel>,
{
    let model = build().map_err(|e| format!("build model: {e}"))?;
    let registry = match &config.registry {
        None => None,
        Some((root, name)) => {
            let reg = stwa_ckpt::Registry::open(root).map_err(|e| format!("open registry: {e}"))?;
            Some((reg, name.clone()))
        }
    };
    // Serve the latest published version, or the builder's weights as
    // version 0 while nothing is published.
    let version = match &registry {
        None => 0,
        Some((reg, name)) => {
            let versions = reg
                .versions(name)
                .map_err(|e| format!("registry versions: {e}"))?;
            if versions.is_empty() {
                0
            } else {
                reg.latest(name).map_err(|e| format!("registry latest: {e}"))?
            }
        }
    };
    let frozen = match &registry {
        Some((reg, name)) if version > 0 => FrozenStwa::freeze_from_registry_at(
            &model,
            reg,
            name,
            Some(version),
            config.precision,
        )
        .map_err(|e| format!("freeze from registry: {e}"))?,
        _ => FrozenStwa::freeze_at(&model, config.precision).map_err(|e| format!("freeze: {e}"))?,
    };
    let dims = Dims {
        sensors: frozen.num_sensors(),
        history: frozen.input_len(),
        horizon: frozen.horizon(),
        features: frozen.features(),
    };
    let queue_cfg = QueueConfig {
        max_batch: config.max_batch,
        max_wait: config.max_wait,
    };
    let queue = InferQueue::new(InferSession::from_frozen(frozen), queue_cfg)
        .map_err(|e| format!("queue: {e}"))?;
    let window = vec![0.0f32; dims.sensors * dims.history * dims.features];
    let window_fp = fingerprint_f32(&window);
    Ok(ModelState {
        model,
        queue,
        registry,
        registry_version: version,
        precision: config.precision,
        queue_cfg,
        dims,
        window,
        window_fp,
        memo: Vec::new(),
    })
}

/// Forecast jobs waiting on one submitted window evaluation.
struct PendingEval {
    fp: u64,
    ticket: stwa_infer::RequestId,
    jobs: Vec<(Route, u32, u32)>, // route, sensor, horizon
}

fn process_burst(
    state: &mut ModelState,
    burst: &[Job],
    shared: &Shared,
    reply_txs: &[(Sender<Reply>, Waker)],
) {
    let mut pending: Vec<PendingEval> = Vec::new();
    for job in burst {
        let route = job.route;
        match &job.kind {
            JobKind::Forecast { sensor, horizon } => {
                let fp = state.window_fp;
                if let Some(values) = memo_get(state, fp) {
                    answer_forecast(
                        state, shared, reply_txs, route, *sensor, *horizon, fp, "memo", &values,
                    );
                    continue;
                }
                if let Some(p) = pending.iter_mut().find(|p| p.fp == fp) {
                    p.jobs.push((route, *sensor, *horizon));
                    continue;
                }
                let x = Tensor::from_vec(
                    state.window.clone(),
                    &[state.dims.sensors, state.dims.history, state.dims.features],
                );
                match x.and_then(|x| state.queue.submit(x)) {
                    Ok(ticket) => pending.push(PendingEval {
                        fp,
                        ticket,
                        jobs: vec![(route, *sensor, *horizon)],
                    }),
                    Err(e) => send_reply(
                        reply_txs,
                        route,
                        error_response(500, &format!("submit: {e}"), route.keep_alive),
                        false,
                    ),
                }
            }
            JobKind::Observe { frame } => {
                // Settle first: submitted forecasts answer for the
                // window they saw, never a newer one.
                settle(state, shared, reply_txs, &mut pending);
                apply_observe(state, frame);
                shared.window_fp.store(state.window_fp, Ordering::Release);
                let body = proto::observe_ack(public_version(state), state.window_fp);
                send_reply(reply_txs, route, ok_response(body, route.keep_alive), true);
            }
            JobKind::Swap => {
                settle(state, shared, reply_txs, &mut pending);
                let before = state.registry_version;
                try_swap(state, shared);
                let swapped = state.registry_version != before;
                let doc = Json::Obj(vec![
                    ("swapped".into(), Json::Bool(swapped)),
                    ("version".into(), Json::Num(public_version(state) as f64)),
                    (
                        "registry_version".into(),
                        Json::Num(state.registry_version as f64),
                    ),
                ]);
                send_reply(
                    reply_txs,
                    route,
                    ok_response(doc.to_string().into_bytes(), route.keep_alive),
                    false,
                );
            }
        }
    }
    settle(state, shared, reply_txs, &mut pending);
}

/// Flush the queue and answer every job waiting on an evaluation.
fn settle(
    state: &mut ModelState,
    shared: &Shared,
    reply_txs: &[(Sender<Reply>, Waker)],
    pending: &mut Vec<PendingEval>,
) {
    if pending.is_empty() {
        return;
    }
    if let Err(e) = state.queue.flush() {
        // A failed flush re-queued the batch inside the queue; answer
        // the jobs with an error rather than stranding the clients.
        // (Unreachable in normal operation: swaps rebuild the queue on
        // this same thread, so the session can't go stale mid-burst.)
        let msg = format!("flush: {e}");
        for p in pending.drain(..) {
            for (route, _, _) in p.jobs {
                send_reply(reply_txs, route, error_response(500, &msg, route.keep_alive), false);
            }
        }
        return;
    }
    let version = public_version(state);
    for p in pending.drain(..) {
        match state.queue.take(p.ticket) {
            Some(out) => {
                stwa_observe::counter!("serve.evals").incr();
                shared.evals.fetch_add(1, Ordering::Relaxed);
                // `[1, N, U, F]` → owned row-major values.
                let values = Arc::new(out.data().to_vec());
                memo_put(state, p.fp, Arc::clone(&values));
                for (route, sensor, horizon) in p.jobs {
                    let sliced = slice_forecast(state, &values, sensor, horizon);
                    // Prime the shared cache so repeats hit inline at
                    // the workers.
                    shared.cache.put(
                        CacheKey {
                            version,
                            sensor,
                            horizon,
                            window_fp: p.fp,
                        },
                        Arc::new(sliced.clone()),
                    );
                    let body =
                        proto::forecast_body(sensor, horizon, version, p.fp, "miss", &sliced);
                    send_reply(reply_txs, route, ok_response(body, route.keep_alive), false);
                }
            }
            None => {
                for (route, _, _) in p.jobs {
                    send_reply(
                        reply_txs,
                        route,
                        error_response(500, "evaluation lost its result", route.keep_alive),
                        false,
                    );
                }
            }
        }
    }
}

fn memo_get(state: &ModelState, fp: u64) -> Option<Arc<Vec<f32>>> {
    state
        .memo
        .iter()
        .find(|(k, _)| *k == fp)
        .map(|(_, v)| Arc::clone(v))
}

fn memo_put(state: &mut ModelState, fp: u64, values: Arc<Vec<f32>>) {
    state.memo.retain(|(k, _)| *k != fp);
    state.memo.insert(0, (fp, values));
    state.memo.truncate(MEMO_CAP);
}

/// Extract sensor `s`, steps `0..horizon` from a full `[N, U, F]`
/// output (contiguous: the row-major slice `[s*U*F, s*U*F + h*F)`).
fn slice_forecast(state: &ModelState, full: &[f32], sensor: u32, horizon: u32) -> Vec<f32> {
    let (u, f) = (state.dims.horizon, state.dims.features);
    let start = sensor as usize * u * f;
    full[start..start + horizon as usize * f].to_vec()
}

/// Shift the rolling window one step left and append the new frame at
/// `t = H-1` for every sensor.
fn apply_observe(state: &mut ModelState, frame: &[f32]) {
    let (n, h, f) = (state.dims.sensors, state.dims.history, state.dims.features);
    for s in 0..n {
        let row = &mut state.window[s * h * f..(s + 1) * h * f];
        row.copy_within(f.., 0);
        row[(h - 1) * f..].copy_from_slice(&frame[s * f..(s + 1) * f]);
    }
    state.window_fp = fingerprint_f32(&state.window);
}

#[allow(clippy::too_many_arguments)]
fn answer_forecast(
    state: &ModelState,
    shared: &Shared,
    reply_txs: &[(Sender<Reply>, Waker)],
    route: Route,
    sensor: u32,
    horizon: u32,
    fp: u64,
    source: &str,
    full: &Arc<Vec<f32>>,
) {
    let version = public_version(state);
    let sliced = slice_forecast(state, full, sensor, horizon);
    shared.cache.put(
        CacheKey {
            version,
            sensor,
            horizon,
            window_fp: fp,
        },
        Arc::new(sliced.clone()),
    );
    let body = proto::forecast_body(sensor, horizon, version, fp, source, &sliced);
    send_reply(reply_txs, route, ok_response(body, route.keep_alive), false);
}

/// Swap the serving snapshot to the latest registry version when it
/// is newer than the one loaded. The flip happens between settled
/// bursts — the queue is empty by construction — and publishes the new
/// version and purges the old one's cache entries before the model
/// thread answers anything else.
fn try_swap(state: &mut ModelState, shared: &Shared) {
    let Some((registry, name)) = &state.registry else {
        return;
    };
    let latest = match registry.latest(name) {
        Ok(v) => v,
        Err(_) => return, // nothing published yet
    };
    if latest <= state.registry_version {
        return;
    }
    let old_version = public_version(state);
    // Drain the (empty) queue and reject any stray submit from here on.
    let _ = state.queue.close();
    let rebuilt = FrozenStwa::freeze_from_registry_at(
        &state.model,
        registry,
        name,
        Some(latest),
        state.precision,
    )
    .and_then(|frozen| InferQueue::new(InferSession::from_frozen(frozen), state.queue_cfg));
    match rebuilt {
        Ok(queue) => {
            state.queue = queue;
            state.registry_version = latest;
            state.memo.clear();
            // `swap_ms` times the publish plus the purge.
            let started = Instant::now();
            shared.version.store(public_version(state), Ordering::Release);
            shared.cache.purge_version(old_version);
            shared.swaps.fetch_add(1, Ordering::Relaxed);
            stwa_observe::counter!("serve.swaps").incr();
            let us = started.elapsed().as_micros() as u64;
            shared.swap_us.store(us, Ordering::Relaxed);
            stwa_observe::gauge!("serve.swap_ms").set(us as f64 / 1000.0);
        }
        Err(_) => {
            // Registry load failed (partial publish, IO error): keep
            // serving the old version. Restore its exact weights by
            // re-loading it from the registry (the failed load may have
            // touched the store); builder weights (version 0) were
            // never overwritten by a *fully validated* load, so a plain
            // re-freeze suffices.
            shared.swap_errors.fetch_add(1, Ordering::Relaxed);
            stwa_observe::counter!("serve.swap_errors").incr();
            let restored = if state.registry_version > 0 {
                FrozenStwa::freeze_from_registry_at(
                    &state.model,
                    registry,
                    name,
                    Some(state.registry_version),
                    state.precision,
                )
            } else {
                FrozenStwa::freeze_at(&state.model, state.precision)
            };
            if let Ok(queue) = restored
                .and_then(|frozen| InferQueue::new(InferSession::from_frozen(frozen), state.queue_cfg))
            {
                state.queue = queue;
                state.memo.clear();
            }
        }
    }
}

fn ok_response(body: Vec<u8>, keep_alive: bool) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    http::write_response(&mut out, 200, "OK", "application/json", &body, keep_alive);
    (out, !keep_alive)
}

fn error_response(status: u16, message: &str, keep_alive: bool) -> (Vec<u8>, bool) {
    let reason = match status {
        400 => "Bad Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut out = Vec::new();
    http::write_response(
        &mut out,
        status,
        reason,
        "application/json",
        &proto::error_body(message),
        keep_alive,
    );
    (out, !keep_alive)
}

fn send_reply(
    reply_txs: &[(Sender<Reply>, Waker)],
    route: Route,
    packaged: (Vec<u8>, bool),
    observe: bool,
) {
    let (bytes, close_after) = packaged;
    if let Some((tx, waker)) = reply_txs.get(route.worker) {
        if tx
            .send(Reply {
                conn: route.conn,
                seq: route.seq,
                bytes,
                close_after,
                observe,
            })
            .is_ok()
        {
            waker.wake();
        }
    }
}
