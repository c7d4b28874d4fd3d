//! The daemon: listener setup and lifecycle.
//!
//! One I/O core sits behind [`start`]: a reactor thread multiplexes every
//! connection with `epoll` and nonblocking sockets ([`crate::reactor`]),
//! and `threads` CPU workers execute complete requests through the router
//! ([`crate::router`]).  Many idle keep-alive sockets cost no threads.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use afg_obs::TraceRing;

use crate::reactor;
use crate::registry::Registry;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// CPU worker threads executing parsed requests.  The number of open
    /// connections is independent of them.
    pub threads: usize,
    /// How long an idle keep-alive connection is held before it is closed
    /// (`--idle-timeout-ms`), enforced by the reactor's timer wheel.
    pub keep_alive_timeout: Duration,
    /// How long a connection may take from its first request byte to the
    /// complete head + body before it is closed — the slow-loris guard
    /// (`--header-timeout-ms`).
    pub header_timeout: Duration,
    /// Bounded depth of the parsed-request queue feeding the CPU workers;
    /// beyond it requests are shed with a 503 (`--queue-depth`).
    pub queue_depth: usize,
    /// Open-connection cap; accepts beyond it are shed with a 503
    /// (`--max-connections`).
    pub max_connections: usize,
    /// Record a span tree per grade request (served at `/debug/traces`,
    /// echoed back as `X-Afg-Trace-Id`).  Tracing observes, it never
    /// steers: grade responses are byte-identical either way.
    pub tracing: bool,
    /// Grades at or above this wall-clock log their span tree to stderr;
    /// `None` disables the slow-grade log.
    pub slow_grade: Option<Duration>,
    /// How many recent traces `/debug/traces` retains.
    pub trace_ring: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 16,
            keep_alive_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(10),
            queue_depth: 1024,
            max_connections: 16384,
            tracing: true,
            slow_grade: Some(Duration::from_secs(1)),
            trace_ring: 64,
        }
    }
}

/// Everything the request handlers share: the problem registry plus the
/// observability knobs and the recent-trace ring.
pub(crate) struct ServiceState {
    pub(crate) registry: Registry,
    pub(crate) traces: TraceRing,
    pub(crate) tracing: bool,
    pub(crate) slow_grade: Option<Duration>,
}

/// A running daemon.  Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    jobs: Arc<reactor::JobQueue>,
    completions: Arc<reactor::Completions>,
}

/// Starts the daemon on `config.addr` with a fresh, empty problem registry.
pub fn start(config: ServiceConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let state = Arc::new(ServiceState {
        registry: Registry::new(),
        traces: TraceRing::new(config.trace_ring),
        tracing: config.tracing,
        slow_grade: config.slow_grade,
    });
    let shutdown = Arc::new(AtomicBool::new(false));
    let jobs = Arc::new(reactor::JobQueue::new(config.queue_depth));
    let completions = Arc::new(reactor::Completions::new()?);

    let mut workers = Vec::with_capacity(config.threads.max(1));
    for _ in 0..config.threads.max(1) {
        let state = Arc::clone(&state);
        let jobs = Arc::clone(&jobs);
        let completions = Arc::clone(&completions);
        workers.push(std::thread::spawn(move || {
            reactor::worker_loop(state, jobs, completions);
        }));
    }

    let reactor_thread = {
        let jobs = Arc::clone(&jobs);
        let completions = Arc::clone(&completions);
        let shutdown = Arc::clone(&shutdown);
        let opts = reactor::ReactorOptions {
            idle_timeout: config.keep_alive_timeout,
            header_timeout: config.header_timeout,
            max_connections: config.max_connections,
        };
        std::thread::spawn(move || {
            reactor::run(listener, jobs, completions, shutdown, opts);
        })
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        reactor: Some(reactor_thread),
        workers,
        jobs,
        completions,
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down (for the daemon binary).
    pub fn wait(mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }

    /// Stops accepting, drains workers and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The eventfd write unblocks epoll_wait; closing the job queue
        // unblocks the workers.
        self.completions.waker.wake();
        self.jobs.close();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}
