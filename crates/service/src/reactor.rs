//! The epoll reactor: a zero-dependency event loop that multiplexes
//! thousands of keep-alive connections onto one thread and hands complete
//! requests to a small CPU worker pool.
//!
//! Layout of the event-driven I/O core:
//!
//! ```text
//!             ┌──────────────────────────────────────────────┐
//!   sockets ──┤ reactor thread: epoll_wait → per-connection  │
//!             │ state machine (Idle → ReadingHead →          │
//!             │ ReadingBody → Executing → Writing → Idle)    │
//!             └───────┬──────────────────────────▲───────────┘
//!                     │ bounded job queue        │ eventfd wakeup
//!             ┌───────▼──────────────────────────┴───────────┐
//!             │ N CPU workers: router::handle → encoded bytes │
//!             └──────────────────────────────────────────────┘
//! ```
//!
//! The syscall surface is tiny and declared directly against the libc the
//! Rust standard library already links (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`) — no external crate.  Sockets themselves are
//! plain `std::net` types in nonblocking mode, so reads and writes go
//! through the ordinary safe `Read`/`Write` impls.
//!
//! Per connection the reactor keeps one [`RequestParser`] (incremental
//! HTTP parsing, pipelined leftovers carried across requests), a write
//! buffer with partial-write resumption, and a deadline on a hashed timer
//! wheel: **idle** keep-alive connections and **mid-request** (slow-loris)
//! connections time out separately.  Requests are executed strictly one
//! at a time per connection, preserving pipeline response order; responses
//! are encoded by the workers through [`crate::http::encode_response`].
//!
//! The daemon is Linux-only: epoll is its one I/O core.

use std::collections::VecDeque;
use std::ffi::{c_int, c_uint};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{encode_response, EofOutcome, Parse, ParseError, Request, RequestParser, Stage};
use crate::router::{error_json, handle, Reply};
use crate::server::ServiceState;

// ---------------------------------------------------------------------------
// Raw epoll / eventfd bindings
// ---------------------------------------------------------------------------

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;

/// The kernel's `struct epoll_event`.  On x86-64 it is packed (the kernel
/// ABI predates natural alignment there); fields are only ever read from
/// by-value copies, never by reference.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn wait(&self, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        loop {
            let rc = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if rc < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            return Ok(rc as usize);
        }
    }
}

/// An `eventfd`-backed wakeup: workers (and the shutdown path) write a
/// counter increment, the reactor's epoll set reports it readable.
pub(crate) struct Waker {
    file: File,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        let fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        while (&self.file).read(&mut buf).is_ok() {}
    }
}

// ---------------------------------------------------------------------------
// Worker-pool plumbing: bounded job queue in, completion queue out
// ---------------------------------------------------------------------------

/// One complete request bound for a CPU worker.
pub(crate) struct Job {
    token: u64,
    gen: u64,
    request: Request,
    keep_alive: bool,
    enqueued: Instant,
}

/// Bounded MPSC queue between the reactor and the worker pool.  `push`
/// fails (rather than blocks) when full — the reactor must never block —
/// and the caller sheds the request with a 503.
pub(crate) struct JobQueue {
    inner: Mutex<JobQueueInner>,
    available: Condvar,
    depth: usize,
}

struct JobQueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    pub(crate) fn new(depth: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn push(&self, job: Job) -> bool {
        let mut inner = self.inner.lock().expect("job queue lock");
        if inner.jobs.len() >= self.depth {
            return false;
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.available.notify_one();
        true
    }

    fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job queue lock");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("job queue lock");
        }
    }

    pub(crate) fn close(&self) {
        self.inner.lock().expect("job queue lock").closed = true;
        self.available.notify_all();
    }
}

struct Done {
    token: u64,
    gen: u64,
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// Finished responses travelling back from workers to the reactor, paired
/// with the eventfd that re-arms the event loop.
pub(crate) struct Completions {
    done: Mutex<Vec<Done>>,
    pub(crate) waker: Waker,
}

impl Completions {
    pub(crate) fn new() -> io::Result<Completions> {
        Ok(Completions {
            done: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        })
    }

    fn push(&self, done: Done) {
        self.done.lock().expect("completion lock").push(done);
        self.waker.wake();
    }

    fn take(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock().expect("completion lock"))
    }
}

/// One CPU worker: pop a job, run the router, push the encoded bytes back
/// and wake the reactor.  Panics inside a handler become a 500 on that one
/// connection, never a dead worker.
pub(crate) fn worker_loop(
    state: Arc<ServiceState>,
    jobs: Arc<JobQueue>,
    completions: Arc<Completions>,
) {
    while let Some(job) = jobs.pop() {
        afg_obs::histogram!(
            "afg_queue_wait_seconds",
            "Time a parsed request waits for a CPU worker",
            1e-6
        )
        .record_duration(job.enqueued.elapsed());
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _stage = afg_obs::stage_span!("execute");
            handle(&job.request, &state)
        }))
        .unwrap_or_else(|_| Reply::json(500, error_json("internal error")));
        let bytes = reply.encode(job.keep_alive);
        completions.push(Done {
            token: job.token,
            gen: job.gen,
            bytes,
            keep_alive: job.keep_alive,
        });
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

const WHEEL_SLOTS: u64 = 256;
const TICK_MS: u64 = 25;

/// Hashed timer wheel, 256 slots × 25 ms.  Entries are `(token, gen)`
/// hints with **lazy cancellation**: firing re-checks the connection's
/// actual deadline and re-inserts if it moved, so rescheduling a
/// keep-alive deadline is O(1) with no deletion.
struct TimerWheel {
    slots: Vec<Vec<(u64, u64)>>,
    origin: Instant,
    /// Next tick to process.
    cursor: u64,
    len: usize,
}

impl TimerWheel {
    fn new(origin: Instant) -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); WHEEL_SLOTS as usize],
            origin,
            cursor: 0,
            len: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_millis() as u64 / TICK_MS
    }

    fn insert(&mut self, deadline: Instant, token: u64, gen: u64) {
        let tick = self.tick_of(deadline).max(self.cursor + 1);
        self.slots[(tick % WHEEL_SLOTS) as usize].push((token, gen));
        self.len += 1;
    }

    /// Drains every slot whose tick has passed.  Entries may fire early
    /// (slot collision a revolution out) — the caller re-checks deadlines.
    fn advance(&mut self, now: Instant) -> Vec<(u64, u64)> {
        let current = self.tick_of(now);
        if self.len == 0 {
            self.cursor = current + 1;
            return Vec::new();
        }
        let mut due = Vec::new();
        while self.cursor <= current {
            let slot = (self.cursor % WHEEL_SLOTS) as usize;
            due.append(&mut self.slots[slot]);
            self.cursor += 1;
        }
        self.len -= due.len();
        due
    }

    /// How long `epoll_wait` may block before the nearest armed slot.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        for k in 0..WHEEL_SLOTS {
            let slot = ((self.cursor + k) % WHEEL_SLOTS) as usize;
            if !self.slots[slot].is_empty() {
                let fire_at = self.origin + Duration::from_millis((self.cursor + k) * TICK_MS);
                return Some(fire_at.saturating_duration_since(now));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Reactor tuning, carved out of [`crate::ServiceConfig`].
pub(crate) struct ReactorOptions {
    /// Idle keep-alive limit (between requests).
    pub(crate) idle_timeout: Duration,
    /// Mid-request limit: first request byte → complete head+body
    /// (the slow-loris guard).
    pub(crate) header_timeout: Duration,
    /// Open-connection cap; beyond it accepts are shed with a 503.
    pub(crate) max_connections: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Keep-alive, between requests.
    Idle,
    /// Mid request line / headers.
    ReadingHead,
    /// Mid `Content-Length` body.
    ReadingBody,
    /// A worker owns the request; socket interest is parked.
    Executing,
    /// Flushing the response (partial writes resume on `EPOLLOUT`).
    Writing,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    gen: u64,
    out: Vec<u8>,
    out_pos: usize,
    interest: u32,
    deadline: Option<Instant>,
    close_after_write: bool,
}

enum ReadStep {
    Data(usize),
    Eof,
    Block,
    Retry,
    Fail,
}

enum WriteStep {
    Done,
    Progress,
    Block,
    Fail,
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    wheel: TimerWheel,
    jobs: Arc<JobQueue>,
    completions: Arc<Completions>,
    shutdown: Arc<AtomicBool>,
    opts: ReactorOptions,
    open: usize,
    next_gen: u64,
}

/// Runs the reactor until shutdown.  Consumes the listening socket; errors
/// setting up the epoll set are reported and abort the thread (the daemon
/// then serves nothing, which the caller's health check will notice).
pub(crate) fn run(
    listener: TcpListener,
    jobs: Arc<JobQueue>,
    completions: Arc<Completions>,
    shutdown: Arc<AtomicBool>,
    opts: ReactorOptions,
) {
    let epoll = match Epoll::new() {
        Ok(epoll) => epoll,
        Err(err) => {
            eprintln!("[afg-serve] reactor: epoll_create1 failed: {err}");
            return;
        }
    };
    if let Err(err) = listener.set_nonblocking(true) {
        eprintln!("[afg-serve] reactor: set_nonblocking failed: {err}");
        return;
    }
    if let Err(err) = epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN) {
        eprintln!("[afg-serve] reactor: registering listener failed: {err}");
        return;
    }
    if let Err(err) = epoll.add(completions.waker.file.as_raw_fd(), EPOLLIN, WAKER_TOKEN) {
        eprintln!("[afg-serve] reactor: registering waker failed: {err}");
        return;
    }
    let mut reactor = Reactor {
        epoll,
        listener,
        slab: Vec::new(),
        free: Vec::new(),
        wheel: TimerWheel::new(Instant::now()),
        jobs,
        completions,
        shutdown,
        opts,
        open: 0,
        next_gen: 0,
    };
    reactor.event_loop();
}

impl Reactor {
    fn event_loop(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let timeout = match self.wheel.next_timeout(Instant::now()) {
                // +1 ms so the wait lands just past the tick, not short
                // of it (as_millis truncates).
                Some(until) => (until.as_millis() as i64 + 1).min(60_000) as c_int,
                None => -1,
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(err) => {
                    eprintln!("[afg-serve] reactor: epoll_wait failed: {err}");
                    return;
                }
            };
            afg_obs::counter!("afg_reactor_wakeups_total", "Reactor epoll wakeups").inc();
            afg_obs::histogram!(
                "afg_reactor_events",
                "Readiness events handled per reactor wakeup",
                1.0
            )
            .record(n as u64);
            let now = Instant::now();
            for event in events.iter().take(n) {
                // Copy the (possibly packed) fields out by value.
                let ev = *event;
                let (mask, token) = (ev.events, ev.data);
                match token {
                    LISTENER_TOKEN => self.handle_accept(),
                    WAKER_TOKEN => self.apply_completions(now),
                    _ => self.handle_conn(token, mask, now),
                }
            }
            self.fire_timers(Instant::now());
        }
    }

    // -- accept path --------------------------------------------------------

    fn handle_accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    afg_obs::counter!("afg_accepts_total", "Accepted TCP connections").inc();
                    if self.open >= self.opts.max_connections {
                        overload_counter("connections").inc();
                        shed_with_503(stream);
                        continue;
                    }
                    self.add_conn(stream);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let token = idx as u64;
        if self
            .epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, token)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        let deadline = Instant::now() + self.opts.idle_timeout;
        self.slab[idx] = Some(Conn {
            stream,
            parser: RequestParser::new(),
            state: ConnState::Idle,
            gen,
            out: Vec::new(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            deadline: Some(deadline),
            close_after_write: false,
        });
        self.wheel.insert(deadline, token, gen);
        self.open += 1;
        open_gauge().set(self.open as i64);
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slab.get_mut(idx).and_then(Option::take) {
            let _ = self.epoll.del(conn.stream.as_raw_fd());
            self.free.push(idx);
            self.open -= 1;
            open_gauge().set(self.open as i64);
        }
    }

    // -- readiness dispatch --------------------------------------------------

    fn handle_conn(&mut self, token: u64, mask: u32, now: Instant) {
        let idx = token as usize;
        let Some(conn) = self.slab.get(idx).and_then(Option::as_ref) else {
            return;
        };
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(idx);
            return;
        }
        match conn.state {
            ConnState::Idle | ConnState::ReadingHead | ConnState::ReadingBody => {
                if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                    self.do_read(idx, now);
                }
            }
            ConnState::Writing => {
                if mask & EPOLLOUT != 0 {
                    self.do_write(idx, now);
                }
            }
            // Stale readiness while a worker owns the request.
            ConnState::Executing => {}
        }
    }

    fn do_read(&mut self, idx: usize, now: Instant) {
        let mut buf = [0u8; 16 * 1024];
        // Bounded drain: level-triggered epoll re-reports anything left,
        // so one connection cannot starve the loop.
        for _ in 0..32 {
            let step = {
                let Some(conn) = self.slab[idx].as_mut() else {
                    return;
                };
                match (&conn.stream).read(&mut buf) {
                    Ok(0) => ReadStep::Eof,
                    Ok(n) => ReadStep::Data(n),
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => ReadStep::Block,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => ReadStep::Retry,
                    Err(_) => ReadStep::Fail,
                }
            };
            match step {
                ReadStep::Data(n) => {
                    let parse = {
                        let Some(conn) = self.slab[idx].as_mut() else {
                            return;
                        };
                        conn.parser.feed(&buf[..n])
                    };
                    match parse {
                        Parse::Complete(request) => {
                            self.dispatch(idx, request, false);
                            return;
                        }
                        Parse::Error(err) => {
                            self.respond_error(idx, &err, now);
                            return;
                        }
                        Parse::Partial => self.note_reading(idx, now),
                    }
                }
                ReadStep::Eof => {
                    let outcome = {
                        let Some(conn) = self.slab[idx].as_mut() else {
                            return;
                        };
                        conn.parser.eof()
                    };
                    match outcome {
                        EofOutcome::Closed | EofOutcome::Drop => self.close(idx),
                        EofOutcome::Complete(request) => self.dispatch(idx, request, true),
                        EofOutcome::Error(err) => self.respond_error(idx, &err, now),
                    }
                    return;
                }
                ReadStep::Block => return,
                ReadStep::Retry => {}
                ReadStep::Fail => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// After a `Partial` feed: label the state by parser stage, and on the
    /// Idle → Reading transition arm the slow-loris deadline.  The
    /// deadline deliberately does NOT reset per byte — it spans the whole
    /// request read, so dripping one byte per second cannot hold a slot.
    fn note_reading(&mut self, idx: usize, now: Instant) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        if conn.parser.is_idle() {
            return;
        }
        let was_idle = conn.state == ConnState::Idle;
        conn.state = match conn.parser.stage() {
            Stage::Head => ConnState::ReadingHead,
            Stage::Body => ConnState::ReadingBody,
        };
        if was_idle {
            let deadline = now + self.opts.header_timeout;
            conn.deadline = Some(deadline);
            let gen = conn.gen;
            self.wheel.insert(deadline, idx as u64, gen);
        }
    }

    /// A complete request: park socket interest and hand it to the worker
    /// pool (or shed with a 503 if the queue is full).  `eof_seen` closes
    /// the connection after the response regardless of keep-alive.
    fn dispatch(&mut self, idx: usize, request: Request, eof_seen: bool) {
        let keep_alive = request.keep_alive();
        let gen = {
            let Some(conn) = self.slab[idx].as_mut() else {
                return;
            };
            conn.close_after_write = !keep_alive || eof_seen;
            conn.state = ConnState::Executing;
            conn.deadline = None;
            conn.gen
        };
        let job = Job {
            token: idx as u64,
            gen,
            request,
            keep_alive,
            enqueued: Instant::now(),
        };
        if self.jobs.push(job) {
            self.set_interest(idx, 0);
        } else {
            overload_counter("queue").inc();
            if let Some(conn) = self.slab[idx].as_mut() {
                conn.close_after_write = true;
            }
            let bytes = encode_response(
                503,
                "application/json",
                &[],
                r#"{"error":"server overloaded"}"#,
                false,
            );
            self.queue_write(idx, bytes);
        }
    }

    fn respond_error(&mut self, idx: usize, err: &ParseError, _now: Instant) {
        let (status, body) = match err {
            ParseError::Malformed(message) => (400, error_json(message).to_string()),
            ParseError::TooLarge => (413, error_json("request too large").to_string()),
        };
        if let Some(conn) = self.slab[idx].as_mut() {
            conn.close_after_write = true;
        }
        let bytes = encode_response(status, "application/json", &[], &body, false);
        self.queue_write(idx, bytes);
    }

    // -- write path ----------------------------------------------------------

    fn queue_write(&mut self, idx: usize, bytes: Vec<u8>) {
        let now = Instant::now();
        {
            let Some(conn) = self.slab[idx].as_mut() else {
                return;
            };
            conn.out = bytes;
            conn.out_pos = 0;
            conn.state = ConnState::Writing;
            // A stalled peer may not drain its receive window forever.
            let deadline = now + self.opts.idle_timeout;
            conn.deadline = Some(deadline);
            let gen = conn.gen;
            self.wheel.insert(deadline, idx as u64, gen);
        }
        // Optimistic write: the common case finishes without ever arming
        // EPOLLOUT.
        self.do_write(idx, now);
    }

    fn do_write(&mut self, idx: usize, now: Instant) {
        loop {
            let step = {
                let Some(conn) = self.slab[idx].as_mut() else {
                    return;
                };
                if conn.out_pos >= conn.out.len() {
                    WriteStep::Done
                } else {
                    match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                        Ok(0) => WriteStep::Fail,
                        Ok(n) => {
                            conn.out_pos += n;
                            WriteStep::Progress
                        }
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => WriteStep::Block,
                        Err(err) if err.kind() == io::ErrorKind::Interrupted => WriteStep::Progress,
                        Err(_) => WriteStep::Fail,
                    }
                }
            };
            match step {
                WriteStep::Done => {
                    self.finish_write(idx, now);
                    return;
                }
                WriteStep::Progress => {}
                WriteStep::Block => {
                    self.set_interest(idx, EPOLLOUT);
                    return;
                }
                WriteStep::Fail => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Response fully flushed: close, or rotate back to reading — serving
    /// any already-buffered pipelined request first.
    fn finish_write(&mut self, idx: usize, now: Instant) {
        let close = {
            let Some(conn) = self.slab[idx].as_mut() else {
                return;
            };
            conn.out = Vec::new();
            conn.out_pos = 0;
            conn.close_after_write
        };
        if close {
            self.close(idx);
            return;
        }
        let parse = {
            let Some(conn) = self.slab[idx].as_mut() else {
                return;
            };
            conn.parser.feed(&[])
        };
        match parse {
            Parse::Complete(request) => self.dispatch(idx, request, false),
            Parse::Error(err) => self.respond_error(idx, &err, now),
            Parse::Partial => {
                {
                    let Some(conn) = self.slab[idx].as_mut() else {
                        return;
                    };
                    let (state, timeout) = if conn.parser.is_idle() {
                        (ConnState::Idle, self.opts.idle_timeout)
                    } else {
                        let state = match conn.parser.stage() {
                            Stage::Head => ConnState::ReadingHead,
                            Stage::Body => ConnState::ReadingBody,
                        };
                        (state, self.opts.header_timeout)
                    };
                    conn.state = state;
                    let deadline = now + timeout;
                    conn.deadline = Some(deadline);
                    let gen = conn.gen;
                    self.wheel.insert(deadline, idx as u64, gen);
                }
                self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
            }
        }
    }

    // -- worker completions --------------------------------------------------

    fn apply_completions(&mut self, _now: Instant) {
        self.completions.waker.drain();
        for done in self.completions.take() {
            let idx = done.token as usize;
            let live = matches!(
                self.slab.get(idx).and_then(Option::as_ref),
                Some(conn) if conn.gen == done.gen && conn.state == ConnState::Executing
            );
            if !live {
                continue;
            }
            if !done.keep_alive {
                if let Some(conn) = self.slab[idx].as_mut() {
                    conn.close_after_write = true;
                }
            }
            self.queue_write(idx, done.bytes);
        }
    }

    // -- timers --------------------------------------------------------------

    fn fire_timers(&mut self, now: Instant) {
        for (token, gen) in self.wheel.advance(now) {
            let idx = token as usize;
            let verdict = {
                let Some(conn) = self.slab.get(idx).and_then(Option::as_ref) else {
                    continue;
                };
                if conn.gen != gen {
                    continue;
                }
                match conn.deadline {
                    None => None,
                    Some(deadline) if deadline <= now => Some(Err(match conn.state {
                        ConnState::Idle => "idle",
                        ConnState::ReadingHead | ConnState::ReadingBody => "header",
                        ConnState::Writing => "write",
                        ConnState::Executing => continue,
                    })),
                    Some(deadline) => Some(Ok(deadline)),
                }
            };
            match verdict {
                // Deadline disarmed (request executing): drop the entry.
                None => {}
                // Deadline moved (keep-alive renewed): lazy re-insert.
                Some(Ok(deadline)) => self.wheel.insert(deadline, token, gen),
                Some(Err(kind)) => {
                    afg_obs::global()
                        .counter(
                            "afg_conn_timeouts_total",
                            "Connections closed by reactor timeouts, by kind",
                            &[("kind", kind)],
                        )
                        .inc();
                    self.close(idx);
                }
            }
        }
    }

    // -- misc ----------------------------------------------------------------

    fn set_interest(&mut self, idx: usize, mask: u32) {
        let Some(conn) = self.slab[idx].as_mut() else {
            return;
        };
        if conn.interest == mask {
            return;
        }
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), mask, idx as u64)
            .is_ok()
        {
            conn.interest = mask;
        }
    }
}

fn open_gauge() -> std::sync::Arc<afg_obs::Gauge> {
    afg_obs::gauge!("afg_open_connections", "Currently open client connections")
}

fn overload_counter(reason: &'static str) -> std::sync::Arc<afg_obs::Counter> {
    afg_obs::global().counter(
        "afg_overload_rejections_total",
        "Requests shed under overload, by reason",
        &[("reason", reason)],
    )
}

/// Best-effort 503 on a connection shed at accept time.  The socket is
/// switched to nonblocking first: losing the 503 to a full buffer is
/// acceptable, stalling the reactor is not.
fn shed_with_503(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let _ = stream.write_all(&encode_response(
        503,
        "application/json",
        &[],
        r#"{"error":"server overloaded"}"#,
        false,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_due_entries_and_lazily_reinserts() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        wheel.insert(origin + Duration::from_millis(50), 7, 1);
        // Not due yet.
        assert!(wheel.advance(origin + Duration::from_millis(10)).is_empty());
        // Due (and drained exactly once).
        let due = wheel.advance(origin + Duration::from_millis(120));
        assert_eq!(due, vec![(7, 1)]);
        assert!(wheel
            .advance(origin + Duration::from_millis(200))
            .is_empty());
    }

    #[test]
    fn timer_wheel_timeout_tracks_nearest_slot() {
        let origin = Instant::now();
        let mut wheel = TimerWheel::new(origin);
        assert!(wheel.next_timeout(origin).is_none());
        wheel.insert(origin + Duration::from_millis(500), 1, 1);
        let timeout = wheel.next_timeout(origin).expect("armed");
        assert!(timeout <= Duration::from_millis(525), "{timeout:?}");
    }

    #[test]
    fn job_queue_bounds_depth_and_closes() {
        let queue = JobQueue::new(1);
        let job = |token| Job {
            token,
            gen: 0,
            request: crate::http::Request {
                method: "GET".into(),
                path: "/healthz".into(),
                version: "HTTP/1.1".into(),
                headers: Vec::new(),
                body: Vec::new(),
            },
            keep_alive: true,
            enqueued: Instant::now(),
        };
        assert!(queue.push(job(1)));
        assert!(!queue.push(job(2)), "queue depth 1 must shed the second");
        assert_eq!(queue.pop().map(|j| j.token), Some(1));
        queue.close();
        assert!(queue.pop().is_none());
    }
}
